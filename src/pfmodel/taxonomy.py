"""Category taxonomies and their unfolding into pipelines.

A taxonomy is a rooted DAG of categories whose covering edges optionally
carry a conditional probability ``f`` (the probability that an instance of
the parent also belongs to the child).  All analysis in this package runs
on *pipelines*: rooted paths through the taxonomy, together with the chain
of edge probabilities collected along the way.  An edge may lack ``f``:
structure queries and enumeration still work, and anything that needs the
missing f raises instead of assuming a default.

Taxonomies and pipelines are immutable after validation and safe to share
across threads.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import ne
from typing import Iterable, NamedTuple

from .errors import (
    CycleDetectedError,
    DuplicateEdgeError,
    MissingEdgeProbabilityError,
    MultipleRootsError,
    OutOfRangeProbabilityError,
    UnknownCategoryError,
)

CategoryId = str

#: Unicode category Cc (tab, LF, CR, U+0085, ...) and the line and paragraph
#: separators, which would split a TSV cell or an output line, and the
#: surrogates (category Cs), which UTF-8 cannot encode
_CONTROL_OR_LINE_BREAK = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff]")


class Edge(NamedTuple):
    """A covering edge ``child < parent`` with optional conditional probability.

    ``f`` estimates p(child | parent): the fraction of the parent's domain
    that also belongs to the child.  ``None`` means "not supplied".
    """

    child: CategoryId
    parent: CategoryId
    f: float | None = None


class _Checked:
    """Base of a record that checks its fields in ``__new__`` or caches values
    in a ``__dict__``, which ``cached_property`` fills directly: ``_replace``
    goes through ``__new__``, and no attribute can be set or deleted."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __setattr__(self, name: str, *value: object):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Pipeline(_Checked, NamedTuple("Pipeline", [("nodes", tuple[CategoryId, ...]),
                                                 ("fs", tuple[float | None, ...])])):
    """A rooted path ``c_0 / c_1 / ... / c_L`` through a taxonomy.

    ``fs[k]`` is the conditional probability attached to the covering edge
    entering ``nodes[k]``; ``fs[0]`` is always 1 (everything belongs to the
    root).  Entries may be ``None`` when the source edge carries no f.
    """

    def __new__(cls, nodes: tuple[CategoryId, ...], fs: tuple[float | None, ...]):
        if not nodes:
            raise ValueError("a pipeline has at least the root")
        if len(fs) != len(nodes):
            raise ValueError("fs must align with nodes")
        if fs[0] != 1.0:
            raise ValueError("f_0 is 1 by definition")
        for f in fs[1:]:
            if f is not None and not 0.0 <= f <= 1.0:
                raise OutOfRangeProbabilityError(f"edge probability {f} outside [0, 1]")
        return super().__new__(cls, nodes, fs)

    @property
    def depth(self) -> int:
        """Number of non-root steps (L)."""
        return len(self.nodes) - 1

    @cached_property
    def path(self) -> str:
        """Slash-joined category names, the canonical serialized form."""
        return "/".join(self.nodes)

    def require_fs(self, start: int = 0) -> tuple[float, ...]:
        """The f chain from depth ``start`` on as plain floats, or raise if
        any of those edges lacks one."""
        fs = self.fs[start:]
        for k, f in enumerate(fs, start):
            if f is None:
                raise MissingEdgeProbabilityError(
                    f"pipeline {self.path}: edge into {self.nodes[k]!r} has no f"
                )
        return tuple(float(f) for f in fs)  # type: ignore[arg-type]

    def prefix(self, k: int) -> "Pipeline":
        """The subpipeline ``c_0 ... c_k``."""
        if not 0 <= k <= self.depth:
            raise IndexError(f"prefix depth {k} outside 0..{self.depth}")
        return Pipeline(self.nodes[: k + 1], self.fs[: k + 1])


class Taxonomy(_Checked, NamedTuple("Taxonomy", [
        ("categories", frozenset[CategoryId]), ("edges", tuple[Edge, ...]), ("root", CategoryId)])):
    """Validated rooted DAG of categories.

    Use :func:`validate_taxonomy` to construct one; the constructor itself
    does not re-check global invariants.
    """

    def _edges_by(self, end: int) -> dict[CategoryId, tuple[Edge, ...]]:
        """Each category's edges at their end ``end`` (0 child, 1 parent), by their other end."""
        out: dict[CategoryId, list[Edge]] = {c: [] for c in self.categories}
        for e in sorted(self.edges):
            out[e[end]].append(e)
        return {c: tuple(v) for c, v in out.items()}

    _parents = cached_property(lambda self: self._edges_by(0))
    _children = cached_property(lambda self: self._edges_by(1))

    @cached_property
    def _edge_map(self) -> dict[tuple[CategoryId, CategoryId], Edge]:
        return {(e.child, e.parent): e for e in self.edges}

    @cached_property
    def topological_order(self) -> tuple[CategoryId, ...]:
        """Every category after all its parents, root first (Kahn's walk); raises on a cycle."""
        children, pending = self._children, dict.fromkeys(self.categories, 0)
        for e in self.edges:
            pending[e.child] += 1
        order: list[CategoryId] = []
        stack = [self.root]
        while stack:
            c = stack.pop()
            order.append(c)
            for e in children[c]:
                if not (left := pending[e.child] - 1):
                    stack.append(e.child)
                pending[e.child] = left
        if len(order) != len(self.categories):
            cyclic = sorted(c for c in self.categories if pending[c] > 0)
            raise CycleDetectedError(f"cycle through {cyclic}")
        return tuple(order)

    @cached_property
    def _ancestors(self) -> dict[CategoryId, frozenset[CategoryId]]:
        """Ancestor closure of every category, each built from its parents'."""
        out: dict[CategoryId, frozenset[CategoryId]] = {}
        for c in self.topological_order:
            closure: set[CategoryId] = set()
            for e in self._parents[c]:
                closure.add(e.parent)
                closure |= out[e.parent]
            out[c] = frozenset(closure)
        return out

    def _require(self, c: CategoryId) -> None:
        if c not in self.categories:
            raise UnknownCategoryError(f"unknown category {c!r}")

    def parents_of(self, c: CategoryId) -> tuple[CategoryId, ...]:
        self._require(c)
        return tuple(e.parent for e in self._parents[c])

    def children_of(self, c: CategoryId) -> tuple[CategoryId, ...]:
        self._require(c)
        return tuple(e.child for e in self._children[c])

    def ancestors_of(self, c: CategoryId) -> frozenset[CategoryId]:
        """Every category strictly above ``c``."""
        self._require(c)
        return self._ancestors[c]

    def edge(self, child: CategoryId, parent: CategoryId) -> Edge | None:
        self._require(child)
        self._require(parent)
        return self._edge_map.get((child, parent))


def validate_taxonomy(
    categories: Iterable[CategoryId],
    edges: Iterable[Edge],
    root: CategoryId | None = None,
) -> Taxonomy:
    """Check the poset invariants and return an immutable :class:`Taxonomy`.

    Verifies: there are categories, their names are unique, non-empty and
    hold no '/', control character, line break or surrogate, edges
    reference known categories, no duplicate or self-loop edges, every
    supplied f lies in [0, 1], exactly one category has no parent (the
    root, matching ``root`` when given), and Kahn's walk from it orders
    every category: a category it cannot order lies on or below a cycle.

    Each check runs over all names or all edges at once; only where one
    fails do they go one by one, so that the error names the first offender.
    """
    names = list(categories)
    if not names:
        raise UnknownCategoryError("the category list is empty")
    if not ({*map(type, names)} == {str} and all(map(str.strip, names))
            and len(set(names)) == len(names) and "/" not in (joined := "".join(names))
            and not _CONTROL_OR_LINE_BREAK.search(joined)):
        seen: set[CategoryId] = set()
        for c in names:
            if not isinstance(c, str) or not c.strip():  # before hashing c
                raise UnknownCategoryError(f"invalid category name {c!r}")
            if c in seen:
                raise UnknownCategoryError(f"duplicate category {c!r}")
            seen.add(c)
            if "/" in c or _CONTROL_OR_LINE_BREAK.search(c):
                what = ("'/' (reserved for pipeline paths)" if "/" in c
                        else "control characters or line breaks")
                raise UnknownCategoryError(f"category name {c!r} may not contain {what}")

    cats = frozenset(names)
    norm_edges = list(edges)
    children, parents, fs = zip(*norm_edges) if norm_edges else ((), (), ())
    if not ({*map(type, ends := children + parents)} <= {str} and cats.issuperset(ends)
            and all(map(ne, children, parents)) and len(set(zip(children, parents))) == len(fs)
            and all(type(f) is float and 0.0 <= f <= 1.0 or f is None for f in fs)):
        pairs: set[tuple[CategoryId, CategoryId]] = set()
        for i, e in enumerate(norm_edges):
            for c in (e.child, e.parent):
                if c not in cats:
                    raise UnknownCategoryError(
                        f"edge {e.child!r}<{e.parent!r}: unknown category {c!r}")
            if e.child == e.parent:
                raise CycleDetectedError(f"self-loop on {e.child!r}")
            if (e.child, e.parent) in pairs:
                raise DuplicateEdgeError(f"duplicate edge {e.child!r}<{e.parent!r}")
            pairs.add((e.child, e.parent))
            if e.f is not None and not 0.0 <= e.f <= 1.0:
                raise OutOfRangeProbabilityError(
                    f"edge {e.child!r}<{e.parent!r}: f={e.f} outside [0, 1]")
            if e.f is not None and type(e.f) is not float:  # an int f is stored as a real
                norm_edges[i] = e._replace(f=float(e.f))

    roots = sorted(cats.difference(children))
    if not roots:
        raise CycleDetectedError("no parentless category; the covering relation is cyclic")
    if len(roots) > 1:
        raise MultipleRootsError(f"expected a unique root, found {roots}")
    found_root = roots[0]
    if root is not None and root != found_root:
        raise MultipleRootsError(
            f"declared root {root!r} is not the unique parentless category {found_root!r}")

    taxonomy = Taxonomy(categories=cats, edges=tuple(norm_edges), root=found_root)
    taxonomy.topological_order  # raises CycleDetectedError on every category it cannot order
    return taxonomy


def relative_sets(
    t: Taxonomy, r: CategoryId
) -> tuple[frozenset[CategoryId], frozenset[CategoryId], frozenset[CategoryId]]:
    """Ancestors, offspring, and children of ``r``.

    Ancestors are every category strictly above ``r``, offspring every
    category strictly below, children only the immediate neighbors below.
    """
    ancestors = t.ancestors_of(r)
    offspring: set[CategoryId] = set()
    frontier = [r]
    while frontier:
        c = frontier.pop()
        for ch in t.children_of(c):
            if ch not in offspring:
                offspring.add(ch)
                frontier.append(ch)
    return ancestors, frozenset(offspring), frozenset(t.children_of(r))


def enumerate_pipelines(t: Taxonomy, leaf_only: bool = False) -> tuple[Pipeline, ...]:
    """All rooted well-formed strings of the taxonomy, prefixes included.

    With ``leaf_only`` the result keeps only pipelines ending on a leaf.
    Order is deterministic: lexicographic on the node sequence.
    """
    out: list[Pipeline] = []
    # Depth-first from the root, children pushed in reverse name order: the
    # visit order is then lexicographic, every prefix before its extensions.
    stack: list[tuple[tuple[CategoryId, ...], tuple[float | None, ...]]] = [((t.root,), (1.0,))]
    while stack:
        nodes, fs = stack.pop()
        children = t._children[nodes[-1]]
        if not leaf_only or not children:
            out.append(Pipeline(nodes, fs))
        for e in reversed(children):
            stack.append((nodes + (e.child,), fs + (e.f,)))
    return tuple(out)


def find_pipeline(t: Taxonomy, path: str, leaf_only: bool = False) -> Pipeline:
    """The pipeline :func:`enumerate_pipelines` lists under ``path``; raises if none."""
    nodes = tuple(path.split("/"))
    edges = [t._edge_map.get(pair) for pair in zip(nodes[1:], nodes)]
    if nodes[0] != t.root or None in edges or (leaf_only and t._children[nodes[-1]]):
        raise UnknownCategoryError(f"no pipeline {path!r} in this taxonomy")
    return Pipeline(nodes, (1.0,) + tuple(e.f for e in edges))


def check_label_consistency(
    t: Taxonomy, labels: Iterable[CategoryId]
) -> tuple[bool, frozenset[CategoryId]]:
    """Whether a label set contains the full ancestor set of each label.

    Returns ``(consistent, missing)`` where ``missing`` lists the ancestors
    that would have to be added.
    """
    label_set = set(labels)
    for c in label_set:
        t._require(c)
    missing: set[CategoryId] = set()
    for c in label_set:
        missing |= t.ancestors_of(c) - label_set
    return (not missing, frozenset(missing))
