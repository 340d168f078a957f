"""Category taxonomies and their unfolding into pipelines.

A taxonomy is a rooted DAG of categories whose covering edges optionally
carry a conditional probability ``f`` (the probability that an instance of
the parent also belongs to the child).  All analysis in this package runs
on *pipelines*: rooted paths through the taxonomy, together with the chain
of edge probabilities collected along the way.

Structure queries come in two modes: *crisp* (set membership, 0/1) and
*probabilistic* (edge probabilities multiplied along chains).  Probabilistic
queries fail loudly on edges without ``f`` instead of assuming a default.

Taxonomies and pipelines are immutable after validation and safe to share
across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    CycleDetectedError,
    DuplicateEdgeError,
    MissingEdgeProbabilityError,
    MultipleRootsError,
    OutOfRangeProbabilityError,
    UnknownCategoryError,
    UnknownInstanceError,
)

CategoryId = str

#: Unicode category Cc (tab, LF, CR, U+0085, ...) and the line and paragraph
#: separators: characters that would split a TSV cell or an output line
_CONTROL_OR_LINE_BREAK = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029]")


@dataclass(frozen=True)
class Edge:
    """A covering edge ``child < parent`` with optional conditional probability.

    ``f`` estimates p(child | parent): the fraction of the parent's domain
    that also belongs to the child.  ``None`` means "not supplied"; crisp
    structure queries still work, probabilistic ones raise.
    """

    child: CategoryId
    parent: CategoryId
    f: float | None = None


@dataclass(frozen=True)
class Pipeline:
    """A rooted path ``c_0 / c_1 / ... / c_L`` through a taxonomy.

    ``fs[k]`` is the conditional probability attached to the covering edge
    entering ``nodes[k]``; ``fs[0]`` is always 1 (everything belongs to the
    root).  Entries may be ``None`` when the source edge carries no f.
    """

    nodes: tuple[CategoryId, ...]
    fs: tuple[float | None, ...]

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("a pipeline has at least the root")
        if len(self.fs) != len(self.nodes):
            raise ValueError("fs must align with nodes")
        if self.fs[0] != 1.0:
            raise ValueError("f_0 is 1 by definition")
        for f in self.fs[1:]:
            if f is not None and not 0.0 <= f <= 1.0:
                raise OutOfRangeProbabilityError(f"edge probability {f} outside [0, 1]")

    @property
    def depth(self) -> int:
        """Number of non-root steps (L)."""
        return len(self.nodes) - 1

    @cached_property
    def path(self) -> str:
        """Slash-joined category names, the canonical serialized form."""
        return "/".join(self.nodes)

    def require_fs(self) -> tuple[float, ...]:
        """The f chain as plain floats, or raise if any edge lacks one."""
        for k, f in enumerate(self.fs):
            if f is None:
                raise MissingEdgeProbabilityError(
                    f"pipeline {self.path}: edge into {self.nodes[k]!r} has no f"
                )
        return tuple(float(f) for f in self.fs)  # type: ignore[arg-type]

    def prefix(self, k: int) -> "Pipeline":
        """The subpipeline ``c_0 ... c_k``."""
        if not 0 <= k <= self.depth:
            raise IndexError(f"prefix depth {k} outside 0..{self.depth}")
        return Pipeline(self.nodes[: k + 1], self.fs[: k + 1])


@dataclass(frozen=True)
class Taxonomy:
    """Validated rooted DAG of categories.

    Use :func:`validate_taxonomy` to construct one; the constructor itself
    does not re-check global invariants.
    """

    categories: frozenset[CategoryId]
    edges: tuple[Edge, ...]
    root: CategoryId

    @cached_property
    def _parents(self) -> dict[CategoryId, tuple[Edge, ...]]:
        out: dict[CategoryId, list[Edge]] = {c: [] for c in self.categories}
        for e in self.edges:
            out[e.child].append(e)
        return {c: tuple(sorted(v, key=lambda e: e.parent)) for c, v in out.items()}

    @cached_property
    def _children(self) -> dict[CategoryId, tuple[Edge, ...]]:
        out: dict[CategoryId, list[Edge]] = {c: [] for c in self.categories}
        for e in self.edges:
            out[e.parent].append(e)
        return {c: tuple(sorted(v, key=lambda e: e.child)) for c, v in out.items()}

    @cached_property
    def _edge_map(self) -> dict[tuple[CategoryId, CategoryId], Edge]:
        return {(e.child, e.parent): e for e in self.edges}

    @cached_property
    def topological_order(self) -> tuple[CategoryId, ...]:
        """Every category after all its parents, root first (Kahn's walk); raises on a cycle."""
        pending = dict.fromkeys(self.categories, 0)
        for e in self.edges:
            pending[e.child] += 1
        order: list[CategoryId] = []
        stack = [self.root]
        while stack:
            c = stack.pop()
            order.append(c)
            for e in self._children[c]:
                pending[e.child] -= 1
                if pending[e.child] == 0:
                    stack.append(e.child)
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
    hold no '/', control character or line break, edges reference known
    categories, no duplicate or self-loop edges, every supplied f lies in
    [0, 1], exactly one category has no parent (the root, matching
    ``root`` when given), and Kahn's walk from it orders every category: a
    category it cannot order lies on or below a cycle.
    """
    names = list(categories)  # checked in the given order, so errors name the first
    cats = frozenset(names)
    if not cats:
        raise UnknownCategoryError("the category list is empty")
    seen: set[CategoryId] = set()
    for c in names:
        if c in seen:
            raise UnknownCategoryError(f"duplicate category {c!r}")
        seen.add(c)
        if not isinstance(c, str) or not c.strip():
            raise UnknownCategoryError(f"invalid category name {c!r}")
        if "/" in c:
            raise UnknownCategoryError(
                f"category name {c!r} may not contain '/' (reserved for pipeline paths)"
            )
        if _CONTROL_OR_LINE_BREAK.search(c):
            raise UnknownCategoryError(
                f"category name {c!r} may not contain control characters or line breaks"
            )

    norm_edges = list(edges)

    seen: set[tuple[CategoryId, CategoryId]] = set()
    for i, e in enumerate(norm_edges):
        for c in (e.child, e.parent):
            if c not in cats:
                raise UnknownCategoryError(f"edge {e.child!r}<{e.parent!r}: unknown category {c!r}")
        if e.child == e.parent:
            raise CycleDetectedError(f"self-loop on {e.child!r}")
        if (e.child, e.parent) in seen:
            raise DuplicateEdgeError(f"duplicate edge {e.child!r}<{e.parent!r}")
        seen.add((e.child, e.parent))
        if e.f is not None and not 0.0 <= e.f <= 1.0:
            raise OutOfRangeProbabilityError(
                f"edge {e.child!r}<{e.parent!r}: f={e.f} outside [0, 1]"
            )
        if e.f is not None and type(e.f) is not float:  # an int f is stored as a real
            norm_edges[i] = replace(e, f=float(e.f))

    roots = sorted(cats - {e.child for e in norm_edges})
    if not roots:
        raise CycleDetectedError("no parentless category; the covering relation is cyclic")
    if len(roots) > 1:
        raise MultipleRootsError(f"expected a unique root, found {roots}")
    found_root = roots[0]
    if root is not None and root != found_root:
        raise MultipleRootsError(
            f"declared root {root!r} is not the unique parentless category {found_root!r}"
        )

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


def covering_char(
    t: Taxonomy, b: CategoryId, a: CategoryId, probabilistic: bool = False
) -> float:
    """Characteristic function of the covering relation ``b < a`` (immediate).

    Crisp mode returns 1.0 iff (b, a) is a covering edge, else 0.0.
    Probabilistic mode returns the edge's f and raises if the edge exists
    but carries none.
    """
    edge = t.edge(b, a)
    if edge is None:
        return 0.0
    if not probabilistic:
        return 1.0
    if edge.f is None:
        raise MissingEdgeProbabilityError(f"edge {b!r}<{a!r} has no f")
    return float(edge.f)


def wfs_char(t: Taxonomy, s: Sequence[CategoryId], probabilistic: bool = False) -> float:
    """Characteristic function of well-formed strings.

    The empty string and every single category score 1; longer strings
    score the product of the covering characteristic over consecutive
    pairs.  Crisp mode therefore yields 1 iff the string is well-formed;
    probabilistic mode yields the probability of traversing the whole
    chain when every embedded classifier acts as an oracle.
    """
    for c in s:
        t._require(c)
    value = 1.0
    for prev, cur in zip(s, s[1:]):
        if t.edge(cur, prev) is None:
            return 0.0  # ill-formed: short-circuit before touching any f
        value *= covering_char(t, cur, prev, probabilistic=probabilistic)
    return value


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


def pipeline_leq(p1: Pipeline, p2: Pipeline) -> bool:
    """Pipeline partial order: ``p1 <= p2`` iff p2 extends p1."""
    return p2.nodes[: len(p1.nodes)] == p1.nodes


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


@dataclass(frozen=True)
class InstanceLabeling:
    """Ground-truth assignment of instances to their deepest true categories.

    ``instances`` maps an instance id to the set of categories it is a
    direct instance of; membership in every ancestor is implied.
    """

    instances: Mapping[str, frozenset[CategoryId]]

    def validate(self, t: Taxonomy) -> None:
        for i, cats in self.instances.items():
            for c in cats:
                if c not in t.categories:
                    raise UnknownCategoryError(f"instance {i!r}: unknown category {c!r}")


def category_domain(t: Taxonomy, labeling: InstanceLabeling, c: CategoryId) -> frozenset[str]:
    """Instance ids belonging to ``c`` directly or through any offspring."""
    t._require(c)
    _, offspring, _ = relative_sets(t, c)
    members = {c} | offspring
    return frozenset(i for i, cats in labeling.instances.items() if cats & members)


def relevance(
    t: Taxonomy,
    labeling: InstanceLabeling,
    instance: str,
    b: CategoryId,
    a: CategoryId,
) -> bool:
    """Whether ``instance`` is relevant for category ``b`` with respect to ``a``.

    The relevance set of (b, a) is the whole domain of ``a`` when ``b <= a``
    in the taxonomy order, and empty otherwise.
    """
    t._require(b)
    t._require(a)
    if instance not in labeling.instances:
        raise UnknownInstanceError(f"unknown instance {instance!r}")
    if b != a and a not in t.ancestors_of(b):
        return False
    return instance in category_domain(t, labeling, a)
