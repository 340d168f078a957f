"""Deterministic synthetic inputs for the benchmark workloads.

Every shape follows one convention: category ``c<i>`` has tree parent
``c<(i-1)//b>``, edges draw ``f ~ U(0.2, 0.9)`` and classifiers draw
``fp ~ U(0.01, 0.3)``, ``tp ~ U(0.6, 0.99)``.  A generator is a pure
function of its seed: the same seed writes byte-identical files.

The DAG draws one coin per node instead of one ``f`` per edge.  A
document belongs to a category when the coins of the category and of its
whole ancestor closure all fire, so ``f(child | parent)`` is the product of
the coins above ``child`` that lie outside ``parent``'s closure.  Edge
probabilities built that way are mutually consistent, the whole-taxonomy
simulator realizes every one of them exactly, and its per-node coin
calibration never rejects an edge.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

#: every this many-th DAG node at depth >= 3 gets a second parent
DAG_SECOND_PARENT_EVERY = 10
#: share of DAG pipelines whose last classifier is overridden
DAG_OVERRIDE_SHARE = 0.03


@dataclass(frozen=True)
class Inputs:
    """One generated taxonomy and its classifier profiles, as input-file text."""

    taxonomy: str
    profiles: str
    parents: tuple[tuple[int, ...], ...]  # parents[i]: parent indices of c<i>
    coins: tuple[float, ...] | None = None  # a DAG's per-node coin probabilities


def _name(i: int) -> str:
    return f"c{i}"


def _rng(shape: str, seed: int) -> random.Random:
    return random.Random(f"{shape}:{seed}")


def _classifiers(rng: random.Random, n: int) -> dict:
    out = {}
    for i in range(1, n):
        fp = rng.uniform(0.01, 0.3)
        tp = rng.uniform(0.6, 0.99)
        out[_name(i)] = {"tn": 1.0 - fp, "fp": fp, "fn": 1.0 - tp, "tp": tp}
    return out


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=1) + "\n"


def _tree_inputs(shape: str, n: int, b: int, seed: int) -> Inputs:
    rng = _rng(shape, seed)
    edges = [{"child": _name(i), "parent": _name((i - 1) // b), "f": rng.uniform(0.2, 0.9)}
             for i in range(1, n)]
    taxonomy = {"root": _name(0), "categories": [_name(i) for i in range(n)], "edges": edges}
    profiles = {"classifiers": _classifiers(rng, n)}
    parents = ((),) + tuple(((i - 1) // b,) for i in range(1, n))
    return Inputs(_dump(taxonomy), _dump(profiles), parents)


def tree(n: int, b: int, seed: int) -> Inputs:
    """A b-ary tree of ``n`` categories (b=1 gives a chain of depth n-1)."""
    return _tree_inputs(f"tree-{n}-{b}", n, b, seed)


def _depths(parents) -> list[int]:
    depth = [0] * len(parents)
    for i in range(1, len(parents)):
        depth[i] = depth[parents[i][0]] + 1
    return depth


def ancestor_closures(parents) -> list[frozenset[int]]:
    """Strict ancestor set of every node (parents always have lower indices)."""
    closures: list[frozenset[int]] = []
    for ps in parents:
        acc: set[int] = set()
        for p in ps:
            acc.add(p)
            acc |= closures[p]
        closures.append(frozenset(acc))
    return closures


def consistent_f(coins, closures, child: int, parent: int) -> float:
    """p(child | parent) under independent per-node coins on ancestor closures."""
    f = coins[child]
    for a in sorted(closures[child] - closures[parent] - {parent}):
        f *= coins[a]
    return f


def dag(n: int, b: int, seed: int) -> Inputs:
    """A b-ary tree plus a second parent on every tenth node at depth >= 3,
    with consistent edge probabilities and classifier overrides on a few
    percent of the pipelines.

    The seed picks the second parents and every probability, never the
    shape's size: each second parent has a single rooted path, so every
    seed gives the same number of pipelines.
    """
    rng = _rng(f"dag-{n}-{b}", seed)
    parents: list[tuple[int, ...]] = [()] + [((i - 1) // b,) for i in range(1, n)]
    depth = _depths(parents)
    one_path: dict[int, list[int]] = {}  # depth -> nodes with a single rooted path
    on_one_path = {0}
    for i in range(1, n):
        if i % DAG_SECOND_PARENT_EVERY == 0 and depth[i] >= 3:
            # one level up keeps the node's depth and the index order
            # (parents before children), so the graph stays acyclic
            choices = [p for p in one_path[depth[i] - 1] if p != parents[i][0]]
            parents[i] = (parents[i][0], rng.choice(choices))
        elif parents[i][0] in on_one_path:
            on_one_path.add(i)
            one_path.setdefault(depth[i], []).append(i)
    closures = ancestor_closures(parents)
    coins = [1.0] + [rng.uniform(0.2, 0.9) for _ in range(1, n)]
    edges = [{"child": _name(i), "parent": _name(p),
              "f": consistent_f(coins, closures, i, p)}
             for i in range(1, n) for p in parents[i]]
    taxonomy = {"root": _name(0), "categories": [_name(i) for i in range(n)], "edges": edges}
    classifiers = _classifiers(rng, n)

    # an override replaces the last classifier of its pipeline, which is how
    # whole-taxonomy simulation resolves it too (per rooted prefix)
    paths = pipeline_paths(parents)[1:]
    overrides = []
    for path in sorted(rng.sample(paths, round(DAG_OVERRIDE_SHARE * len(paths)))):
        fp = rng.uniform(0.01, 0.3)
        tp = rng.uniform(0.6, 0.99)
        overrides.append({"pipeline": "/".join(_name(i) for i in path),
                          "category": _name(path[-1]),
                          "tn": 1.0 - fp, "fp": fp, "fn": 1.0 - tp, "tp": tp})
    profiles = {"classifiers": classifiers, "overrides": overrides}
    return Inputs(_dump(taxonomy), _dump(profiles), tuple(parents), tuple(coins))


def pipeline_paths(parents) -> list[tuple[int, ...]]:
    """Every rooted path as node indices, sorted as pfmodel sorts pipelines
    (lexicographically on category names)."""
    children: list[list[int]] = [[] for _ in parents]
    for i, ps in enumerate(parents):
        for p in ps:
            children[p].append(i)
    out = []
    stack = [(0,)]
    while stack:
        path = stack.pop()
        out.append(path)
        stack.extend(path + (c,) for c in children[path[-1]])
    out.sort(key=lambda p: tuple(_name(i) for i in p))
    return out


def deepest_path(parents) -> str:
    """Slash-joined deepest rooted path (first in pipeline order on ties)."""
    paths = pipeline_paths(parents)
    longest = max(len(p) for p in paths)
    return "/".join(_name(i) for i in next(p for p in paths if len(p) == longest))
