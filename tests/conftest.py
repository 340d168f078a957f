"""Shared fixtures: the standard example taxonomies and random generators."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import strategies as st

from pfmodel import (
    ClassifierProfileSet,
    Edge,
    NormalizedConfusionMatrix,
    Pipeline,
    SimConfig,
    enumerate_pipelines,
    omega_closed,
    simulate_taxonomy,
    validate_taxonomy,
)
from pfmodel.io import InputBundle, fmt12

GAMMA_A = NormalizedConfusionMatrix(tn=0.9, fp=0.1, fn=0.2, tp=0.8)
GAMMA_B = NormalizedConfusionMatrix(tn=0.8, fp=0.2, fn=0.1, tp=0.9)


@pytest.fixture
def chain_abd():
    """The three-level chain A > B > D with probabilistic edges."""
    return validate_taxonomy(
        ["A", "B", "D"],
        [Edge("B", "A", 0.8), Edge("D", "B", 0.5)],
    )


@pytest.fixture
def dag_example():
    """Four categories: B and C under A, C and D under B (C has two parents)."""
    return validate_taxonomy(
        ["A", "B", "C", "D"],
        [Edge("B", "A", 0.6), Edge("C", "A", 0.3), Edge("C", "B", 0.5), Edge("D", "B", 0.4)],
    )


@pytest.fixture
def l2_pipeline():
    """Depth-2 pipeline with f = (0.8, 0.5) and equal classifiers."""
    p = Pipeline(("A", "B", "C"), (1.0, 0.8, 0.5))
    profiles = ClassifierProfileSet(base={"B": GAMMA_A, "C": GAMMA_A}, root="A")
    return p, profiles


def random_gamma(rng: np.random.Generator) -> NormalizedConfusionMatrix:
    fp = float(rng.random())
    tp = float(rng.random())
    return NormalizedConfusionMatrix(tn=1.0 - fp, fp=fp, fn=1.0 - tp, tp=tp)


def random_pipeline(
    rng: np.random.Generator, depth: int
) -> tuple[Pipeline, ClassifierProfileSet]:
    nodes = tuple(f"n{i}" for i in range(depth + 1))
    fs = (1.0,) + tuple(float(rng.random()) for _ in range(depth))
    base = {nodes[k]: random_gamma(rng) for k in range(1, depth + 1)}
    return Pipeline(nodes, fs), ClassifierProfileSet(base=base, root=nodes[0])


def random_tree(rng: np.random.Generator, n_nodes: int):
    """A random rooted tree taxonomy with uniform edge probabilities."""
    names = [f"c{i}" for i in range(n_nodes)]
    edges = []
    for i in range(1, n_nodes):
        parent = names[int(rng.integers(0, i))]
        edges.append(Edge(names[i], parent, float(rng.random())))
    return validate_taxonomy(names, edges)


probabilities = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])


@st.composite
def bundles_with_overrides(draw):
    """A small random DAG (up to two parents per node), profiles, and
    overrides at random steps of random pipelines, each keyed by the path
    that ends at its step, which longer pipelines may extend."""
    n = draw(st.integers(1, 7))
    names = [f"c{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parents = draw(st.sets(st.integers(0, i - 1), min_size=1, max_size=min(i, 2)))
        edges += [Edge(names[i], names[j], draw(probabilities)) for j in sorted(parents)]
    taxonomy = validate_taxonomy(names, edges)

    def gamma():
        fp, tp = draw(probabilities), draw(probabilities)
        return NormalizedConfusionMatrix(tn=1.0 - fp, fp=fp, fn=1.0 - tp, tp=tp)

    base = {c: gamma() for c in names[1:]}
    stepped = [p for p in enumerate_pipelines(taxonomy) if p.depth >= 1]
    overrides = {}
    if stepped:
        for _ in range(draw(st.integers(0, 4))):
            p = draw(st.sampled_from(stepped))
            k = draw(st.integers(1, p.depth))
            overrides[("/".join(p.nodes[:k + 1]), p.nodes[k])] = gamma()
    profiles = ClassifierProfileSet(base=base, overrides=overrides, root=names[0])
    return InputBundle(taxonomy=taxonomy, profiles=profiles)


def assert_simulated_models_are_omega_closed(bundle: InputBundle) -> None:
    """Whole-taxonomy simulation scores each pipeline against the matrix that
    ``omega_closed`` (and so ``analyze``) gives it, bit for bit."""
    models = simulate_taxonomy(bundle.taxonomy, bundle.profiles, SimConfig(m=1)).models
    for p in enumerate_pipelines(bundle.taxonomy):
        assert models[p.path] == omega_closed(p, bundle.profiles), p.path


# --- the standard file-format example pair ------------------------------------

DAG_TAXONOMY_JSON = json.dumps(
    {
        "root": "A",
        "categories": ["A", "B", "C", "D"],
        "edges": [
            {"child": "B", "parent": "A", "f": 0.6},
            {"child": "C", "parent": "A", "f": 0.3},
            {"child": "C", "parent": "B", "f": 0.5},
            {"child": "D", "parent": "B", "f": 0.4},
        ],
    }
)

DAG_PROFILES_JSON = json.dumps(
    {
        "classifiers": {
            "B": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8},
            "C": {"tn": 0.85, "fp": 0.15, "fn": 0.1, "tp": 0.9},
            "D": {"tn": 0.95, "fp": 0.05, "fn": 0.25, "tp": 0.75},
        }
    }
)

L2_TAXONOMY_JSON = json.dumps(
    {
        "root": "A",
        "categories": ["A", "B", "C"],
        "edges": [
            {"child": "B", "parent": "A", "f": 0.8},
            {"child": "C", "parent": "B", "f": 0.5},
        ],
    }
)

L2_PROFILES_JSON = json.dumps(
    {
        "classifiers": {
            "B": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8},
            "C": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8},
        }
    }
)


def reals_of_pretty_json(text: str) -> list[float]:
    """Every real in a pfmodel JSON text, after checking that the text is the
    stdlib pretty-printer's and that each real keeps its 12-digit text."""
    reals: list[float] = []

    def keep(literal):
        reals.append(float(literal))
        return reals[-1]

    assert text == json.dumps(json.loads(text, parse_float=keep), indent=2) + "\n"
    assert all(float(fmt12(x)) == x for x in reals)
    return reals


def inconsistent_dag_json() -> tuple[str, str]:
    """Taxonomy and profiles JSON of a feasible DAG whose edge probabilities
    disagree: D's coin is calibrated on the edge from B, so documents
    realize f(D|C) = 0.5, not the edge's 0.0."""
    edges = [("B", "A", 0.5), ("C", "A", 0.5), ("D", "B", 0.5), ("D", "C", 0.0)]
    gamma = {"tn": 0.9, "fp": 0.1, "fn": 0.1, "tp": 0.9}
    taxonomy = {"root": "A", "categories": ["A", "B", "C", "D"],
                "edges": [{"child": c, "parent": p, "f": f} for c, p, f in edges]}
    return json.dumps(taxonomy), json.dumps({"classifiers": {c: gamma for c in "BCD"}})


#: categories of a chain deeper than a recursive walk of it could go
DEEP_CHAIN_SIZE = 1_500


def chain_json(n: int, f: float = 0.9) -> tuple[str, str]:
    """Taxonomy and profiles JSON of the chain c0 > c1 > ... > c<n-1>, every
    edge with probability ``f``."""
    names = [f"c{i}" for i in range(n)]
    taxonomy = {
        "root": names[0],
        "categories": names,
        "edges": [{"child": c, "parent": p, "f": f} for p, c in zip(names, names[1:])],
    }
    profiles = {
        "classifiers": {c: {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8} for c in names[1:]}
    }
    return json.dumps(taxonomy), json.dumps(profiles)


@pytest.fixture
def dag_files(tmp_path):
    t = tmp_path / "taxonomy.json"
    p = tmp_path / "profiles.json"
    t.write_text(DAG_TAXONOMY_JSON)
    p.write_text(DAG_PROFILES_JSON)
    return str(t), str(p)


@pytest.fixture
def l2_files(tmp_path):
    t = tmp_path / "taxonomy.json"
    p = tmp_path / "profiles.json"
    t.write_text(L2_TAXONOMY_JSON)
    p.write_text(L2_PROFILES_JSON)
    return str(t), str(p)


@pytest.fixture
def deep_chain_files(tmp_path):
    t = tmp_path / "taxonomy.json"
    p = tmp_path / "profiles.json"
    taxonomy, profiles = chain_json(DEEP_CHAIN_SIZE)
    t.write_text(taxonomy)
    p.write_text(profiles)
    return str(t), str(p)
