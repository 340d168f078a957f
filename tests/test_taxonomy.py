"""Taxonomy structure, pipeline unfolding, and label-set queries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfmodel as pf
from pfmodel import Edge, parse_taxonomy

from conftest import DEEP_CHAIN_SIZE, chain_json, random_tree


# --- validation ---------------------------------------------------------------


def test_smallest_branching_tree():
    t = pf.validate_taxonomy(["A", "B", "C"], [Edge("B", "A"), Edge("C", "A")])
    assert t.root == "A"
    assert t.children_of("A") == ("B", "C")


def test_cycle_detected():
    with pytest.raises(pf.CycleDetectedError):
        pf.validate_taxonomy(["A", "B"], [Edge("B", "A"), Edge("A", "B")])
    # a cycle below a proper root, every category reachable from it
    with pytest.raises(pf.CycleDetectedError, match=r"cycle through \['B', 'C'\]"):
        pf.validate_taxonomy(
            ["A", "B", "C"], [Edge("B", "A"), Edge("C", "B"), Edge("B", "C")]
        )


def test_self_loop_detected():
    with pytest.raises(pf.CycleDetectedError):
        pf.validate_taxonomy(["A"], [Edge("A", "A")])


def test_multiple_roots():
    with pytest.raises(pf.MultipleRootsError):
        pf.validate_taxonomy(["A", "B", "C"], [Edge("C", "A")])  # B is a second root


def test_declared_root_mismatch():
    with pytest.raises(pf.MultipleRootsError):
        pf.validate_taxonomy(["A", "B"], [Edge("B", "A")], root="B")


def test_duplicate_edge():
    with pytest.raises(pf.DuplicateEdgeError):
        pf.validate_taxonomy(["A", "B"], [Edge("B", "A"), Edge("B", "A", 0.5)])


def test_duplicate_category():
    with pytest.raises(pf.PFModelError, match=r"^duplicate category 'B'$"):
        pf.validate_taxonomy(["A", "B", "C", "B", "C"], [Edge("B", "A", 0.5), Edge("C", "A")])


def test_unknown_category_in_edge():
    with pytest.raises(pf.UnknownCategoryError):
        pf.validate_taxonomy(["A"], [Edge("B", "A")])


def test_unreachable_category():
    # B -> C forms an island; both have a parent but no path from the root A
    with pytest.raises(pf.CycleDetectedError, match=r"cycle through \['B', 'C'\]$"):
        pf.validate_taxonomy(
            ["A", "B", "C"], [Edge("C", "B"), Edge("B", "C")]
        )
    # B sits under the root and under the unreachable cycle C <-> D, so
    # Kahn's walk from A cannot order B either
    with pytest.raises(pf.CycleDetectedError, match=r"cycle through \['B', 'C', 'D'\]$"):
        pf.validate_taxonomy(
            ["A", "B", "C", "D"],
            [Edge("B", "A"), Edge("B", "C"), Edge("C", "D"), Edge("D", "C")],
        )


def test_out_of_range_f():
    with pytest.raises(pf.OutOfRangeProbabilityError):
        pf.validate_taxonomy(["A", "B"], [Edge("B", "A", 1.5)])


def test_bad_category_names():
    with pytest.raises(pf.UnknownCategoryError):
        pf.validate_taxonomy(["  "], [])
    with pytest.raises(pf.UnknownCategoryError):
        pf.validate_taxonomy(["A", "A/B"], [Edge("A/B", "A")])


@pytest.mark.parametrize("name", [["x"], {"x": 1}], ids=["list", "dict"])
def test_an_unhashable_category_name_is_invalid(name):
    with pytest.raises(pf.UnknownCategoryError, match="^invalid category name"):
        pf.validate_taxonomy([name], [])


@pytest.mark.parametrize("char", ["\t", "\n", "\r", "\x85", "\u2028"],
                         ids=["tab", "lf", "cr", "nel", "line-separator"])
def test_category_names_with_control_characters_or_line_breaks(char):
    # such a name would split a TSV cell or a line of ``pipelines`` output
    with pytest.raises(pf.UnknownCategoryError, match="control characters or line breaks"):
        pf.validate_taxonomy(["A", f"B{char}x"], [Edge(f"B{char}x", "A")])


def test_empty_category_list():
    with pytest.raises(pf.UnknownCategoryError, match="^the category list is empty$"):
        pf.validate_taxonomy([], [])


def test_dag_example_valid(dag_example):
    assert dag_example.root == "A"
    assert dag_example.parents_of("C") == ("A", "B")


# --- relative sets ------------------------------------------------------------


def test_ancestors_along_chain(chain_abd):
    ancestors, _, _ = pf.relative_sets(chain_abd, "D")
    assert ancestors == {"B", "A"}


def test_root_has_no_ancestors(chain_abd):
    ancestors, _, _ = pf.relative_sets(chain_abd, "A")
    assert ancestors == frozenset()


def test_offspring_matches_bfs_closure(dag_example):
    # independent oracle: breadth-first transitive closure over child edges
    def bfs_down(t, start):
        seen, frontier = set(), [start]
        while frontier:
            c = frontier.pop()
            for ch in t.children_of(c):
                if ch not in seen:
                    seen.add(ch)
                    frontier.append(ch)
        return seen

    _, offspring, _ = pf.relative_sets(dag_example, "A")
    assert offspring == bfs_down(dag_example, "A") == {"B", "C", "D"}


def test_leaves_have_no_children(dag_example):
    _, _, children = pf.relative_sets(dag_example, "D")
    assert children == frozenset()


def test_unknown_category(chain_abd):
    with pytest.raises(pf.UnknownCategoryError):
        pf.relative_sets(chain_abd, "Z")


# --- pipeline enumeration -------------------------------------------------------


def test_dag_example_pipelines(dag_example):
    paths = [p.path for p in pf.enumerate_pipelines(dag_example)]
    assert paths == ["A", "A/B", "A/B/C", "A/B/D", "A/C"]


def test_dag_example_leaf_pipelines(dag_example):
    paths = [p.path for p in pf.enumerate_pipelines(dag_example, leaf_only=True)]
    assert paths == ["A/B/C", "A/B/D", "A/C"]


def test_single_node_taxonomy():
    t = pf.validate_taxonomy(["A"], [])
    assert [p.path for p in pf.enumerate_pipelines(t)] == ["A"]


def test_diamond_pipelines_through_shared_leaf():
    t = pf.validate_taxonomy(
        ["A", "B", "C", "D"],
        [Edge("B", "A"), Edge("C", "A"), Edge("D", "B"), Edge("D", "C")],
    )

    # oracle: exhaustive depth-first enumeration of rooted paths
    def dfs_paths(t, node, acc, out):
        out.append(tuple(acc))
        for ch in t.children_of(node):
            dfs_paths(t, ch, acc + [ch], out)

    expected: list[tuple[str, ...]] = []
    dfs_paths(t, "A", ["A"], expected)
    got = [p.nodes for p in pf.enumerate_pipelines(t)]
    assert sorted(expected) == got
    through_d = [p.path for p in pf.enumerate_pipelines(t) if p.nodes[-1] == "D"]
    assert through_d == ["A/B/D", "A/C/D"]


def test_pipelines_carry_edge_fs(chain_abd):
    by_path = {p.path: p for p in pf.enumerate_pipelines(chain_abd)}
    assert by_path["A/B/D"].fs == (1.0, 0.8, 0.5)


def test_enumeration_prefix_closed_and_well_formed():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = random_tree(rng, int(rng.integers(1, 12)))
        pipelines = pf.enumerate_pipelines(t)
        assert [p.nodes for p in pipelines] == sorted(p.nodes for p in pipelines)
        paths = {p.nodes for p in pipelines}
        for p in pipelines:
            for parent, child in zip(p.nodes, p.nodes[1:]):
                assert t.edge(child, parent) is not None
            for k in range(p.depth + 1):
                assert p.nodes[: k + 1] in paths


def test_deep_chain_enumerates_every_prefix():
    t = parse_taxonomy(chain_json(DEEP_CHAIN_SIZE)[0])
    pipelines = pf.enumerate_pipelines(t)
    assert len(pipelines) == DEEP_CHAIN_SIZE
    assert [p.depth for p in pipelines] == list(range(DEEP_CHAIN_SIZE))
    assert pf.enumerate_pipelines(t, leaf_only=True) == pipelines[-1:]


def test_traversal_probability_is_prefix_product():
    rng = np.random.default_rng(9)
    for _ in range(20):
        t = random_tree(rng, int(rng.integers(1, 12)))
        for p in pf.enumerate_pipelines(t):
            for k in range(1, p.depth + 1):
                assert p.fs[k] == t.edge(p.nodes[k], p.nodes[k - 1]).f


def test_pipeline_type_invariants():
    with pytest.raises(ValueError):
        pf.Pipeline(("A", "B"), (0.5, 0.5))  # f_0 must be 1
    with pytest.raises(pf.OutOfRangeProbabilityError):
        pf.Pipeline(("A", "B"), (1.0, 1.5))
    p = pf.Pipeline(("A", "B"), (1.0, None))
    with pytest.raises(pf.MissingEdgeProbabilityError):
        p.require_fs()
    with pytest.raises(ValueError, match="at least the root"):
        pf.Pipeline((), ())
    with pytest.raises(ValueError, match="fs must align with nodes"):
        pf.Pipeline(("A", "B"), (1.0,))
    with pytest.raises(IndexError, match=r"prefix depth 2 outside 0\.\.1"):
        p.prefix(p.depth + 1)


def test_pipeline_path_is_cached_not_a_field():
    p = pf.Pipeline(("A", "B"), (1.0, 0.5))
    q = pf.Pipeline(("A", "B"), (1.0, 0.5))
    assert p.path is p.path
    assert p.path == "A/B"
    assert pf.Pipeline._fields == ("nodes", "fs")
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)



# --- label consistency -----------------------------------------------------------


def test_consistency_examples(chain_abd):
    ok, missing = pf.check_label_consistency(chain_abd, {"A", "B", "D"})
    assert ok and not missing
    ok, missing = pf.check_label_consistency(chain_abd, set())
    assert ok
    ok, missing = pf.check_label_consistency(chain_abd, {"A", "D"})
    assert not ok and missing == {"B"}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_consistency_iff_ancestor_closed(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    t = random_tree(rng, int(rng.integers(1, 10)))
    cats = sorted(t.categories)
    subset = {c for c in cats if data.draw(st.booleans())}
    closure = set(subset)
    for c in subset:
        ancestors, _, _ = pf.relative_sets(t, c)
        closure |= ancestors
    ok, missing = pf.check_label_consistency(t, subset)
    assert ok == (closure == subset)
    assert missing == closure - subset
