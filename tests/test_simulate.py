"""Oracles: exact event-tree enumeration and the seeded document simulator."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import pfmodel as pf
from pfmodel import (
    ClassifierProfileSet,
    Edge,
    NormalizedConfusionMatrix,
    Pipeline,
    SimConfig,
)
from pfmodel.rng import uniforms

from conftest import DEEP_CHAIN_SIZE, GAMMA_B, chain_json, random_pipeline


def brute_force_joint(fs, gammas):
    """Meta-oracle: filter all binary chain pairs instead of walking a tree."""
    depth = len(gammas)
    cells = [[0.0, 0.0], [0.0, 0.0]]
    for xs in itertools.product((0, 1), repeat=depth):
        for cs in itertools.product((0, 1), repeat=depth):
            x_chain = (1,) + xs
            c_chain = (1,) + cs
            if any(x_chain[i] < x_chain[i + 1] for i in range(depth)):
                continue
            if any(c_chain[i] < c_chain[i + 1] for i in range(depth)):
                continue
            prob = 1.0
            for k in range(1, depth + 1):
                if x_chain[k - 1] == 1:
                    prob *= fs[k] if x_chain[k] == 1 else 1.0 - fs[k]
                if c_chain[k - 1] == 1:
                    g = gammas[k - 1]
                    row = (g.fn, g.tp) if x_chain[k] == 1 else (g.tn, g.fp)
                    prob *= row[c_chain[k]]
            cells[x_chain[-1]][c_chain[-1]] += prob
    return (cells[0][0], cells[0][1], cells[1][0], cells[1][1])


# --- exact enumeration ---------------------------------------------------------


def test_exact_root_only():
    p = Pipeline(("A",), (1.0,))
    profiles = ClassifierProfileSet(base={}, root="A")
    assert pf.enumerate_exact(p, profiles) == pf.OMEGA_BASE


def test_exact_l1_event_tree():
    # summed by hand: (0.5*0.8, 0.5*0.2, 0.5*0.1, 0.5*0.9)
    p = Pipeline(("A", "B"), (1.0, 0.5))
    profiles = ClassifierProfileSet(base={"B": GAMMA_B}, root="A")
    got = pf.enumerate_exact(p, profiles)
    assert got.as_tuple() == pytest.approx((0.40, 0.10, 0.05, 0.45), abs=1e-15)


def test_exact_matches_brute_force():
    rng = np.random.default_rng(71)
    for _ in range(40):
        p, profiles = random_pipeline(rng, int(rng.integers(1, 6)))
        brute = brute_force_joint(p.require_fs(), profiles.gamma_chain(p))
        got = pf.enumerate_exact(p, profiles)
        assert got.as_tuple() == pytest.approx(brute, abs=1e-12)


def test_exact_agrees_with_both_model_forms():
    rng = np.random.default_rng(73)
    for _ in range(100):
        p, profiles = random_pipeline(rng, int(rng.integers(1, 7)))
        exact = pf.enumerate_exact(p, profiles)
        assert exact.max_abs_diff(pf.omega_recursive(p, profiles)) <= 1e-12
        assert exact.max_abs_diff(pf.omega_closed(p, profiles)) <= 1e-12


# --- counter-based streams ------------------------------------------------------


def test_uniform_blocks_are_position_addressable():
    whole = uniforms(42, ("stream", 1), 1000)
    for start, count in ((0, 10), (3, 5), (4, 8), (17, 100), (999, 1)):
        block = uniforms(42, ("stream", 1), count, start=start)
        assert np.array_equal(whole[start : start + count], block)


def test_streams_differ_by_tag_and_seed():
    a = uniforms(42, ("x",), 100)
    b = uniforms(42, ("y",), 100)
    c = uniforms(43, ("x",), 100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_document_split_workers_reproduce_serial_tally():
    # documents are independent, so simulating [0, split) and [split, m) on
    # the same streams and merging tallies must equal the serial run exactly
    p = Pipeline(("A", "B", "C"), (1.0, 0.8, 0.5))
    profiles = ClassifierProfileSet(
        base={"B": GAMMA_B, "C": GAMMA_B}, root="A"
    )
    m, split, seed = 10_000, 3_333, 13
    serial = pf.simulate_pipeline(p, profiles, SimConfig(m=m, seed=seed))

    def worker(start: int, count: int) -> tuple[int, int, int, int]:
        fs = p.require_fs()
        gammas = profiles.gamma_chain(p)
        x = np.ones(count, dtype=bool)
        c = np.ones(count, dtype=bool)
        for k in range(1, len(p.nodes)):
            g = gammas[k - 1]
            u_mem = uniforms(seed, ("pipeline-membership", p.path, k), count, start=start)
            x &= u_mem < fs[k]
            u_dec = uniforms(seed, ("pipeline-decision", p.path, k), count, start=start)
            c &= u_dec < np.where(x, g.tp, g.fp)
        return (
            int(np.sum(~x & ~c)), int(np.sum(~x & c)),
            int(np.sum(x & ~c)), int(np.sum(x & c)),
        )

    merged = tuple(
        a + b for a, b in zip(worker(0, split), worker(split, m - split))
    )
    assert merged == serial.counts


# --- pipeline simulation ---------------------------------------------------------


@pytest.fixture
def l1_fixture():
    p = Pipeline(("A", "B"), (1.0, 0.5))
    profiles = ClassifierProfileSet(base={"B": GAMMA_B}, root="A")
    return p, profiles


def test_simulation_is_deterministic(l1_fixture):
    p, profiles = l1_fixture
    cfg = SimConfig(m=10_000, seed=7)
    assert pf.simulate_pipeline(p, profiles, cfg) == pf.simulate_pipeline(p, profiles, cfg)


def test_simulation_l1_regression(l1_fixture):
    # pinned after a verified run: max_z = 2.655 against (0.40, 0.10, 0.05, 0.45)
    p, profiles = l1_fixture
    out = pf.simulate_pipeline(p, profiles, SimConfig(m=100_000, seed=42))
    assert out.counts == (39814, 10040, 5183, 44963)


def test_simulation_within_binomial_bounds(l1_fixture):
    p, profiles = l1_fixture
    model = pf.omega_closed(p, profiles)
    out = pf.simulate_pipeline(p, profiles, SimConfig(m=100_000, seed=42))
    for pred, count in zip(model.as_tuple(), out.counts):
        sigma = math.sqrt(pred * (1.0 - pred) / out.m)
        assert abs(count / out.m - pred) <= 4.0 * sigma


def test_perfect_classifiers_make_no_errors():
    perfect = NormalizedConfusionMatrix(tn=1.0, fp=0.0, fn=0.0, tp=1.0)
    p = Pipeline(("A", "B", "C"), (1.0, 0.7, 0.4))
    profiles = ClassifierProfileSet(base={"B": perfect, "C": perfect}, root="A")
    for seed in (0, 1, 2):
        out = pf.simulate_pipeline(p, profiles, SimConfig(m=5_000, seed=seed))
        assert out.counts[1] == 0 and out.counts[2] == 0  # no FP, no FN


def test_all_f_one_generates_no_negatives(l1_fixture):
    _, profiles = l1_fixture
    p = Pipeline(("A", "B"), (1.0, 1.0))
    out = pf.simulate_pipeline(p, profiles, SimConfig(m=5_000, seed=3))
    assert out.counts[0] == 0 and out.counts[1] == 0  # X = 0 column empty


def test_decision_and_truth_chains_are_absorbing(l1_fixture):
    _, profiles0 = l1_fixture
    rng = np.random.default_rng(79)
    p, profiles = random_pipeline(rng, 5)
    out = pf.simulate_pipeline(p, profiles, SimConfig(m=20_000, seed=11))
    # per-depth counts: the accepted mass and the positive mass never grow
    pos = [c[2] + c[3] for c in out.counts_by_depth]
    acc = [c[1] + c[3] for c in out.counts_by_depth]
    assert all(b <= a for a, b in zip(pos, pos[1:]))
    assert all(b <= a for a, b in zip(acc, acc[1:]))


def test_sim_outcome_counts_must_sum_to_m():
    with pytest.raises(ValueError):
        pf.SimOutcome(pipeline="A", m=10, counts=(1, 2, 3, 5), counts_by_depth=())


# --- taxonomy simulation ----------------------------------------------------------


@pytest.fixture
def dag_sim_inputs(dag_example):
    profiles = ClassifierProfileSet(
        base={
            "B": NormalizedConfusionMatrix(tn=0.9, fp=0.1, fn=0.2, tp=0.8),
            "C": NormalizedConfusionMatrix(tn=0.85, fp=0.15, fn=0.1, tp=0.9),
            "D": NormalizedConfusionMatrix(tn=0.95, fp=0.05, fn=0.25, tp=0.75),
        },
        root="A",
    )
    return dag_example, profiles


def test_taxonomy_labels_are_ancestor_closed(dag_sim_inputs):
    t, profiles = dag_sim_inputs
    res = pf.simulate_taxonomy(t, profiles, SimConfig(m=20_000, seed=5))
    for c in t.categories:
        ancestors, _, _ = pf.relative_sets(t, c)
        for a in ancestors:
            assert np.all(res.memberships[c] <= res.memberships[a])
    for ls in res.label_sets(limit=100):
        ok, missing = pf.check_label_consistency(t, ls)
        assert ok and not missing


def test_taxonomy_regression_counts(dag_sim_inputs):
    # pinned after a verified run (all pipelines within 4 sigma of their models)
    t, profiles = dag_sim_inputs
    res = pf.simulate_taxonomy(t, profiles, SimConfig(m=100_000, seed=42))
    assert res.per_pipeline["A/B"].counts == (36274, 3932, 12084, 47710)
    assert res.per_pipeline["A/B/C"].counts == (66076, 4123, 8410, 21391)
    assert res.per_pipeline["A/B/D"].counts == (74477, 1611, 9702, 14210)
    assert res.per_pipeline["A/C"].counts == (59714, 10485, 3047, 26754)


def test_taxonomy_tallies_match_models(dag_sim_inputs):
    t, profiles = dag_sim_inputs
    res = pf.simulate_taxonomy(t, profiles, SimConfig(m=100_000, seed=42))
    for path, outcome in res.per_pipeline.items():
        report = pf.compare(res.models[path], outcome)
        assert report.passed, (path, report.max_z)


def test_single_chain_taxonomy_matches_pipeline_mode(chain_abd):
    profiles = ClassifierProfileSet(
        base={
            "B": NormalizedConfusionMatrix(tn=0.9, fp=0.1, fn=0.2, tp=0.8),
            "D": GAMMA_B,
        },
        root="A",
    )
    m = 50_000
    tax = pf.simulate_taxonomy(chain_abd, profiles, SimConfig(m=m, seed=1))
    pipe = [p for p in pf.enumerate_pipelines(chain_abd) if p.path == "A/B/D"][0]
    ind = pf.simulate_pipeline(pipe, profiles, SimConfig(m=m, seed=2))
    for c1, c2 in zip(tax.per_pipeline["A/B/D"].counts, ind.counts):
        pooled = (c1 + c2) / (2 * m)
        se = math.sqrt(pooled * (1.0 - pooled) * (2 / m))
        if se == 0.0:
            assert c1 == c2
            continue
        assert abs(c1 / m - c2 / m) / se <= 4.0


def test_deep_chain_taxonomy_tallies_each_prefix():
    bundle = pf.parse_inputs(*chain_json(DEEP_CHAIN_SIZE))
    res = pf.simulate_taxonomy(bundle.taxonomy, bundle.profiles, SimConfig(m=16, seed=0))
    pipelines = pf.enumerate_pipelines(bundle.taxonomy)
    assert list(res.per_pipeline) == [p.path for p in pipelines]
    assert list(res.models) == [p.path for p in pipelines]
    deepest = res.per_pipeline[pipelines[-1].path].counts_by_depth
    for k, p in enumerate(pipelines):
        assert res.per_pipeline[p.path].counts == deepest[k]
        assert res.per_pipeline[p.path].counts_by_depth == deepest[: k + 1]


def test_taxonomy_requires_edge_probabilities():
    t = pf.validate_taxonomy(["A", "B"], [Edge("B", "A")])
    profiles = ClassifierProfileSet(base={"B": GAMMA_B}, root="A")
    with pytest.raises(pf.MissingEdgeProbabilityError):
        pf.simulate_taxonomy(t, profiles, SimConfig(m=10, seed=0))


def test_diamond_dag_consistent_edges_match_models():
    # D under incomparable B and C; edge probabilities mutually consistent:
    # p(D | both) = 0.5, so f(D|B) = 0.5 * f(C|A) and f(D|C) = 0.5 * f(B|A)
    t = pf.validate_taxonomy(
        ["A", "B", "C", "D"],
        [Edge("B", "A", 0.6), Edge("C", "A", 0.3),
         Edge("D", "B", 0.15), Edge("D", "C", 0.30)],
    )
    g = NormalizedConfusionMatrix(tn=0.9, fp=0.1, fn=0.2, tp=0.8)
    profiles = ClassifierProfileSet(base={"B": g, "C": g, "D": g}, root="A")
    res = pf.simulate_taxonomy(t, profiles, SimConfig(m=100_000, seed=3))
    for path, outcome in res.per_pipeline.items():
        assert pf.compare(res.models[path], outcome).passed, path
    for c in t.categories:
        ancestors, _, _ = pf.relative_sets(t, c)
        for a in ancestors:
            assert np.all(res.memberships[c] <= res.memberships[a])


def test_diamond_dag_infeasible_edges_rejected():
    t = pf.validate_taxonomy(
        ["A", "B", "C", "D"],
        [Edge("B", "A", 0.6), Edge("C", "A", 0.3),
         Edge("D", "B", 0.5), Edge("D", "C", 0.9)],
    )
    g = NormalizedConfusionMatrix(tn=0.9, fp=0.1, fn=0.2, tp=0.8)
    profiles = ClassifierProfileSet(base={"B": g, "C": g, "D": g}, root="A")
    with pytest.raises(pf.OutOfRangeProbabilityError):
        pf.simulate_taxonomy(t, profiles, SimConfig(m=100, seed=0))


# --- deviation report ---------------------------------------------------------------


def test_compare_exact_counts_zero_z():
    model = pf.JointMatrix(tn=0.4, fp=0.1, fn=0.05, tp=0.45)
    report = pf.compare(model, (40, 10, 5, 45), m=100)
    assert report.max_z == 0.0 and report.passed


def test_compare_flags_ten_sigma_cell():
    # m=1600, p=0.2 gives sigma exactly 0.01; shift 160 counts = 10 sigma
    model = pf.JointMatrix(tn=0.2, fp=0.2, fn=0.2, tp=0.4)
    report = pf.compare(model, (480, 320, 320, 480), m=1600)
    assert report.max_z == pytest.approx(10.0, abs=1e-9)
    assert not report.passed


def test_compare_zero_variance_cells():
    model = pf.JointMatrix(tn=0.0, fp=0.0, fn=0.0, tp=1.0)
    assert pf.compare(model, (0, 0, 0, 100), m=100).max_z == 0.0
    assert pf.compare(model, (1, 0, 0, 99), m=100).max_z == math.inf


def test_compare_subnormal_prediction_has_nonzero_sigma():
    # 5e-324 * (1 - 5e-324) / 16 underflows to 0; the cell's sigma must not
    tiny = 5e-324
    model = pf.JointMatrix(tn=1.0 - 0.5 - tiny, fp=tiny, fn=0.0, tp=0.5)
    report = pf.compare(model, (8, 0, 0, 8), m=16)
    assert report.cells[1].sigma > 0.0
    assert report.max_z < 1.0 and report.passed
    report = pf.compare(model, (7, 1, 0, 8), m=16)
    assert math.isfinite(report.max_z) and not report.passed


def test_compare_requires_m_for_raw_counts():
    model = pf.JointMatrix(tn=0.4, fp=0.1, fn=0.05, tp=0.45)
    with pytest.raises(ValueError):
        pf.compare(model, (40, 10, 5, 45))


# --- imbalance sweep ------------------------------------------------------------------


def test_same_imbalance_different_precision(l2_pipeline):
    # hand-picked chains with the same final positive rate 0.1
    p, profiles = l2_pipeline
    early = pf.omega_closed(Pipeline(p.nodes, (1.0, 0.1, 1.0)), profiles)
    late = pf.omega_closed(Pipeline(p.nodes, (1.0, 1.0, 0.1)), profiles)
    assert early.fn + early.tp == pytest.approx(0.1, abs=1e-12)
    assert late.fn + late.tp == pytest.approx(0.1, abs=1e-12)
    assert early.fp != pytest.approx(late.fp, abs=1e-6)
    tp_early = pf.pipeline_metrics(early).precision
    tp_late = pf.pipeline_metrics(late).precision
    assert abs(tp_early - tp_late) > 1e-3


def test_sweep_rows_share_target_and_recall(l2_pipeline):
    p, profiles = l2_pipeline
    result = pf.imbalance_sweep(p, profiles, 0.1, 50, SimConfig(m=1, seed=42))
    assert len(result.rows) == 50
    recalls = {round(r.report.recall, 15) for r in result.rows}
    assert len(recalls) == 1  # distribution-independent
    for row in result.rows:
        assert math.prod(row.fs[1:]) == pytest.approx(0.1, rel=1e-9)
        assert all(0.0 < f <= 1.0 for f in row.fs[1:])
    precisions = [r.report.precision for r in result.rows]
    assert max(precisions) - min(precisions) > 1e-3


def test_sweep_single_trivial_row(l2_pipeline):
    p, profiles = l2_pipeline
    result = pf.imbalance_sweep(p, profiles, 0.25, 1, SimConfig(m=1, seed=0))
    assert len(result.rows) == 1
    spread = {s.metric: s for s in result.spreads}
    assert spread["precision"].minimum == spread["precision"].maximum


def test_sweep_is_deterministic(l2_pipeline):
    p, profiles = l2_pipeline
    a = pf.imbalance_sweep(p, profiles, 0.1, 10, SimConfig(m=1, seed=9))
    b = pf.imbalance_sweep(p, profiles, 0.1, 10, SimConfig(m=1, seed=9))
    assert a == b


def test_sweep_infeasible_inputs(l2_pipeline):
    p, profiles = l2_pipeline
    with pytest.raises(pf.InfeasibleTargetError):
        pf.imbalance_sweep(p, profiles, 1.5, 10, SimConfig(m=1, seed=0))
    with pytest.raises(pf.InfeasibleTargetError):
        pf.imbalance_sweep(p, profiles, 0.1, 0, SimConfig(m=1, seed=0))
    short = Pipeline(("A", "B"), (1.0, 0.5))
    short_profiles = ClassifierProfileSet(base={"B": GAMMA_B}, root="A")
    with pytest.raises(pf.InfeasibleTargetError):
        pf.imbalance_sweep(short, short_profiles, 0.1, 10, SimConfig(m=1, seed=0))
