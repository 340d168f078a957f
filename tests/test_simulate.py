"""Oracles: exact event-tree enumeration and the seeded document simulator."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pfmodel as pf
from pfmodel import (
    ClassifierProfileSet,
    Edge,
    NormalizedConfusionMatrix,
    Pipeline,
    SimConfig,
    model,
    oracles,
    simulate,
)
from pfmodel.rng import PhiloxStream, stream_key, uniforms

from conftest import (
    DEEP_CHAIN_SIZE,
    GAMMA_B,
    assert_simulated_models_are_omega_closed,
    bundles_with_overrides,
    chain_json,
    random_gamma,
    random_pipeline,
)

GOLDEN = Path(__file__).parent / "golden"


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


def recursive_exact(fs, gammas):
    """Reference: the event-tree walk as a recursion, leaves summed in
    depth-first order; limited to depths below the recursion limit."""
    cells = [[0.0, 0.0], [0.0, 0.0]]

    def walk(k, x_prev, c_prev, prob):
        if prob == 0.0:
            return
        if k > len(gammas):
            cells[x_prev][c_prev] += prob
            return
        f, g = fs[k], gammas[k - 1]
        for x in (0, 1):
            if x_prev == 0 and x == 1:
                continue
            p_x = 1.0 if x_prev == 0 else (f if x == 1 else 1.0 - f)
            for c in (0, 1):
                if c_prev == 0 and c == 1:
                    continue
                if c_prev == 0:
                    p_c = 1.0
                else:
                    row = (g.fn, g.tp) if x == 1 else (g.tn, g.fp)
                    p_c = row[c]
                walk(k + 1, x, c, prob * p_x * p_c)

    walk(1, 1, 1, 1.0)
    return (cells[0][0], cells[0][1], cells[1][0], cells[1][1])


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


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


@given(st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_exact_walk_sums_like_the_recursion(steps):
    nodes = tuple(f"n{i}" for i in range(len(steps) + 1))
    fs = (1.0,) + tuple(f for f, _, _ in steps)
    gammas = [NormalizedConfusionMatrix(tn=1.0 - fp, fp=fp, fn=1.0 - tp, tp=tp)
              for _, fp, tp in steps]
    profiles = ClassifierProfileSet(base=dict(zip(nodes[1:], gammas)), root=nodes[0])
    got = pf.enumerate_exact(Pipeline(nodes, fs), profiles)
    assert got.as_tuple() == recursive_exact(fs, gammas)  # bit for bit


def test_exact_walk_is_quadratic_in_depth(monkeypatch):
    # each step carries every live history of the prefix before it one step
    # on, 2k + 1 of them at depth k; the histories carried must quadruple,
    # not grow eightfold, per doubling
    carried = []
    extend = oracles._extend

    def counting(histories, *args):
        carried.append(1 + len(histories[1]) + len(histories[2]))
        return extend(histories, *args)

    monkeypatch.setattr(oracles, "_extend", counting)
    half = NormalizedConfusionMatrix(tn=0.5, fp=0.5, fn=0.5, tp=0.5)
    counts = []
    for depth in (50, 100, 200):
        nodes = tuple(f"c{i}" for i in range(depth + 1))
        profiles = ClassifierProfileSet(base={c: half for c in nodes[1:]}, root=nodes[0])
        carried.clear()
        pf.enumerate_exact(Pipeline(nodes, (1.0,) + (0.5,) * depth), profiles)
        assert len(carried) == depth
        counts.append(sum(carried))
    assert counts[1] <= 4.5 * counts[0]
    assert counts[2] <= 4.5 * counts[1]


def test_exact_walks_a_1500_step_pipeline():
    # f = 1 and tp = 1 leave one history of nonzero mass at each step; the
    # others are carried at mass 0 and leave every cell as it is
    nodes = tuple(f"c{i}" for i in range(1501))
    sure = NormalizedConfusionMatrix(tn=0.7, fp=0.3, fn=0.0, tp=1.0)
    profiles = ClassifierProfileSet(base={c: sure for c in nodes[1:]}, root=nodes[0])
    p = Pipeline(nodes, (1.0,) * len(nodes))
    assert pf.enumerate_exact(p, profiles) == pf.OMEGA_BASE


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


def test_rekeyed_streams_draw_what_a_new_philox_draws():
    # uniforms re-keys one generator per thread by setting its state; a new
    # Generator(Philox(key)) per stream is the reference, rounded keys and
    # starts inside a Philox block included
    rng = random.Random(7)
    rounded = unaligned = 0
    for _ in range(1200):
        seed = rng.randrange(2**64)
        tags = tuple(rng.choice((rng.randrange(10**6), f"c{rng.randrange(99)}"))
                     for _ in range(rng.randrange(1, 4)))
        count, start = rng.randrange(40), rng.randrange(40)
        key = stream_key(seed, *tags)
        reference = np.random.Generator(np.random.Philox(key=key)).random(start + count)[start:]
        assert np.array_equal(uniforms(seed, tags, count, start=start), reference)
        stored = np.random.Philox(key=key).state["state"]["key"]
        rounded += [int(word) for word in stored] != key
        unaligned += start % 4 != 0
    assert rounded > 400 and unaligned > 600


def test_threads_draw_their_streams_independently():
    # every thread re-keys its own generator, so streams drawn on 4 threads
    # at once, switching every microsecond, equal the same streams drawn alone
    streams = [(seed, ("t", i), 50 + i, i % 7) for i in range(40) for seed in (1, 2**63 + 5)]
    alone = [uniforms(*s) for s in streams]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(lambda: [uniforms(*s) for s in streams]) for _ in range(4)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for drawn in results:
        assert all(np.array_equal(a, b) for a, b in zip(alone, drawn))


@pytest.mark.parametrize("count, start", [(-1, 0), (1, -1)])
def test_uniforms_reject_a_negative_count_or_start(count, start):
    with pytest.raises(ValueError, match="must be non-negative"):
        uniforms(42, ("x",), count, start=start)


def test_pure_philox_draws_numpy_generators_values():
    # verify draws its random pipelines from PhiloxStream, so it must store
    # each key as numpy does, rounded through float64 for about half of all
    # keys, and draw numpy's values at every bound: no draw for one value,
    # 32-bit Lemire draws from buffered half-words (the leftover half outlives
    # the random() calls in between), the rejection loop (a span of 2**31 + 1
    # rejects about half of all draws), 2**32 exactly, and 64-bit Lemire draws
    spans = (1, 2, 7, 100, 2**31 + 1, 2**32, 2**32 + 1, 2**62 + 1, 2**63 - 1, 2**64)
    rounded = 0
    for i in range(2000):
        key = stream_key(i, "verify")
        ours, theirs = PhiloxStream(key), np.random.Generator(np.random.Philox(key=key))
        stored = tuple(int(word) for word in theirs.bit_generator.state["state"]["key"])
        assert ours.key == stored
        rounded += stored != tuple(key)
        for j in range(len(spans)):
            span = spans[(i + j) % len(spans)]
            low = 1 if span < 2**63 else -2**63
            assert ours.integers(low, low + span) == theirs.integers(low, low + span)
            if (i + j) % 3 == 0:
                assert ours.random() == theirs.random()
    assert 900 < rounded < 1100


@pytest.mark.parametrize("low, high", [(0, 0), (1, 0), (0, 2**64 + 1)])
def test_pure_philox_rejects_an_empty_or_too_wide_range(low, high):
    with pytest.raises(ValueError, match="high - low must be in"):
        PhiloxStream([1, 2]).integers(low, high)


@pytest.mark.parametrize("m, seed, message", [
    (0, 42, "m must be >= 1, got 0"),
    (1, 2**64, "seed must fit in 64 bits"),
])
def test_sim_config_rejects_out_of_range_settings(m, seed, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(m=m, seed=seed)


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


def assert_never_grows(counts):
    """Positive and accepted counts never grow along a chain's prefixes."""
    pos = [c[2] + c[3] for c in counts]
    acc = [c[1] + c[3] for c in counts]
    assert all(b <= a for a, b in zip(pos, pos[1:]))
    assert all(b <= a for a, b in zip(acc, acc[1:]))


def test_decision_and_truth_chains_are_absorbing():
    # on a chain, whole-taxonomy prefix pipelines share truth and decisions,
    # so their counts are the per-depth tallies of the deepest one
    rng = np.random.default_rng(79)
    names = [f"n{i}" for i in range(6)]
    taxonomy = pf.validate_taxonomy(
        names, [pf.Edge(c, p, float(rng.random())) for p, c in zip(names, names[1:])]
    )
    profiles = pf.ClassifierProfileSet(base={c: random_gamma(rng) for c in names[1:]},
                                       root=names[0])
    res = pf.simulate_taxonomy(taxonomy, profiles, SimConfig(m=20_000, seed=11))
    assert_never_grows([out.counts for out in res.per_pipeline.values()])


def test_sim_outcome_counts_must_sum_to_m():
    with pytest.raises(ValueError):
        pf.SimOutcome(pipeline="A", m=10, counts=(1, 2, 3, 5))


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
    t, _ = dag_sim_inputs
    memberships = pf.taxonomy_memberships(t, SimConfig(m=20_000, seed=5))
    for c in t.categories:
        ancestors, _, _ = pf.relative_sets(t, c)
        for a in ancestors:
            assert np.all(memberships[c] <= memberships[a])
    for i in range(100):
        ls = frozenset(c for c, member in memberships.items() if member[i])
        ok, missing = pf.check_label_consistency(t, ls)
        assert ok and not missing


def golden_bundle():
    return pf.parse_inputs((GOLDEN / "taxonomy.json").read_text(),
                           (GOLDEN / "profiles.json").read_text())


def four_ary_tree(depth, f=lambda i: 0.7):
    """The full 4-ary tree of ``depth`` levels below c0, every classifier GAMMA_B;
    the edge into c<i> has probability ``f(i)``."""
    n = (4 ** (depth + 1) - 1) // 3
    names = [f"c{i}" for i in range(n)]
    t = pf.validate_taxonomy(names, [Edge(names[i], names[(i - 1) // 4], f(i))
                                     for i in range(1, n)])
    return t, ClassifierProfileSet(base={c: GAMMA_B for c in names[1:]}, root=names[0])


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("inputs", ["golden", "tree"])
def test_tallies_count_the_regenerated_truth(inputs, seed):
    if inputs == "golden":
        bundle = golden_bundle()
        t, profiles = bundle.taxonomy, bundle.profiles
    else:
        t, profiles = four_ary_tree(2, lambda i: 0.2 + 0.03 * i)
    cfg = SimConfig(m=5_000, seed=seed)
    res = pf.simulate_taxonomy(t, profiles, cfg)
    memberships = pf.taxonomy_memberships(t, cfg)
    for p in pf.enumerate_pipelines(t):
        _, _, fn, tp = res.per_pipeline[p.path].counts
        assert fn + tp == np.count_nonzero(memberships[p.nodes[-1]]), p.path


def test_simulation_runs_pair_with_their_own_models():
    bundle = golden_bundle()
    t, profiles = bundle.taxonomy, bundle.profiles
    m, seed = 2_000, 7
    sim = pf.run_simulation(t, profiles, m, seed, 3, 4.0)
    assert len(sim.runs) == 3 * len(pf.enumerate_pipelines(t))
    for r in range(3):
        expected = pf.simulate_taxonomy(t, profiles, SimConfig(m, seed + r))
        runs = [run for run in sim.runs if run.replication == r]
        assert [run.outcome.pipeline for run in runs] == list(expected.per_pipeline)
        for run in runs:
            path = run.outcome.pipeline
            assert run.model == expected.models[path]
            assert run.outcome.counts == expected.per_pipeline[path].counts


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


@given(bundles_with_overrides())
@example(golden_bundle())
@settings(max_examples=150, deadline=None)
def test_taxonomy_models_are_omega_closed(bundle):
    try:
        assert_simulated_models_are_omega_closed(bundle)
    except pf.OutOfRangeProbabilityError:
        assume(False)  # edge probabilities that no membership coins realize


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
    assert_never_grows([res.per_pipeline[p.path].counts for p in pipelines])


def traced_simulation(m):
    """(current, peak) bytes traced across simulating the full 4-ary tree of
    depth 4 (341 nodes) at ``m``, current taken while the result is held."""
    t, profiles = four_ary_tree(4)
    pf.simulate_taxonomy(t, profiles, SimConfig(m=16, seed=0))  # warm-up
    tracemalloc.start()
    try:
        res = pf.simulate_taxonomy(t, profiles, SimConfig(m=m, seed=0))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.per_pipeline) == 341
    return current, peak


def test_taxonomy_holds_only_the_live_path():
    # a finished subtree's decision arrays are freed, so the peak is the
    # memberships (N*m bytes) plus about depth+1 decision arrays, not 2*N*m
    n, m = 341, 50_000
    _, peak = traced_simulation(m)
    assert peak < 1.6 * n * m


def test_taxonomy_result_holds_no_draws():
    # the memberships (N*m bytes) are gone once the walk returns; the
    # result holds tallies and models only
    n, m = 341, 50_000
    current, _ = traced_simulation(m)
    assert current < 0.05 * n * m


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
    cfg = SimConfig(m=100_000, seed=3)
    res = pf.simulate_taxonomy(t, profiles, cfg)
    for path, outcome in res.per_pipeline.items():
        assert pf.compare(res.models[path], outcome).passed, path
    memberships = pf.taxonomy_memberships(t, cfg)
    for c in t.categories:
        ancestors, _, _ = pf.relative_sets(t, c)
        for a in ancestors:
            assert np.all(memberships[c] <= memberships[a])


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


#: X's coin divides out six coins outside P1's closure, whose product rounds
#: differently in different orders
_COIN_SCRIPT = """
from pfmodel import Edge, validate_taxonomy
from pfmodel.simulate import _coin_probability
chain = ["R", "A1", "A2", "A3", "A4", "A5", "P2"]
edges = [Edge(c, p, f) for p, c, f in zip(chain, chain[1:], (0.91, 0.87, 0.93, 0.89, 0.97, 0.83))]
edges += [Edge("P1", "R", 0.9), Edge("X", "P1", 0.0123456789), Edge("X", "P2", 0.5)]
t = validate_taxonomy([*chain, "P1", "X"], edges)
q_of = {t.root: 1.0}
for node in t.topological_order[1:]:
    q_of[node] = _coin_probability(t, node, q_of)
print(repr(q_of))
"""


def test_dag_coins_do_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pf.__file__)))
    coins = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _COIN_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        coins.append(proc.stdout)
    assert coins[0] == coins[1]


@pytest.mark.parametrize("inputs, closure_built", [
    ("chain", False),
    ("tree", False),
    ("golden", True),
], ids=["chain", "tree", "golden-dag"])
def test_only_a_dag_builds_the_ancestor_closure(inputs, closure_built):
    # a node with one parent takes its edge's f as its coin
    if inputs == "chain":
        bundle = pf.parse_inputs(*chain_json(300))
        t, profiles = bundle.taxonomy, bundle.profiles
    elif inputs == "tree":
        t, profiles = four_ary_tree(3)
    else:
        bundle = golden_bundle()
        t, profiles = bundle.taxonomy, bundle.profiles
    pf.simulate_taxonomy(t, profiles, SimConfig(m=16, seed=0))
    assert ("_ancestors" in t.__dict__) == closure_built


# --- verify -------------------------------------------------------------------------


def chain_dicts(n):
    """The taxonomy and profiles of ``chain_json(n)`` as dicts, to edit."""
    return [json.loads(text) for text in chain_json(n)]


def chain_path(k):
    return "/".join(f"c{i}" for i in range(k + 1))


def count_steps(monkeypatch):
    """Every ``omega_step`` call from here on, in verify's own steps and in
    ``omega_recursive``'s folds alike."""
    calls = []
    step = model.omega_step

    def counting(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(model, "omega_step", counting)
    monkeypatch.setattr(oracles, "omega_step", counting)
    return calls


def test_verify_steps_each_chain_prefix_once(monkeypatch):
    depth = 400
    bundle = pf.parse_inputs(*chain_json(depth + 1))
    calls = count_steps(monkeypatch)
    pf.verify_oracles(bundle.taxonomy, bundle.profiles, 1e-12, 6, 0, 42)
    assert len(calls) == depth  # folding each from the root took 80,200


def test_verify_converts_each_f_chain_once_per_pipeline(monkeypatch):
    # each pipeline extends its parent's f chain by its last edge's f, so
    # every f is converted once; the closed form converted each pipeline's
    # whole chain, 45,451 values here
    depth = 300
    bundle = pf.parse_inputs(*chain_json(depth + 1))
    converted = []
    require_fs = pf.Pipeline.require_fs

    def counting(p, *start):
        fs = require_fs(p, *start)
        converted.append((p.depth, len(fs)))
        return fs

    monkeypatch.setattr(pf.Pipeline, "require_fs", counting)
    pf.verify_oracles(bundle.taxonomy, bundle.profiles, 1e-12, 0, 0, 42)
    # the root's f_0 twice: for the walk, and in omega_recursive's fold
    assert converted == [(0, 1), (0, 1), *((k, 1) for k in range(1, depth + 1))]


def test_report_converts_each_f_once(monkeypatch):
    # a pipeline folded on from its parent converts the f of its one new
    # step; converting its whole chain took n(n+1)/2 = 80,200 values here
    n = 400
    bundle = pf.parse_inputs(*chain_json(n))
    converted = []
    require_fs = pf.Pipeline.require_fs

    def counting(p, *start):
        fs = require_fs(p, *start)
        converted.append(len(fs))
        return fs

    monkeypatch.setattr(pf.Pipeline, "require_fs", counting)
    pf.io.build_report(bundle)
    # none for the root, whose f_0 is 1 by definition, and one per other pipeline
    assert sum(converted) == n - 1


def test_verify_steps_every_pipeline_of_the_golden_dag_but_the_root(monkeypatch):
    bundle = golden_bundle()
    calls = count_steps(monkeypatch)
    folded = []
    recursive = oracles.omega_recursive
    monkeypatch.setattr(oracles, "omega_recursive",
                        lambda p, profiles: folded.append(p.path) or recursive(p, profiles))
    pf.verify_oracles(bundle.taxonomy, bundle.profiles, 1e-12, 6, 0, 42)
    # the overridden pipelines (A/B/D, A/C/D) and their extensions take one
    # step from their parents, as the other pipelines do
    assert folded == ["A"]
    assert len(calls) == 7


def chain_with_override():
    """A 40-deep chain whose prefix c0/../c10 overrides c10's classifier."""
    taxonomy, profiles = chain_dicts(41)
    profiles["overrides"] = [{"pipeline": chain_path(10), "category": "c10",
                              "tn": 0.6, "fp": 0.4, "fn": 0.1, "tp": 0.9}]
    return pf.parse_inputs(json.dumps(taxonomy), json.dumps(profiles))


def assert_verify_discrepancies_are_those_of_omega_recursive(bundle, max_len):
    # verify extends each pipeline's chains and histories from its parent's;
    # every check must be that of the oracles evaluated on the pipeline alone
    t, profiles = bundle.taxonomy, bundle.profiles
    got = {(c.pipeline.path, c.check): c.discrepancy
           for c in pf.verify_oracles(t, profiles, 1e-12, max_len, 0, 42).checks}
    pipelines = pf.enumerate_pipelines(t)
    for p in pipelines:
        recursive = pf.omega_recursive(p, profiles)
        closed = pf.omega_closed(p, profiles)
        assert got[p.path, "closed_vs_recursive"] == closed.max_abs_diff(recursive), p.path
        assert got[p.path, "mass_sums_to_one"] == abs(recursive.total - 1.0), p.path
        if p.depth <= max_len:
            exact = pf.enumerate_exact(p, profiles)
            assert got[p.path, "exact_vs_recursive"] == exact.max_abs_diff(recursive), p.path
            assert got[p.path, "exact_vs_closed"] == exact.max_abs_diff(closed), p.path
    shallow = sum(p.depth <= max_len for p in pipelines)
    assert len(got) == 2 * len(pipelines) + 2 * shallow


@pytest.mark.parametrize("make_bundle", [golden_bundle, chain_with_override],
                         ids=lambda f: f.__name__)
def test_verify_discrepancies_are_those_of_omega_recursive(make_bundle):
    bundle = make_bundle()
    for max_len in (2, 6, 40):  # the chain overrides its step 10
        assert_verify_discrepancies_are_those_of_omega_recursive(bundle, max_len)


@given(bundles_with_overrides(), st.integers(-1, 6))
@settings(max_examples=150, deadline=None)
def test_verify_discrepancies_are_those_of_omega_recursive_with_random_overrides(bundle, max_len):
    assert_verify_discrepancies_are_those_of_omega_recursive(bundle, max_len)


def test_verify_extends_the_histories_of_each_prefix_once(monkeypatch):
    depth = 300
    bundle = pf.parse_inputs(*chain_json(depth + 1))
    extended = []
    extend = oracles._extend
    monkeypatch.setattr(oracles, "_extend",
                        lambda *args: extended.append(args[0]) or extend(*args))
    verification = pf.verify_oracles(bundle.taxonomy, bundle.profiles, 1e-12, depth, 0, 42)
    assert len(extended) == depth  # enumerating each from the root took 45,150
    assert sum(c.check == "exact_vs_closed" for c in verification.checks) == depth + 1


@pytest.mark.parametrize("k", [1, 7, 30])
def test_verify_raises_where_an_edge_lacks_f(k):
    taxonomy, profiles = chain_dicts(41)
    del taxonomy["edges"][k - 1]["f"]  # the edge into c<k>
    bundle = pf.parse_inputs(json.dumps(taxonomy), json.dumps(profiles))
    first = pf.find_pipeline(bundle.taxonomy, chain_path(k))
    with pytest.raises(pf.MissingEdgeProbabilityError) as want:
        pf.omega_recursive(first, bundle.profiles)
    with pytest.raises(pf.MissingEdgeProbabilityError) as got:
        pf.verify_oracles(bundle.taxonomy, bundle.profiles, 1e-12, 6, 0, 42)
    assert str(got.value) == str(want.value) == f"pipeline {first.path}: edge into 'c{k}' has no f"
    assert got.traceback[-1].name == "require_fs"


@pytest.mark.parametrize("k", [1, 7, 30])
def test_verify_raises_where_a_category_lacks_its_profile(k):
    bundle = pf.parse_inputs(*chain_json(41))
    profiles = ClassifierProfileSet(
        base={c: g for c, g in bundle.profiles.base.items() if c != f"c{k}"}, root="c0")
    first = pf.find_pipeline(bundle.taxonomy, chain_path(k))
    with pytest.raises(pf.MissingGammaError) as want:
        pf.omega_recursive(first, profiles)
    with pytest.raises(pf.MissingGammaError) as got:
        pf.verify_oracles(bundle.taxonomy, profiles, 1e-12, 6, 0, 42)
    assert str(got.value) == str(want.value) == f"no confusion profile for category 'c{k}'"
    assert [entry.name for entry in got.traceback[-2:]] == ["resolve", "resolve_category"]


# --- deviation report ---------------------------------------------------------------


def test_compare_exact_counts_zero_z():
    model = pf.JointMatrix(tn=0.4, fp=0.1, fn=0.05, tp=0.45)
    report = pf.compare(model, pf.SimOutcome("x", 100, (40, 10, 5, 45)))
    assert report.max_z == 0.0 and report.passed


def test_compare_flags_ten_sigma_cell():
    # m=1600, p=0.2 gives sigma exactly 0.01; shift 160 counts = 10 sigma
    model = pf.JointMatrix(tn=0.2, fp=0.2, fn=0.2, tp=0.4)
    report = pf.compare(model, pf.SimOutcome("x", 1600, (480, 320, 320, 480)))
    assert report.max_z == pytest.approx(10.0, abs=1e-9)
    assert not report.passed


def test_compare_zero_variance_cells():
    model = pf.JointMatrix(tn=0.0, fp=0.0, fn=0.0, tp=1.0)
    assert pf.compare(model, pf.SimOutcome("x", 100, (0, 0, 0, 100))).max_z == 0.0
    assert pf.compare(model, pf.SimOutcome("x", 100, (1, 0, 0, 99))).max_z == math.inf


def test_compare_subnormal_prediction_has_nonzero_sigma():
    # 5e-324 * (1 - 5e-324) / 16 underflows to 0; the cell's sigma must not
    tiny = 5e-324
    model = pf.JointMatrix(tn=1.0 - 0.5 - tiny, fp=tiny, fn=0.0, tp=0.5)
    report = pf.compare(model, pf.SimOutcome("x", 16, (8, 0, 0, 8)))
    assert report.cells[1].sigma > 0.0
    assert report.max_z < 1.0 and report.passed
    report = pf.compare(model, pf.SimOutcome("x", 16, (7, 1, 0, 8)))
    assert math.isfinite(report.max_z) and not report.passed


def test_report_verdict_follows_its_threshold():
    # max_z and passed are read from cells and threshold, so a report copied
    # with another threshold cannot keep a stale verdict
    model = pf.JointMatrix(tn=0.2, fp=0.2, fn=0.2, tp=0.4)
    report = pf.compare(model, pf.SimOutcome("x", 1600, (480, 320, 320, 480)), z_threshold=20.0)
    assert report.max_z > 0.0 and report.passed
    assert not report._replace(threshold=report.max_z / 2).passed


@pytest.mark.parametrize("cells, counts, outside", [
    ((-1.1102230246251565e-16, 0.0, 0.5, 0.5 + 1.1102230246251565e-16), (0, 0, 50, 50), 0),
    ((0.0, 0.0, -2.220446049250313e-16, 1.0 + 2.220446049250313e-16), (0, 0, 0, 100), 3),
], ids=["below-0", "above-1"])
def test_compare_scores_a_rounded_prediction_clamped(cells, counts, outside):
    # the closed form can round a cell just outside [0, 1]; sqrt(p (1-p) / m)
    # of such a cell is the square root of a negative number
    report = pf.compare(pf.JointMatrix(*cells), pf.SimOutcome("x", 100, counts))
    assert report.cells[outside].z == 0.0
    assert report.passed


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
    result = pf.imbalance_sweep(p, profiles, 0.1, 50, seed=42)
    assert len(result.rows) == 50
    recalls = {round(r.report.recall, 15) for r in result.rows}
    assert len(recalls) == 1  # distribution-independent
    for row in result.rows:
        assert math.prod(row.fs[1:]) == pytest.approx(0.1, rel=1e-9)
        assert all(0.0 < f <= 1.0 for f in row.fs[1:])
    precisions = [r.report.precision for r in result.rows]
    assert max(precisions) - min(precisions) > 1e-3


def test_sweep_resolves_the_classifier_chain_once(l2_pipeline, monkeypatch):
    p, profiles = l2_pipeline
    resolve = ClassifierProfileSet.resolve
    calls = []

    def counting_resolve(self, pipeline, k):
        calls.append(k)
        return resolve(self, pipeline, k)

    monkeypatch.setattr(ClassifierProfileSet, "resolve", counting_resolve)
    pf.imbalance_sweep(p, profiles, 0.1, 50, seed=42)
    assert len(calls) == p.depth


def test_sweep_single_trivial_row(l2_pipeline):
    p, profiles = l2_pipeline
    result = pf.imbalance_sweep(p, profiles, 0.25, 1, seed=0)
    assert len(result.rows) == 1
    spread = {s.metric: s for s in result.spreads}
    assert spread["precision"].minimum == spread["precision"].maximum


def test_sweep_mean_sums_left_to_right():
    # a compensated sum (math.fsum, or sum from Python 3.12 on) gives 1.0
    # here, so the mean would differ by Python version
    assert simulate._mean([0.1] * 10) == 0.9999999999999999 / 10


def test_sweep_is_deterministic(l2_pipeline):
    p, profiles = l2_pipeline
    a = pf.imbalance_sweep(p, profiles, 0.1, 10, seed=9)
    b = pf.imbalance_sweep(p, profiles, 0.1, 10, seed=9)
    assert a == b
    # a SimConfig in place of the seed still contributes its seed
    assert pf.imbalance_sweep(p, profiles, 0.1, 10, SimConfig(m=1, seed=9)) == a


def test_sweep_infeasible_inputs(l2_pipeline):
    p, profiles = l2_pipeline
    with pytest.raises(pf.InfeasibleTargetError):
        pf.imbalance_sweep(p, profiles, 1.5, 10, seed=0)
    with pytest.raises(pf.InfeasibleTargetError):
        pf.imbalance_sweep(p, profiles, 0.1, 0, seed=0)
    short = Pipeline(("A", "B"), (1.0, 0.5))
    short_profiles = ClassifierProfileSet(base={"B": GAMMA_B}, root="A")
    with pytest.raises(pf.InfeasibleTargetError):
        pf.imbalance_sweep(short, short_profiles, 0.1, 10, seed=0)


#: a classifier that accepts everything: with it at every step,
#: (1 - F) - w01 can round to just below 0, which the closed form clamps
ACCEPT_ALL = NormalizedConfusionMatrix(tn=0.0, fp=1.0, fn=0.0, tp=1.0)


def _bits(values):
    """The exact bits of each float, -0.0 told apart from 0.0."""
    return [float.hex(v) for v in values]


def _per_row_sweep(p, profiles, target, n, seed):
    """Each sweep row's fs and cells, one Dirichlet draw and one scalar
    closed form per row: the sweep as it was before it drew and evaluated
    all its rows at once."""
    rng = np.random.Generator(np.random.Philox(key=stream_key(seed, "sweep", p.path)))
    gammas = profiles.gamma_chain(p)
    rows = []
    for _ in range(n):
        weights = rng.dirichlet(np.ones(p.depth))
        fs = (1.0,) + tuple(float(target**w) for w in weights)
        rows.append((_bits(fs), _bits(model._closed_form(fs, gammas))))
    return rows


def _assert_sweep_is_the_per_row_loop(p, profiles, target, n, seed):
    result = pf.imbalance_sweep(p, profiles, target, n, seed=seed)
    assert [(_bits(r.fs), _bits(r.omega.as_tuple())) for r in result.rows] == \
        _per_row_sweep(p, profiles, target, n, seed)
    return result


@given(depth=st.integers(2, 40), n=st.integers(1, 50), target=st.floats(1e-300, 0.99),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_sweep_is_bit_for_bit_the_per_row_loop(depth, n, target, seed):
    p, profiles = random_pipeline(np.random.default_rng(seed), depth)
    _assert_sweep_is_the_per_row_loop(p, profiles, target, n, seed)


def test_sweep_clamps_each_accept_all_row_as_the_per_row_loop():
    p = Pipeline(("A", "B", "C"), (1.0, 0.1, 0.5))
    profiles = ClassifierProfileSet(base={"B": ACCEPT_ALL, "C": ACCEPT_ALL}, root="A")
    result = _assert_sweep_is_the_per_row_loop(p, profiles, 0.1, 50, seed=0)
    tns = [r.omega.tn for r in result.rows]
    assert 0.0 in tns  # some row's tn rounded below 0 and was clamped
    assert all(math.copysign(1.0, tn) == 1.0 for tn in tns)


@given(depth=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), accept_all=st.booleans())
@settings(max_examples=60, deadline=None)
def test_closed_form_of_one_row_columns_is_its_float_call(depth, seed, accept_all):
    rng = np.random.default_rng(seed)
    p, profiles = random_pipeline(rng, depth)
    gammas = [ACCEPT_ALL] * depth if accept_all else profiles.gamma_chain(p)
    columns = model._closed_form([np.array([f]) for f in p.fs], gammas)
    assert _bits([c.item() for c in columns]) == _bits(model._closed_form(p.fs, gammas))
