"""Taxonomic metrics and the per-step precision/recall constraints."""

from __future__ import annotations

import numpy as np
import pytest

import pfmodel as pf
from pfmodel import ClassifierProfileSet, JointMatrix, Pipeline, Verdict

from conftest import GAMMA_A, random_gamma, random_pipeline


def test_metrics_hand_arithmetic():
    report = pf.pipeline_metrics(JointMatrix(tn=0.40, fp=0.10, fn=0.05, tp=0.45))
    assert report.precision == pytest.approx(9 / 11, abs=1e-12)
    assert report.recall == pytest.approx(9 / 10, abs=1e-12)
    assert report.f1 == pytest.approx(6 / 7, abs=1e-12)
    assert report.accuracy == pytest.approx(0.85, abs=1e-12)


def test_metrics_perfect_pipeline():
    report = pf.pipeline_metrics(JointMatrix(tn=0.6, fp=0.0, fn=0.0, tp=0.4))
    assert report.precision == report.recall == report.f1 == report.accuracy == 1.0


def test_recall_equals_intrinsic_tp_product(l2_pipeline):
    p, profiles = l2_pipeline
    omega = pf.omega_recursive(p, profiles)
    report = pf.pipeline_metrics(omega)
    assert report.recall == pytest.approx(0.64, abs=1e-12)
    assert report.recall == pytest.approx(pf.psi(p, profiles).tp, abs=1e-12)


def test_precision_undefined_flagged():
    report = pf.pipeline_metrics(JointMatrix(tn=0.6, fp=0.0, fn=0.4, tp=0.0))
    assert report.precision is None
    assert report.f1 is None
    assert report.recall == 0.0
    assert pf.io._metric_flags(report) == ("precision_undefined",)


def test_recall_undefined_flagged():
    # a zero edge probability empties the positive prior entirely
    report = pf.pipeline_metrics(JointMatrix(tn=0.9, fp=0.1, fn=0.0, tp=0.0))
    assert report.recall is None
    assert report.f1 is None
    assert pf.io._metric_flags(report) == ("recall_undefined",)


def test_f1_degenerate_zero():
    report = pf.pipeline_metrics(JointMatrix(tn=0.5, fp=0.1, fn=0.4, tp=0.0))
    assert report.precision == 0.0 and report.recall == 0.0
    assert report.f1 == 0.0
    assert pf.io._metric_flags(report) == ("f1_degenerate",)


def test_f1_between_precision_and_recall():
    rng = np.random.default_rng(43)
    for _ in range(200):
        p, profiles = random_pipeline(rng, int(rng.integers(1, 8)))
        rep = pf.pipeline_metrics(pf.omega_recursive(p, profiles))
        if rep.precision is None or rep.recall is None or 0.0 in (rep.precision, rep.recall):
            continue
        lo, hi = sorted((rep.precision, rep.recall))
        assert lo - 1e-12 <= rep.f1 <= hi + 1e-12


def test_accuracy_is_trace_and_factorized_form():
    rng = np.random.default_rng(47)
    for _ in range(200):
        p, profiles = random_pipeline(rng, int(rng.integers(1, 10)))
        omega = pf.omega_recursive(p, profiles)
        rep = pf.pipeline_metrics(omega)
        assert rep.accuracy == pytest.approx(omega.tn + omega.tp, abs=1e-15)
        fact = pf.factorize(p, profiles)
        assert fact.eta is not None
        predicted = fact.prior_neg * (1.0 - fact.eta * pf.psi(p, profiles).fp) \
            + fact.prior_pos * pf.psi(p, profiles).tp
        assert rep.accuracy == pytest.approx(predicted, abs=1e-12)


# --- precision constraint ------------------------------------------------------------


def test_constraint_bound_l2_fixture(l2_pipeline):
    p, profiles = l2_pipeline
    dp = pf.depth_profile(p, profiles)
    check = dp.rows[2].check
    # leak 0.2 -> 3.4, bound (0.2 / 3.4) * 0.5 * 0.8
    assert check.bound == pytest.approx(0.2 / 3.4 * 0.4, abs=1e-12)
    assert check.verdict is Verdict.DECREASING  # fp-rate 0.1 > bound
    # and the verdict matches the actual precision drop 0.9697 -> 0.8828
    assert dp.rows[1].metrics.precision == pytest.approx(0.64 / 0.66, abs=1e-12)
    assert dp.rows[2].metrics.precision == pytest.approx(0.256 / 0.290, abs=1e-12)
    assert dp.rows[2].metrics.precision < dp.rows[1].metrics.precision


def test_constraint_zero_fp_never_decreases():
    gamma = pf.NormalizedConfusionMatrix(tn=1.0, fp=0.0, fn=0.2, tp=0.8)
    p = Pipeline(("A", "B", "C"), (1.0, 0.8, 0.5))
    profiles = ClassifierProfileSet(base={"B": GAMMA_A, "C": gamma}, root="A")
    check = pf.depth_profile(p, profiles).rows[2].check
    assert check.verdict is Verdict.NON_DECREASING


def test_leak_strictly_grows():
    rng = np.random.default_rng(53)
    for _ in range(100):
        state = pf.PrefixState.initial()
        depth = int(rng.integers(2, 10))
        for _ in range(depth):
            f = float(rng.uniform(0.05, 0.95))
            g = random_gamma(rng)
            new = state.advance(f, g)
            if state.psi01 > 0.0 and state.psi11 > 0.0:
                assert new.leak > state.leak
            state = new


def test_degenerate_bound_all_f_one():
    p = Pipeline(("A", "B", "C"), (1.0, 1.0, 1.0))
    profiles = ClassifierProfileSet(base={"B": GAMMA_A, "C": GAMMA_A}, root="A")
    dp = pf.depth_profile(p, profiles)
    assert dp.rows[1].omega.fp == 0.0 and dp.state.leak == 0.0
    assert [row.check for row in dp.rows] == [None, None, None]


def test_verdict_matches_precision_sign():
    rng = np.random.default_rng(59)
    checked = 0
    for _ in range(1000):
        depth = int(rng.integers(2, 8))
        p, profiles = random_pipeline(rng, depth)
        dp = pf.depth_profile(p, profiles)
        for before, row in zip(dp.rows, dp.rows[1:]):
            prev = before.metrics.precision
            cur = row.metrics.precision
            if row.check is None or prev is None or cur is None:
                continue
            delta = cur - prev
            expected = Verdict.NON_DECREASING if delta >= -1e-12 else Verdict.DECREASING
            assert row.check.verdict is expected
            checked += 1
        if checked >= 1000:
            break
    assert checked >= 1000


# --- depth profile ---------------------------------------------------------------------


def test_depth_profile_recall_chain(l2_pipeline):
    p, profiles = l2_pipeline
    dp = pf.depth_profile(p, profiles)
    recalls = [row.metrics.recall for row in dp.rows]
    assert recalls == pytest.approx([1.0, 0.8, 0.64], abs=1e-12)


def test_depth_profile_root_metrics_are_one(l2_pipeline):
    p, profiles = l2_pipeline
    root_report = pf.depth_profile(p, profiles).rows[0].metrics
    assert root_report.precision == root_report.recall == root_report.f1 == 1.0
    assert root_report.accuracy == 1.0


def test_depth_profile_constant_recall_with_perfect_tp():
    keep_all = pf.NormalizedConfusionMatrix(tn=0.7, fp=0.3, fn=0.0, tp=1.0)
    p = Pipeline(("A", "B", "C"), (1.0, 0.8, 0.5))
    profiles = ClassifierProfileSet(base={"B": keep_all, "C": keep_all}, root="A")
    dp = pf.depth_profile(p, profiles)
    assert [row.metrics.recall for row in dp.rows] == [1.0, 1.0, 1.0]


def test_depth_profile_recall_monotone_random():
    rng = np.random.default_rng(61)
    for _ in range(100):
        p, profiles = random_pipeline(rng, int(rng.integers(1, 12)))
        dp = pf.depth_profile(p, profiles)
        recalls = [row.metrics.recall for row in dp.rows]
        assert all(r is not None for r in recalls)
        for a, b in zip(recalls, recalls[1:]):
            assert b <= a + 1e-12
        for k, g in enumerate(profiles.gamma_chain(p), start=1):
            if g.tp < 1.0 - 1e-12 and recalls[k - 1] > 1e-12:
                assert recalls[k] < recalls[k - 1]


def test_depth_profile_marks_degenerate_steps():
    p = Pipeline(("A", "B", "C"), (1.0, 1.0, 0.5))
    profiles = ClassifierProfileSet(base={"B": GAMMA_A, "C": GAMMA_A}, root="A")
    dp = pf.depth_profile(p, profiles)
    assert dp.rows[1].check is None  # f_1 = 1: no leaked mass yet
    assert dp.rows[2].check is not None


def test_depth_profile_recall_equals_product_everywhere():
    rng = np.random.default_rng(67)
    for _ in range(100):
        p, profiles = random_pipeline(rng, int(rng.integers(1, 10)))
        dp = pf.depth_profile(p, profiles)
        product = 1.0
        for k, g in enumerate(profiles.gamma_chain(p), start=1):
            product *= g.tp
            assert dp.rows[k].metrics.recall == pytest.approx(product, abs=1e-12)
