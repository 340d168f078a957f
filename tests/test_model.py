"""Matrix algebra: composition operator, joint-mass recurrences, factorization."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfmodel as pf
from pfmodel import MU, OMEGA_BASE, ClassifierProfileSet, NormalizedConfusionMatrix, Pipeline

from conftest import GAMMA_A, GAMMA_B, random_gamma, random_pipeline

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def gammas(draw_fp, draw_tp):
    return NormalizedConfusionMatrix(tn=1.0 - draw_fp, fp=draw_fp, fn=1.0 - draw_tp, tp=draw_tp)


gamma_st = st.builds(gammas, unit, unit)


# --- matrix types ---------------------------------------------------------------


def test_gamma_rejects_unnormalized_rows():
    with pytest.raises(pf.OutOfRangeProbabilityError):
        NormalizedConfusionMatrix(tn=0.9, fp=0.2, fn=0.2, tp=0.8)


def test_gamma_rejects_out_of_range():
    with pytest.raises(pf.OutOfRangeProbabilityError):
        NormalizedConfusionMatrix(tn=-0.1, fp=1.1, fn=0.2, tp=0.8)


def test_gamma_rejects_non_finite_cell():
    with pytest.raises(pf.OutOfRangeProbabilityError, match=r"^tn=nan is not a finite number$"):
        NormalizedConfusionMatrix(tn=math.nan, fp=0.0, fn=0.0, tp=1.0)


def test_joint_requires_unit_mass():
    with pytest.raises(pf.OutOfRangeProbabilityError):
        pf.JointMatrix(tn=0.5, fp=0.5, fn=0.5, tp=0.5)


# --- oplus ------------------------------------------------------------------------


def test_oplus_hand_example():
    got = pf.oplus(GAMMA_A, GAMMA_B)
    assert got.as_tuple() == pytest.approx((0.98, 0.02, 0.28, 0.72), abs=1e-15)


def test_mu_is_two_sided_identity():
    for alpha in (GAMMA_A, GAMMA_B):
        assert pf.oplus(alpha, MU) == alpha
        assert pf.oplus(MU, alpha) == alpha


@given(gamma_st, gamma_st)
@settings(max_examples=200, deadline=None)
def test_oplus_closure(a, b):
    out = pf.oplus(a, b)
    assert abs(out.tn + out.fp - 1.0) <= 1e-12
    assert abs(out.fn + out.tp - 1.0) <= 1e-12


@given(gamma_st, gamma_st, gamma_st)
@settings(max_examples=200, deadline=None)
def test_oplus_associative(a, b, c):
    left = pf.oplus(pf.oplus(a, b), c)
    right = pf.oplus(a, pf.oplus(b, c))
    assert left.max_abs_diff(right) <= 1e-12


# --- context switching --------------------------------------------------------------


def test_context_switch_moves_positive_mass():
    chi = pf.context_switch(0.5, OMEGA_BASE)
    assert chi.as_tuple() == (0.0, 0.5, 0.0, 0.5)


def test_context_switch_identity_at_f1():
    omega = pf.JointMatrix(tn=0.4, fp=0.1, fn=0.05, tp=0.45)
    assert pf.context_switch(1.0, omega) == omega


def test_context_switch_degenerate_f0():
    omega = pf.JointMatrix(tn=0.4, fp=0.1, fn=0.05, tp=0.45)
    chi = pf.context_switch(0.0, omega)
    assert chi.fn == 0.0 and chi.tp == 0.0
    assert chi.tn == pytest.approx(0.45) and chi.fp == pytest.approx(0.55)
    assert chi.total == pytest.approx(1.0, abs=1e-15)


def test_context_switch_rejects_f_outside_unit_range():
    with pytest.raises(pf.OutOfRangeProbabilityError, match=r"^f=1.5 outside \[0, 1\]$"):
        pf.context_switch(1.5, OMEGA_BASE)


@given(unit, st.tuples(unit, unit, unit, unit))
@settings(max_examples=200, deadline=None)
def test_context_switch_preserves_mass(f, raw):
    total = sum(raw)
    if total == 0.0:
        return
    cells = tuple(v / total for v in raw)
    omega = pf.JointMatrix(tn=cells[0], fp=cells[1], fn=cells[2], tp=cells[3])
    assert abs(pf.context_switch(f, omega).total - 1.0) <= 1e-12


# --- omega: recurrence and closed form ------------------------------------------------


def test_omega_base_case():
    p = Pipeline(("A",), (1.0,))
    profiles = ClassifierProfileSet(base={}, root="A")
    assert pf.omega_recursive(p, profiles) == OMEGA_BASE
    assert pf.omega_closed(p, profiles) == OMEGA_BASE


def test_step_at_root_is_identity():
    assert pf.omega_step(OMEGA_BASE, 1.0, MU) == OMEGA_BASE


def test_omega_l1_fixture():
    # frozen from the exact event tree: four trajectories summed by hand
    p = Pipeline(("A", "B"), (1.0, 0.5))
    profiles = ClassifierProfileSet(base={"B": GAMMA_B}, root="A")
    expected = (0.40, 0.10, 0.05, 0.45)
    assert pf.omega_recursive(p, profiles).as_tuple() == pytest.approx(expected, abs=1e-12)
    assert pf.omega_closed(p, profiles).as_tuple() == pytest.approx(expected, abs=1e-12)


def test_omega_l2_fixture(l2_pipeline):
    # frozen after cross-checking with the event-tree oracle (test_simulate)
    p, profiles = l2_pipeline
    expected = (0.566, 0.034, 0.144, 0.256)
    assert pf.omega_recursive(p, profiles).as_tuple() == pytest.approx(expected, abs=1e-12)
    assert pf.omega_closed(p, profiles).as_tuple() == pytest.approx(expected, abs=1e-12)


def test_omega_perfect_classifiers():
    perfect = NormalizedConfusionMatrix(tn=1.0, fp=0.0, fn=0.0, tp=1.0)
    p = Pipeline(("A", "B", "C"), (1.0, 1.0, 1.0))
    profiles = ClassifierProfileSet(base={"B": perfect, "C": perfect}, root="A")
    assert pf.omega_closed(p, profiles) == OMEGA_BASE


def test_omega_requires_all_fs():
    p = Pipeline(("A", "B"), (1.0, None))
    profiles = ClassifierProfileSet(base={"B": GAMMA_B}, root="A")
    with pytest.raises(pf.MissingEdgeProbabilityError):
        pf.omega_recursive(p, profiles)


def test_omega_requires_all_gammas():
    p = Pipeline(("A", "B"), (1.0, 0.5))
    profiles = ClassifierProfileSet(base={}, root="A")
    with pytest.raises(pf.MissingGammaError):
        pf.omega_recursive(p, profiles)


@pytest.mark.parametrize("evaluate", [pf.depth_profile, pf.factorize,
                                      pf.omega_recursive, pf.omega_closed])
def test_a_missing_f_is_reported_before_a_missing_profile(evaluate):
    p = Pipeline(("A", "B", "C"), (1.0, 0.5, None))
    profiles = ClassifierProfileSet(base={"C": GAMMA_B}, root="A")
    with pytest.raises(pf.MissingEdgeProbabilityError):
        evaluate(p, profiles)


def test_closed_equals_recursive_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p, profiles = random_pipeline(rng, int(rng.integers(1, 17)))
        rec = pf.omega_recursive(p, profiles)
        clo = pf.omega_closed(p, profiles)
        assert clo.max_abs_diff(rec) <= 1e-12
        assert abs(rec.total - 1.0) <= 1e-12


def test_closed_form_complement_identities():
    rng = np.random.default_rng(13)
    for _ in range(100):
        depth = int(rng.integers(1, 9))
        p, profiles = random_pipeline(rng, depth)
        omega = pf.omega_closed(p, profiles)
        fs = p.require_fs()
        big_f = math.prod(fs[1:])
        assert omega.fn == pytest.approx(big_f - omega.tp, abs=1e-12)
        assert omega.tn == pytest.approx((1.0 - big_f) - omega.fp, abs=1e-12)


def test_accepted_positive_mass_never_grows():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p, profiles = random_pipeline(rng, int(rng.integers(1, 10)))
        fs = p.require_fs()
        omega = OMEGA_BASE
        prev_tp = omega.tp
        for k in range(1, p.depth + 1):
            omega = pf.omega_step(omega, fs[k], profiles.resolve(p, k))
            assert omega.tp <= prev_tp + 1e-15
            prev_tp = omega.tp


# --- profile resolution ----------------------------------------------------------------


def test_override_applies_along_its_path_and_every_extension():
    override = NormalizedConfusionMatrix(tn=0.5, fp=0.5, fn=0.5, tp=0.5)
    profiles = ClassifierProfileSet(
        base={"B": GAMMA_B, "C": GAMMA_B}, overrides={("A/C/B", "B"): override}, root="A"
    )
    assert profiles.resolve(Pipeline(("A", "C", "B"), (1.0, 0.5, 0.5)), 2) == override
    extended = Pipeline(("A", "C", "B", "D"), (1.0, 0.5, 0.5, 0.5))
    assert profiles.resolve(extended, 2) == override
    assert profiles.resolve(Pipeline(("A", "B"), (1.0, 0.5)), 1) == GAMMA_B  # another arrival path
    assert profiles.resolve(extended, 1) == GAMMA_B


def test_override_must_be_keyed_by_the_path_that_ends_at_its_category():
    with pytest.raises(pf.ParseError) as err:
        ClassifierProfileSet(base={"B": GAMMA_B}, overrides={("A/B/C", "B"): GAMMA_B}, root="A")
    assert str(err.value) == "override of 'B' keyed by 'A/B/C', which does not end at it"


def test_root_profile_rejected():
    with pytest.raises(pf.RootProfileForbiddenError):
        ClassifierProfileSet(base={"A": GAMMA_B}, root="A")
    with pytest.raises(pf.RootProfileForbiddenError):
        ClassifierProfileSet(base={}, overrides={("A/B", "A"): GAMMA_B}, root="A")


def test_root_always_resolves_to_mu():
    p = Pipeline(("A", "B"), (1.0, 0.5))
    profiles = ClassifierProfileSet(base={"B": GAMMA_B}, root="A")
    assert profiles.resolve(p, 0) == MU


# --- intrinsic matrix -------------------------------------------------------------------


def test_psi_empty_string_is_mu():
    profiles = ClassifierProfileSet(base={}, root=None)
    assert pf.psi([], profiles) == MU
    assert pf.homomorphism_map([], profiles) == MU


def test_psi_single_equals_gamma():
    profiles = ClassifierProfileSet(base={"B": GAMMA_B})
    assert pf.psi(["B"], profiles).max_abs_diff(GAMMA_B) <= 1e-12
    assert pf.homomorphism_map(["B"], profiles) == GAMMA_B


def test_psi_two_classifier_products():
    profiles = ClassifierProfileSet(base={"B": GAMMA_A, "C": GAMMA_A}, root="A")
    out = pf.psi(["B", "C"], profiles)
    assert out.fp == pytest.approx(0.01, abs=1e-15)  # 0.1 * 0.1
    assert out.tp == pytest.approx(0.64, abs=1e-15)  # 0.8 * 0.8
    # the root resolves to the neutral profile, so leading with it changes nothing
    led, bare = ["A", "B", "C"], ["B", "C"]
    assert pf.psi(led, profiles) == pf.psi(bare, profiles)
    assert pf.homomorphism_map(led, profiles) == pf.homomorphism_map(bare, profiles)


def test_psi_of_pipeline_ignores_fs(l2_pipeline):
    p, profiles = l2_pipeline
    no_fs = Pipeline(p.nodes, (1.0, None, None))
    assert pf.psi(no_fs, profiles) == pf.psi(p, profiles)


# --- homomorphism -----------------------------------------------------------------------


def test_homomorphism_two_letter_string():
    profiles = ClassifierProfileSet(base={"B": GAMMA_A, "D": GAMMA_B})
    assert pf.homomorphism_map(["B", "D"], profiles) == pf.oplus(GAMMA_A, GAMMA_B)


def test_homomorphism_neutral_extension():
    profiles = ClassifierProfileSet(base={"B": GAMMA_A})
    extended = pf.oplus(pf.homomorphism_map(["B"], profiles), MU)
    assert pf.homomorphism_map(["B"], profiles) == extended == GAMMA_A


def test_homomorphism_splits_arbitrarily():
    rng = np.random.default_rng(23)
    profiles = ClassifierProfileSet(
        base={f"x{i}": random_gamma(rng) for i in range(8)}
    )
    for _ in range(50):
        n = int(rng.integers(0, 9))
        s = [f"x{int(i)}" for i in rng.integers(0, 8, size=n)]
        whole = pf.psi(s, profiles)
        assert pf.homomorphism_map(s, profiles).max_abs_diff(whole) <= 1e-12
        for cut in range(n + 1):
            combined = pf.oplus(pf.psi(s[:cut], profiles), pf.psi(s[cut:], profiles))
            assert combined.max_abs_diff(whole) <= 1e-12


def test_homomorphism_three_way_associativity():
    rng = np.random.default_rng(29)
    profiles = ClassifierProfileSet(
        base={f"x{i}": random_gamma(rng) for i in range(5)}
    )
    s = [f"x{i}" for i in range(5)]
    whole = pf.psi(s, profiles)
    for i in range(6):
        for j in range(i, 6):
            a = pf.psi(s[:i], profiles)
            b = pf.psi(s[i:j], profiles)
            c = pf.psi(s[j:], profiles)
            assert pf.oplus(pf.oplus(a, b), c).max_abs_diff(whole) <= 1e-12
            assert pf.oplus(a, pf.oplus(b, c)).max_abs_diff(whole) <= 1e-12


# --- factorization -----------------------------------------------------------------------


def test_factorize_l2_fixture(l2_pipeline):
    p, profiles = l2_pipeline
    fact = pf.factorize(p, profiles)
    assert fact.prior_pos == pytest.approx(0.4, abs=1e-15)
    assert fact.prior_neg == pytest.approx(0.6, abs=1e-15)
    # eta back-solved from the joint mass: 0.034 / (0.6 * 0.01)
    assert fact.eta == pytest.approx(0.034 / 0.006, abs=1e-12)
    assert not fact.zero_negative_mass
    omega = pf.omega_closed(p, profiles)
    assert fact.reconstruct().max_abs_diff(omega) <= 1e-12


def test_factorization_prior_neg_follows_prior_pos(l2_pipeline):
    fact = pf.factorize(*l2_pipeline)
    assert fact._replace(prior_pos=0.25).prior_neg == 0.75


def test_factorize_all_f_one():
    p = Pipeline(("A", "B", "C"), (1.0, 1.0, 1.0))
    profiles = ClassifierProfileSet(base={"B": GAMMA_A, "C": GAMMA_B}, root="A")
    fact = pf.factorize(p, profiles)
    assert fact.zero_negative_mass and fact.eta is None
    assert fact.prior_neg == 0.0 and fact.prior_pos == 1.0
    psi11 = GAMMA_A.tp * GAMMA_B.tp
    assert fact.phi.fn == pytest.approx(1.0 - psi11, abs=1e-15)
    assert fact.phi.tp == pytest.approx(psi11, abs=1e-15)
    assert fact.reconstruct().max_abs_diff(pf.omega_closed(p, profiles)) <= 1e-12


def test_phi_row_normalized_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        p, profiles = random_pipeline(rng, int(rng.integers(1, 12)))
        fact = pf.factorize(p, profiles)
        assert abs(fact.phi.tn + fact.phi.fp - 1.0) <= 1e-12
        assert abs(fact.phi.fn + fact.phi.tp - 1.0) <= 1e-12
        assert fact.reconstruct().max_abs_diff(pf.omega_closed(p, profiles)) <= 1e-12


def test_phi_equals_psi_when_only_first_edge_filters():
    rng = np.random.default_rng(37)
    for _ in range(50):
        depth = int(rng.integers(2, 9))
        nodes = tuple(f"n{i}" for i in range(depth + 1))
        fs = (1.0, float(rng.uniform(0.05, 0.95))) + (1.0,) * (depth - 1)
        base = {nodes[k]: random_gamma(rng) for k in range(1, depth + 1)}
        profiles = ClassifierProfileSet(base=base, root=nodes[0])
        p = Pipeline(nodes, fs)
        fact = pf.factorize(p, profiles)
        intrinsic = pf.psi(p, profiles)
        assert fact.phi.max_abs_diff(intrinsic) <= 1e-12
        assert fact.eta == pytest.approx(1.0, abs=1e-12)


def test_factorize_zero_fp_rates_keep_leak_finite():
    zero_fp = NormalizedConfusionMatrix(tn=1.0, fp=0.0, fn=0.2, tp=0.8)
    p = Pipeline(("A", "B", "C"), (1.0, 0.5, 0.5))
    profiles = ClassifierProfileSet(base={"B": zero_fp, "C": zero_fp}, root="A")
    omega = pf.omega_closed(p, profiles)
    assert omega.fp == 0.0
    fact = pf.factorize(p, profiles)
    assert fact.phi.fp == 0.0
    assert fact.reconstruct().max_abs_diff(omega) <= 1e-12


def test_factorize_partial_zero_fp_is_infinite_eta_finite_mass():
    # fp-rate vanishes at step 1 but mass switched at step 2 still leaks
    zero_fp = NormalizedConfusionMatrix(tn=1.0, fp=0.0, fn=0.2, tp=0.8)
    p = Pipeline(("A", "B", "C"), (1.0, 0.5, 0.5))
    profiles = ClassifierProfileSet(base={"B": zero_fp, "C": GAMMA_B}, root="A")
    omega = pf.omega_closed(p, profiles)
    # only the depth-2 switch survives: 0.5 * 0.5 * 0.8 * 0.2
    assert omega.fp == pytest.approx(0.04, abs=1e-15)
    fact = pf.factorize(p, profiles)
    assert fact.eta == math.inf
    assert fact.phi.fp == pytest.approx(omega.fp / fact.prior_neg, abs=1e-15)
    assert fact.reconstruct().max_abs_diff(omega) <= 1e-12


def test_factorize_single_step_zero_fp_eta_is_one():
    zero_fp = NormalizedConfusionMatrix(tn=1.0, fp=0.0, fn=0.2, tp=0.8)
    p = Pipeline(("A", "B"), (1.0, 0.5))
    profiles = ClassifierProfileSet(base={"B": zero_fp}, root="A")
    fact = pf.factorize(p, profiles)
    assert fact.eta == pytest.approx(1.0, abs=1e-15)
    assert fact.phi.fp == 0.0


def test_closed_form_cells_rounded_outside_unit_range_are_clamped():
    # B and C accept everything: (1 - F) - w01 rounds to -1.1e-16, and the
    # closed-form w01 over prior_neg rounds to just above 1
    accept_all = NormalizedConfusionMatrix(tn=0.0, fp=1.0, fn=0.0, tp=1.0)
    p = Pipeline(("A", "B", "C"), (1.0, 0.1, 0.5))
    profiles = ClassifierProfileSet(base={"B": accept_all, "C": accept_all}, root="A")
    assert pf.omega_closed(p, profiles).tn == 0.0
    assert pf.factorize(p, profiles).phi.tn == 0.0


# --- expected counts ----------------------------------------------------------------------


def test_single_classifier_decomposition():
    # depth-1 joint mass is exactly diag(1-f, f) . gamma, scaled by m
    rng = np.random.default_rng(41)
    for _ in range(20):
        f = float(rng.random())
        g = random_gamma(rng)
        p = Pipeline(("A", "B"), (1.0, f))
        profiles = ClassifierProfileSet(base={"B": g}, root="A")
        m = int(rng.integers(1, 10_000))
        omega = pf.omega_recursive(p, profiles)
        counts = (m * omega.tn, m * omega.fp, m * omega.fn, m * omega.tp)
        expected = (
            m * (1 - f) * g.tn,
            m * (1 - f) * g.fp,
            m * f * g.fn,
            m * f * g.tp,
        )
        assert counts == pytest.approx(expected, rel=1e-12)
