"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are fixed here, not configurable: 1e-12 for algebraic identities
at desk scale, 1e-9 for depth-64 closed-vs-recursive and depth-1,000
exact-vs-closed agreement, and 4 binomial standard errors per cell for
Monte-Carlo validation.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import pfmodel as pf
from pfmodel import (
    ClassifierProfileSet,
    NormalizedConfusionMatrix,
    Pipeline,
    SimConfig,
    Verdict,
)
from pfmodel.cli import EXIT_OK, main

from conftest import (
    DAG_PROFILES_JSON,
    DAG_TAXONOMY_JSON,
    random_gamma,
    random_pipeline,
)

TOL = 1e-12
TOL_DEEP = 1e-9
Z_BOUND = 4.0


@contextmanager
def criterion(number: int, description: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"criterion {number:2d} [{description}]: FAIL (runtime {elapsed:.2f}s)")
        raise AssertionError(f"runtime {elapsed:.2f}s exceeds budget {budget_s}s")
    print(f"criterion {number:2d} [{description}]: PASS ({elapsed:.2f}s)")


def test_criterion_1_monoid_suite():
    with criterion(1, "monoid laws on 1000 random matrices", budget_s=1.0):
        rng = np.random.default_rng(101)
        mats = [random_gamma(rng) for _ in range(1000)]
        for i, a in enumerate(mats):
            b = mats[(i + 1) % 1000]
            c = mats[(i + 2) % 1000]
            ab = pf.oplus(a, b)
            assert abs(ab.tn + ab.fp - 1.0) <= TOL
            assert abs(ab.fn + ab.tp - 1.0) <= TOL
            left = pf.oplus(ab, c)
            right = pf.oplus(a, pf.oplus(b, c))
            assert left.max_abs_diff(right) <= TOL
            assert pf.oplus(a, pf.MU).max_abs_diff(a) <= TOL
            assert pf.oplus(pf.MU, a).max_abs_diff(a) <= TOL


def test_criterion_2_oracle_equivalence():
    with criterion(2, "exact/recursive/closed agree on 200 random pipelines", budget_s=5.0):
        rng = np.random.default_rng(102)
        for _ in range(200):
            p, profiles = random_pipeline(rng, int(rng.integers(1, 7)))
            exact = pf.enumerate_exact(p, profiles)
            recursive = pf.omega_recursive(p, profiles)
            closed = pf.omega_closed(p, profiles)
            assert exact.max_abs_diff(recursive) <= TOL
            assert exact.max_abs_diff(closed) <= TOL
            assert recursive.max_abs_diff(closed) <= TOL
            for omega in (exact, recursive, closed):
                assert abs(omega.total - 1.0) <= TOL


def test_criterion_3_long_pipeline_stability():
    with criterion(3, "depth-64 closed vs recursive within 1e-9"):
        rng = np.random.default_rng(103)
        for _ in range(50):
            p, profiles = random_pipeline(rng, 64)
            closed = pf.omega_closed(p, profiles)
            recursive = pf.omega_recursive(p, profiles)
            assert closed.max_abs_diff(recursive) <= TOL_DEEP


def test_exact_matches_closed_at_depth_1000():
    rng = np.random.default_rng(103)
    p, profiles = random_pipeline(rng, 1000)
    start = time.perf_counter()
    exact = pf.enumerate_exact(p, profiles)
    assert time.perf_counter() - start < 1.0
    assert exact.max_abs_diff(pf.omega_closed(p, profiles)) <= TOL_DEEP


def test_criterion_4_factorization():
    with criterion(4, "prior/deterioration factorization reconstructs the joint mass"):
        rng = np.random.default_rng(104)
        for _ in range(200):
            p, profiles = random_pipeline(rng, int(rng.integers(1, 9)))
            fact = pf.factorize(p, profiles)
            omega = pf.omega_closed(p, profiles)
            assert fact.reconstruct().max_abs_diff(omega) <= TOL
            assert abs(fact.phi.tn + fact.phi.fp - 1.0) <= TOL
            assert abs(fact.phi.fn + fact.phi.tp - 1.0) <= TOL
            intrinsic = pf.psi(p, profiles)
            assert abs(intrinsic.tn + intrinsic.fp - 1.0) <= TOL
            assert abs(intrinsic.fn + intrinsic.tp - 1.0) <= TOL
        # only the first edge filters: deterioration reduces to the intrinsic matrix
        for _ in range(50):
            depth = int(rng.integers(2, 9))
            nodes = tuple(f"n{i}" for i in range(depth + 1))
            fs = (1.0, float(rng.uniform(0.05, 0.95))) + (1.0,) * (depth - 1)
            profiles = ClassifierProfileSet(
                base={nodes[k]: random_gamma(rng) for k in range(1, depth + 1)},
                root=nodes[0],
            )
            p = Pipeline(nodes, fs)
            assert pf.factorize(p, profiles).phi.max_abs_diff(pf.psi(p, profiles)) <= TOL


def test_criterion_5_homomorphism():
    with criterion(5, "string concatenation maps to matrix composition"):
        rng = np.random.default_rng(105)
        names = [f"x{i}" for i in range(10)]
        profiles = ClassifierProfileSet(base={n: random_gamma(rng) for n in names})
        for _ in range(100):
            n = int(rng.integers(0, 9))
            s = [names[int(i)] for i in rng.integers(0, 10, size=n)]
            whole = pf.psi(s, profiles)
            assert pf.homomorphism_map(s, profiles).max_abs_diff(whole) <= TOL
            for cut in range(n + 1):
                split = pf.oplus(pf.psi(s[:cut], profiles), pf.psi(s[cut:], profiles))
                assert split.max_abs_diff(whole) <= TOL


def test_criterion_6_metrics():
    with criterion(6, "recall product, monotonicity, precision verdicts, trace"):
        rng = np.random.default_rng(106)
        verdicts_checked = 0
        while verdicts_checked < 1000:
            p, profiles = random_pipeline(rng, int(rng.integers(2, 8)))
            dp = pf.depth_profile(p, profiles)
            product = 1.0
            for k, g in enumerate(profiles.gamma_chain(p), start=1):
                product *= g.tp
                row = dp.rows[k]
                assert row.metrics.recall == pytest.approx(product, abs=TOL)
                assert row.metrics.recall <= dp.rows[k - 1].metrics.recall + TOL
                assert row.metrics.accuracy == pytest.approx(
                    row.omega.tn + row.omega.tp, abs=TOL
                )
            for before, row in zip(dp.rows, dp.rows[1:]):
                prev = before.metrics.precision
                cur = row.metrics.precision
                if row.check is None or prev is None or cur is None:
                    continue
                expected = (
                    Verdict.NON_DECREASING if cur - prev >= -TOL else Verdict.DECREASING
                )
                assert row.check.verdict is expected
                verdicts_checked += 1


def test_criterion_7_degenerate_handling():
    with criterion(7, "vanishing fp-rates and all-ones edge probabilities stay finite"):
        rng = np.random.default_rng(107)
        zero_fp_rows = []
        for _ in range(50):
            depth = int(rng.integers(1, 8))
            nodes = tuple(f"n{i}" for i in range(depth + 1))
            base = {}
            for k in range(1, depth + 1):
                tp = float(rng.random())
                base[nodes[k]] = NormalizedConfusionMatrix(tn=1.0, fp=0.0, fn=1.0 - tp, tp=tp)
            profiles = ClassifierProfileSet(base=base, root=nodes[0])
            fs = (1.0,) + tuple(float(rng.random()) for _ in range(depth))
            p = Pipeline(nodes, fs)
            omega = pf.omega_closed(p, profiles)
            assert math.isfinite(omega.fp) and omega.fp == 0.0
            fact = pf.factorize(p, profiles)
            assert math.isfinite(fact.phi.fp)
            assert fact.reconstruct().max_abs_diff(omega) <= TOL
            zero_fp_rows.append(omega)
        for _ in range(50):
            depth = int(rng.integers(1, 8))
            p, profiles = random_pipeline(rng, depth)
            p = Pipeline(p.nodes, (1.0,) * (depth + 1))
            fact = pf.factorize(p, profiles)
            assert fact.zero_negative_mass and fact.eta is None
            assert fact.prior_neg == 0.0
            omega = pf.omega_closed(p, profiles)
            assert abs(omega.total - 1.0) <= TOL
            assert fact.reconstruct().max_abs_diff(omega) <= TOL


def test_criterion_8_monte_carlo_validation():
    with criterion(8, "Monte-Carlo within 4 sigma; 100 seeds", budget_s=10.0):
        p = Pipeline(("A", "B"), (1.0, 0.5))
        profiles = ClassifierProfileSet(
            base={"B": NormalizedConfusionMatrix(tn=0.8, fp=0.2, fn=0.1, tp=0.9)},
            root="A",
        )
        model = pf.omega_closed(p, profiles)
        assert model.as_tuple() == pytest.approx((0.40, 0.10, 0.05, 0.45), abs=TOL)

        default_run = pf.simulate_pipeline(p, profiles, SimConfig(m=100_000, seed=42))
        for pred, count in zip(model.as_tuple(), default_run.counts):
            sigma = math.sqrt(pred * (1.0 - pred) / default_run.m)
            assert abs(count / default_run.m - pred) <= Z_BOUND * sigma

        passing = 0
        for seed in range(100):
            out = pf.simulate_pipeline(p, profiles, SimConfig(m=100_000, seed=seed))
            if pf.compare(model, out, z_threshold=Z_BOUND).passed:
                passing += 1
        assert passing >= 99


def test_criterion_9_taxonomy_simulation():
    with criterion(9, "taxonomy simulation: consistent labels, per-pipeline 4 sigma"):
        bundle = pf.parse_inputs(DAG_TAXONOMY_JSON, DAG_PROFILES_JSON)
        cfg = SimConfig(m=100_000, seed=42)
        res = pf.simulate_taxonomy(bundle.taxonomy, bundle.profiles, cfg)
        # the truth the tallies were drawn from, regenerated bit for bit
        memberships = pf.taxonomy_memberships(bundle.taxonomy, cfg)
        for c in bundle.taxonomy.categories:
            ancestors, _, _ = pf.relative_sets(bundle.taxonomy, c)
            for a in ancestors:
                assert np.all(memberships[c] <= memberships[a])
        for i in range(500):
            ls = frozenset(c for c, member in memberships.items() if member[i])
            ok, _ = pf.check_label_consistency(bundle.taxonomy, ls)
            assert ok
        for p in pf.enumerate_pipelines(bundle.taxonomy):
            _, _, fn, tp = res.per_pipeline[p.path].counts
            assert fn + tp == np.count_nonzero(memberships[p.nodes[-1]]), p.path
        for path, outcome in res.per_pipeline.items():
            report = pf.compare(res.models[path], outcome, z_threshold=Z_BOUND)
            assert report.passed, (path, report.max_z)


def test_criterion_10_determinism(tmp_path, capsys):
    with criterion(10, "repeated analyze and simulate are byte-identical"):
        taxonomy = tmp_path / "t.json"
        profiles = tmp_path / "p.json"
        taxonomy.write_text(DAG_TAXONOMY_JSON)
        profiles.write_text(DAG_PROFILES_JSON)
        outputs = []
        for fmt in ("json", "tsv"):
            pair = []
            for name in ("a1", "a2"):
                out = tmp_path / f"{name}.{fmt}"
                code = main(["analyze", "--taxonomy", str(taxonomy),
                             "--profiles", str(profiles), "--format", fmt,
                             "--out", str(out)])
                assert code == EXIT_OK
                pair.append(out.read_bytes())
            assert pair[0] == pair[1]
            outputs.append(pair[0])
        sim_pair = []
        for name in ("s1", "s2"):
            out = tmp_path / f"{name}.json"
            code = main(["simulate", "--taxonomy", str(taxonomy),
                         "--profiles", str(profiles), "--m", "20000",
                         "--seed", "7", "--out", str(out)])
            assert code == EXIT_OK
            sim_pair.append(out.read_bytes())
        assert sim_pair[0] == sim_pair[1]
        capsys.readouterr()  # keep the criterion line as the only visible output
