"""Taxonomic precision, recall, F1, and accuracy of pipelines.

The metrics read directly off a pipeline's joint outcome mass: precision
is accepted-and-positive mass over accepted mass, recall over truly
positive mass, accuracy the diagonal.  Recall equals the product of the
embedded classifiers' tp-rates, so it never increases with depth and does
not depend on how inputs are distributed; precision may move either way,
and each step's direction is decided by a closed-form bound on the new
classifier's fp-rate.

Corner cases are left undefined, not substituted: a pipeline that accepts
nothing has precision (and F1) ``None``, a pipeline whose oracle prior is
zero has recall ``None``.  The report's JSON ``flags`` are derived from
those values when it is written.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .model import (
    OMEGA_BASE,
    ClassifierProfileSet,
    Factorization,
    JointMatrix,
    NormalizedConfusionMatrix,
    PrefixState,
    omega_step,
)
from .taxonomy import Pipeline

#: default per-cell deviation threshold of the simulator's tally check, in
#: binomial standard errors (defined here, free of numpy, for the CLI parser)
DEFAULT_Z_THRESHOLD = 4.0

#: tie tolerance when comparing precision across consecutive prefixes
_TIE_EPS = 1e-12


class Verdict(enum.Enum):
    """Direction of the precision change contributed by one pipeline step."""

    NON_DECREASING = "non_decreasing"
    DECREASING = "decreasing"


class MetricReport(NamedTuple):
    """Metric values of one pipeline (or pipeline prefix).

    An undefined value is ``None``; ``f1`` is 0 when either constituent is
    0 because the harmonic mean's limit there is 0.
    """

    precision: float | None
    recall: float | None
    f1: float | None
    accuracy: float


def pipeline_metrics(omega: JointMatrix) -> MetricReport:
    """Taxonomic precision/recall/F1/accuracy of the given joint mass.

    F1 is the harmonic mean of this same pipeline's precision and recall,
    never a mix across prefixes.
    """
    accepted = omega.fp + omega.tp
    positive = omega.fn + omega.tp
    precision = omega.tp / accepted if accepted > 0.0 else None
    recall = omega.tp / positive if positive > 0.0 else None
    accuracy = omega.tn + omega.tp

    f1: float | None
    if precision is None or recall is None:
        f1 = None
    elif precision == 0.0 or recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return MetricReport(precision=precision, recall=recall, f1=f1, accuracy=accuracy)


class ConstraintCheck(NamedTuple):
    """Outcome of the per-step precision constraint."""

    verdict: Verdict
    bound: float


def _constraint_check(
    state: PrefixState, advanced: PrefixState, f_k: float, gamma_k: NormalizedConfusionMatrix
) -> ConstraintCheck | None:
    """Decide whether the step from ``state`` to ``advanced``, on an edge
    ``f_k`` to classifier ``gamma_k``, can lower precision.

    Precision does not decrease exactly when the new fp-rate stays below

        (leak / leak') * f_k * tp-rate

    with ``leak'`` the accumulated leakage including the new step.  Returns
    ``None`` where the bound is undefined: ``leak'`` is zero (no negative
    mass has ever been produced, so precision is pinned at 1, e.g. all
    f = 1 so far) or non-finite.
    """
    leak_next = advanced.leak
    if leak_next == 0.0 or not math.isfinite(leak_next):
        return None
    bound = (state.leak / leak_next) * f_k * gamma_k.tp
    verdict = Verdict.NON_DECREASING if gamma_k.fp <= bound else Verdict.DECREASING
    return ConstraintCheck(verdict=verdict, bound=bound)


class DepthRow(NamedTuple):
    """The prefix of a pipeline that ends at depth ``k`` (0 = root only).

    ``f`` is the pipeline's edge probability into depth ``k`` as a float,
    ``omega`` the prefix's joint mass and ``metrics`` its metrics.
    ``check`` is the precision verdict of the step into depth ``k``:
    ``None`` at k = 0, where no step is taken, and where the bound is
    undefined (a degenerate step).
    """

    k: int
    f: float
    omega: JointMatrix
    metrics: MetricReport
    check: ConstraintCheck | None


class DepthProfile(NamedTuple):
    """Per-prefix view of a pipeline: one :class:`DepthRow` per depth.

    ``rows[k]`` is the prefix ending at depth ``k``, and ``state`` the
    running state after the last step.
    """

    pipeline: Pipeline
    rows: tuple[DepthRow, ...]
    state: PrefixState

    @property
    def factorization(self) -> Factorization:
        """The whole pipeline's prior/deterioration split.  ``phi.fp`` is the
        last row's false-positive mass over the negative prior; the priors,
        psi and ``eta``'s zero-fp fallback come from ``state``."""
        state = self.state
        prior_neg = 1.0 - state.prior_pos
        if prior_neg == 0.0:
            return Factorization(prior_pos=state.prior_pos, phi=state.intrinsic(), eta=None)

        phi01 = min(self.rows[-1].omega.fp / prior_neg, 1.0)  # it can round just above 1
        phi = NormalizedConfusionMatrix(tn=1.0 - phi01, fp=phi01, fn=1.0 - state.psi11,
                                        tp=state.psi11)
        eta = phi01 / state.psi01 if state.psi01 > 0.0 else state.leak / prior_neg
        return Factorization(prior_pos=state.prior_pos, phi=phi, eta=eta)


def _fold(
    pipeline: Pipeline, profiles: ClassifierProfileSet, start: DepthProfile | None = None
) -> DepthProfile:
    """Profile of ``pipeline``, folded from the root or on from ``start``,
    the profile of one of its prefixes.  Only the steps taken are resolved
    in ``profiles``, and only their f values checked and converted, so a
    pipeline folded on from its parent costs one ``resolve``.  Every f a
    fold takes is checked before any profile is resolved.

    Sanity-checks the recall chain on the way: the tp-rate product can
    never grow, and it shrinks strictly wherever a classifier's tp-rate is
    below 1 (while recall is still positive).
    """
    if start is None:
        rows = [DepthRow(0, 1.0, OMEGA_BASE, pipeline_metrics(OMEGA_BASE), None)]
        state = PrefixState.initial()
    else:
        rows = list(start.rows)
        state = start.state
    first = len(rows)
    fs = pipeline.require_fs(first)
    for k in range(first, len(pipeline.fs)):
        f_k, gamma_k = fs[k - first], profiles.resolve(pipeline, k)
        advanced = state.advance(f_k, gamma_k)
        omega = omega_step(rows[-1].omega, f_k, gamma_k)
        rows.append(DepthRow(k, f_k, omega, pipeline_metrics(omega),
                             _constraint_check(state, advanced, f_k, gamma_k)))

        if advanced.psi11 > state.psi11:
            raise AssertionError("recall chain increased along a pipeline")
        if gamma_k.tp < 1.0 - _TIE_EPS and state.psi11 > 1e-300:
            if not advanced.psi11 < state.psi11:
                raise AssertionError("recall chain failed to decrease at a lossy step")
        state = advanced
    return DepthProfile(pipeline, tuple(rows), state)


def depth_profile(pipeline: Pipeline, profiles: ClassifierProfileSet) -> DepthProfile:
    """Metrics and precision verdicts for every prefix of ``pipeline``."""
    return _fold(pipeline, profiles)


def factorize(pipeline: Pipeline, profiles: ClassifierProfileSet) -> Factorization:
    """Split a pipeline's joint mass into input priors and deterioration."""
    return depth_profile(pipeline, profiles).factorization
