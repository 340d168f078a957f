"""Taxonomic precision, recall, F1, and accuracy of pipelines.

The metrics read directly off a pipeline's joint outcome mass: precision
is accepted-and-positive mass over accepted mass, recall over truly
positive mass, accuracy the diagonal.  Recall equals the product of the
embedded classifiers' tp-rates, so it never increases with depth and does
not depend on how inputs are distributed; precision may move either way,
and each step's direction is decided by a closed-form bound on the new
classifier's fp-rate.

Corner cases are flagged, not substituted: a pipeline that accepts nothing
has undefined precision (and F1), a pipeline whose oracle prior is zero has
undefined recall.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DegenerateBoundError
from .model import (
    OMEGA_BASE,
    ClassifierProfileSet,
    Factorization,
    JointMatrix,
    NormalizedConfusionMatrix,
    PrefixState,
    _factorization,
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


@dataclass(frozen=True)
class MetricReport:
    """Metric values of one pipeline (or pipeline prefix).

    Undefined values are ``None`` with the matching flag set; ``f1`` is 0
    when either constituent is 0 (flagged ``f1_degenerate``) because the
    harmonic mean's limit there is 0.
    """

    precision: float | None
    recall: float | None
    f1: float | None
    accuracy: float
    precision_undefined: bool = False
    recall_undefined: bool = False
    f1_degenerate: bool = False


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
    f1_degenerate = False
    if precision is None or recall is None:
        f1 = None
    elif precision == 0.0 or recall == 0.0:
        f1 = 0.0
        f1_degenerate = True
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return MetricReport(
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        precision_undefined=precision is None,
        recall_undefined=recall is None,
        f1_degenerate=f1_degenerate,
    )


@dataclass(frozen=True)
class ConstraintCheck:
    """Outcome of the per-step precision constraint."""

    verdict: Verdict
    bound: float


def precision_constraint_check(
    state: PrefixState, f_k: float, gamma_k: NormalizedConfusionMatrix
) -> ConstraintCheck:
    """Decide whether appending this classifier can lower precision.

    Precision does not decrease exactly when the new fp-rate stays below

        (leak / leak') * f_k * tp-rate

    with ``leak'`` the accumulated leakage including the new step.  Raises
    :class:`DegenerateBoundError` when ``leak'`` is zero (no negative mass
    has ever been produced, so precision is pinned at 1) or non-finite.
    """
    return _constraint_check(state, state.advance(f_k, gamma_k), f_k, gamma_k)


def _constraint_check(
    state: PrefixState, advanced: PrefixState, f_k: float, gamma_k: NormalizedConfusionMatrix
) -> ConstraintCheck:
    """:func:`precision_constraint_check` with the advanced state given."""
    leak_next = advanced.leak
    if leak_next == 0.0 or not math.isfinite(leak_next):
        raise DegenerateBoundError(
            f"precision bound undefined: accumulated leakage is {leak_next}"
        )
    bound = (state.leak / leak_next) * f_k * gamma_k.tp
    verdict = Verdict.NON_DECREASING if gamma_k.fp <= bound else Verdict.DECREASING
    return ConstraintCheck(verdict=verdict, bound=bound)


@dataclass(frozen=True)
class StepCheck:
    """Precision-constraint verdict for step ``k`` of a pipeline."""

    k: int
    verdict: Verdict | None
    bound: float | None
    degenerate: bool = False


@dataclass(frozen=True)
class DepthProfile:
    """Per-prefix view of a pipeline: joint masses, metrics, and verdicts.

    Index ``k`` of ``omegas``/``reports`` refers to the prefix ending at
    depth ``k`` (0 = root only); ``steps[k-1]`` carries the verdict for the
    transition into depth ``k``.  ``state`` is the running state after the
    last step, and ``factorization`` the whole pipeline's prior/deterioration
    split.
    """

    pipeline: Pipeline
    omegas: tuple[JointMatrix, ...]
    reports: tuple[MetricReport, ...]
    steps: tuple[StepCheck, ...]
    state: PrefixState
    factorization: Factorization


def _fold(
    pipeline: Pipeline,
    gammas: tuple[NormalizedConfusionMatrix, ...],
    start: DepthProfile | None = None,
) -> DepthProfile:
    """Profile of ``pipeline``, whose steps have profiles ``gammas``, folded
    from the root or on from ``start``, the profile of one of its prefixes.

    Sanity-checks the recall chain on the way: the tp-rate product can
    never grow, and it shrinks strictly wherever a classifier's tp-rate is
    below 1 (while recall is still positive).
    """
    fs = pipeline.require_fs()
    if start is None:
        omegas, reports, steps = [OMEGA_BASE], [pipeline_metrics(OMEGA_BASE)], []
        state = PrefixState.initial()
    else:
        omegas, reports, steps = list(start.omegas), list(start.reports), list(start.steps)
        state = start.state
    for k in range(len(omegas), len(fs)):
        f_k, gamma_k = fs[k], gammas[k - 1]
        advanced = state.advance(f_k, gamma_k)
        try:
            check = _constraint_check(state, advanced, f_k, gamma_k)
            steps.append(StepCheck(k=k, verdict=check.verdict, bound=check.bound))
        except DegenerateBoundError:
            steps.append(StepCheck(k=k, verdict=None, bound=None, degenerate=True))

        omega = omega_step(omegas[-1], f_k, gamma_k)
        omegas.append(omega)
        reports.append(pipeline_metrics(omega))

        if advanced.psi11 > state.psi11:
            raise AssertionError("recall chain increased along a pipeline")
        if gamma_k.tp < 1.0 - _TIE_EPS and state.psi11 > 1e-300:
            if not advanced.psi11 < state.psi11:
                raise AssertionError("recall chain failed to decrease at a lossy step")
        state = advanced
    return DepthProfile(pipeline, tuple(omegas), tuple(reports), tuple(steps), state,
                        _factorization(state, fs, gammas))


def depth_profile(pipeline: Pipeline, profiles: ClassifierProfileSet) -> DepthProfile:
    """Metrics and precision verdicts for every prefix of ``pipeline``, and
    the factorization of the whole."""
    return _fold(pipeline, profiles.gamma_chain(pipeline))
