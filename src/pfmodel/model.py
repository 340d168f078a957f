"""Confusion-matrix algebra for classifier pipelines.

All 2x2 matrices in this module use one fixed cell order:

    [[tn, fp],     row 0 = truly negative inputs, row 1 = truly positive;
     [fn, tp]]     col 0 = rejected, col 1 = accepted.

Three kinds of matrix share that shape:

* :class:`NormalizedConfusionMatrix` -- per-classifier conditional rates,
  each row summing to 1 (an estimate of p(decision | truth)).
* :class:`JointMatrix` -- probability *mass* over the four outcomes of a
  whole pipeline, all four cells summing to 1 (an estimate of the joint
  p(truth, decision) at the pipeline's last step).
* :class:`IntrinsicMatrix` -- the distribution-independent profile of a
  category string: what the chain of classifiers does to inputs that are
  negative (row 0) or positive (row 1) throughout, regardless of how
  inputs are distributed.  Same normalization as a confusion matrix.

One filtering step feeds a classifier the *accepted* stream of its parent:
accepted inputs are re-judged (the inner path), while anything rejected
earlier stays rejected forever (the outer path accumulates).  Moving to a
child category also narrows the ground truth, so a fraction (1 - f) of
previously-positive mass flips to negative first (context switching).  The
step operator :func:`oplus` captures the inner/outer split; the fold of
context switching plus ``oplus`` yields the pipeline's joint matrix.

Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence, TypeVar

from .errors import (
    MissingGammaError,
    OutOfRangeProbabilityError,
    ParseError,
    RootProfileForbiddenError,
)
from .taxonomy import CategoryId, Pipeline, _Checked

#: slack for probability range / normalization checks on constructed matrices
_EPS = 1e-12
_UNIT_MAX = 1.0 + _EPS


class Cells2x2(NamedTuple):
    """Plain 2x2 cell holder in (tn, fp, fn, tp) order; no invariants."""

    tn: float
    fp: float
    fn: float
    tp: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.tn, self.fp, self.fn, self.tp)

    @property
    def total(self) -> float:
        return self.tn + self.fp + self.fn + self.tp

    def max_abs_diff(self, other: "Cells2x2") -> float:
        return max(abs(a - b) for a, b in zip(self.as_tuple(), other.as_tuple()))


def _check_unit_range(tn: float, fp: float, fn: float, tp: float) -> tuple[float, ...]:
    """The cells as floats; reject a cell outside [0, 1]."""
    if (type(tn) is type(fp) is type(fn) is type(tp) is float
            and -_EPS <= tn <= _UNIT_MAX and -_EPS <= fp <= _UNIT_MAX
            and -_EPS <= fn <= _UNIT_MAX and -_EPS <= tp <= _UNIT_MAX):
        return tn, fp, fn, tp
    for name, v in zip(("tn", "fp", "fn", "tp"), (tn, fp, fn, tp)):
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise OutOfRangeProbabilityError(f"{name}={v!r} is not a finite number")
        if v < -_EPS or v > 1.0 + _EPS:
            raise OutOfRangeProbabilityError(f"{name}={v} outside [0, 1]")
    return float(tn), float(fp), float(fn), float(tp)


class NormalizedConfusionMatrix(_Checked, Cells2x2):
    """Row-normalized 2x2 conditional behavior of one binary classifier.

    tn + fp = 1 and fn + tp = 1 (within 1e-12): the rows are conditional
    distributions of the decision given a truly-negative / truly-positive
    input.  fp and tp, the rates that chains multiply, lie in [0, 1]
    exactly; tn and fn keep the 1e-12 slack, as :func:`oplus` sums can
    round one ulp above 1.
    """

    __slots__ = ()

    def __new__(cls, tn: float, fp: float, fn: float, tp: float):
        self = tuple.__new__(cls, _check_unit_range(tn, fp, fn, tp))
        for name, v in (("fp", self.fp), ("tp", self.tp)):
            if not 0.0 <= v <= 1.0:
                raise OutOfRangeProbabilityError(f"{name}={v} outside [0, 1]")
        for label, s in (("negative", self.tn + self.fp), ("positive", self.fn + self.tp)):
            if abs(s - 1.0) > _EPS:
                raise OutOfRangeProbabilityError(
                    f"{label} row sums to {s!r}, expected 1 within {_EPS}"
                )
        return self


#: The intrinsic profile of a category string shares the confusion-matrix
#: shape and normalization; the alias marks intent at call sites.
IntrinsicMatrix = NormalizedConfusionMatrix


class JointMatrix(_Checked, Cells2x2):
    """Joint outcome mass of a pipeline; all four cells sum to 1."""

    __slots__ = ()

    def __new__(cls, tn: float, fp: float, fn: float, tp: float):
        self = tuple.__new__(cls, _check_unit_range(tn, fp, fn, tp))
        if abs(self.total - 1.0) > _EPS:
            raise OutOfRangeProbabilityError(
                f"joint mass sums to {self.total!r}, expected 1 within {_EPS}"
            )
        return self


#: The neutral classifier: accepts everything, so composing with it changes
#: nothing.  Identity element of ``oplus`` and the fixed behavior of the root.
MU = NormalizedConfusionMatrix(tn=0.0, fp=1.0, fn=0.0, tp=1.0)

#: Joint mass entering the root: every input is a true positive there.
OMEGA_BASE = JointMatrix(tn=0.0, fp=0.0, fn=0.0, tp=1.0)

_M = TypeVar("_M", bound=Cells2x2)


def oplus(a: _M, b: Cells2x2) -> _M:
    """One filtering step applied to the stream summarized by ``a``.

    Only ``a``'s accepted column is re-judged by ``b`` (inner path); the
    rejected column accumulates whatever ``b`` turns away (outer path):

        [[a.tn + a.fp * b.tn,  a.fp * b.fp],
         [a.fn + a.tp * b.fn,  a.tp * b.tp]]

    Row-normalization of both operands carries over to the result, making
    the normalized matrices a monoid with identity :data:`MU`.  The result
    has the type of ``a`` (mass stays mass, rates stay rates).
    """
    return type(a)(
        tn=a.tn + a.fp * b.tn,
        fp=a.fp * b.fp,
        fn=a.fn + a.tp * b.fn,
        tp=a.tp * b.tp,
    )


def context_switch(f_k: float, omega_prev: JointMatrix) -> JointMatrix:
    """Re-label the previous step's mass for a narrower child category.

    Of the mass that was truly positive for the parent, only a fraction
    ``f_k`` remains positive for the child; the rest flips truth value, so
    accepted mass moves TP -> FP and rejected mass moves FN -> TN.  Total
    mass is preserved.
    """
    if not 0.0 <= f_k <= 1.0:
        raise OutOfRangeProbabilityError(f"f={f_k} outside [0, 1]")
    nf = 1.0 - f_k
    return JointMatrix(
        tn=omega_prev.tn + nf * omega_prev.fn,
        fp=omega_prev.fp + nf * omega_prev.tp,
        fn=f_k * omega_prev.fn,
        tp=f_k * omega_prev.tp,
    )


def omega_step(
    omega_prev: JointMatrix, f_k: float, gamma_k: NormalizedConfusionMatrix
) -> JointMatrix:
    """One pipeline step: context switching, then classification."""
    return oplus(context_switch(f_k, omega_prev), gamma_k)


class ClassifierProfileSet(_Checked, NamedTuple("ClassifierProfileSet", [
        ("base", Mapping[CategoryId, NormalizedConfusionMatrix]),
        ("overrides", Mapping[tuple[str, CategoryId], NormalizedConfusionMatrix]),
        ("root", CategoryId | None)])):
    """Confusion profiles for the classifiers embedded in a taxonomy.

    ``base`` maps a category to its classifier's profile.  ``overrides``
    maps ``(path, category)``, where ``path`` ends at ``category``, to a
    replacement used in ``path`` and in every pipeline that extends it: the
    classifier decides once per arrival path, so every pipeline's chain is
    its parent's plus one step.  The root never has a profile: its behavior
    is fixed to the neutral classifier.
    """

    def __new__(cls, base, overrides=None, root=None):
        if root in base:
            raise RootProfileForbiddenError(
                f"root {root!r} has fixed neutral behavior; remove its profile"
            )
        overrides = {} if overrides is None else overrides
        for path, cat in overrides:
            if cat == root:
                raise RootProfileForbiddenError(
                    f"override for root {root!r} in pipeline {path!r} is forbidden"
                )
            if path.rpartition("/")[2] != cat:
                raise ParseError(f"override of {cat!r} keyed by {path!r}, which does not end at it")
        return super().__new__(cls, base, overrides, root)

    def resolve(self, pipeline: Pipeline, k: int) -> NormalizedConfusionMatrix:
        """Profile of step ``k`` of ``pipeline`` (k=0 is the neutral root)."""
        if k == 0:
            return MU
        cat = pipeline.nodes[k]
        if cat in self._overridden:  # only then is the arrival path's key worth building
            hit = self.overrides.get(("/".join(pipeline.nodes[:k + 1]), cat))
            if hit is not None:
                return hit
        return self.resolve_category(cat)

    def resolve_category(self, cat: CategoryId) -> NormalizedConfusionMatrix:
        """Context-free profile of one category (the root resolves to MU)."""
        if cat == self.root:
            return MU
        try:
            return self.base[cat]
        except KeyError:
            raise MissingGammaError(f"no confusion profile for category {cat!r}") from None

    def gamma_chain(self, pipeline: Pipeline) -> tuple[NormalizedConfusionMatrix, ...]:
        """Profiles for steps 1..L of ``pipeline`` in order."""
        return tuple(self.resolve(pipeline, k) for k in range(1, len(pipeline.nodes)))

    @cached_property
    def _overridden(self) -> frozenset[CategoryId]:
        return frozenset(cat for _, cat in self.overrides)


def _gammas_for(
    s: Pipeline | Sequence[CategoryId], profiles: ClassifierProfileSet
) -> tuple[NormalizedConfusionMatrix, ...]:
    """Resolve the profile chain of a pipeline or of a bare category string.

    A pipeline contributes its non-root steps (the root's neutral profile
    is the fold's starting point anyway); a bare string contributes every
    named category.
    """
    if isinstance(s, Pipeline):
        return profiles.gamma_chain(s)
    return tuple(profiles.resolve_category(c) for c in s)


def omega_recursive(pipeline: Pipeline, profiles: ClassifierProfileSet) -> JointMatrix:
    """Joint outcome mass of a pipeline, by folding the step recurrence."""
    return _recurrence(pipeline.require_fs(), profiles.gamma_chain(pipeline))


def _recurrence(fs: Sequence[float], gammas: Sequence[NormalizedConfusionMatrix]) -> JointMatrix:
    """Unvalidated :func:`omega_recursive`; step k has fs[k], gammas[k-1]."""
    omega = OMEGA_BASE
    for f_k, gamma_k in zip(fs[1:], gammas):
        omega = omega_step(omega, f_k, gamma_k)
    return omega


def omega_closed(pipeline: Pipeline, profiles: ClassifierProfileSet) -> JointMatrix:
    """Joint outcome mass of a pipeline, by the unfolded closed form.

    Accepted-and-positive mass is the full traversal product; false-positive
    mass sums, over the depth j at which truth flipped, the probability of
    riding the inner path to j and then surviving every later judgment as a
    negative.  The other two cells follow by complementation against the
    oracle priors.
    """
    return JointMatrix(*_closed_form(pipeline.require_fs(), profiles.gamma_chain(pipeline)))


def _closed_form(
    fs: Sequence[float], gammas: Sequence[NormalizedConfusionMatrix]
) -> tuple[float, float, float, float]:
    """Unvalidated (tn, fp, fn, tp) of :func:`omega_closed`; step k has fs[k], gammas[k-1].

    Each fs[k] may also be a numpy column, one f per row, for as many chains
    as it has rows: the cells are then columns too, each bit for bit the
    float a row alone gives, and the classifier products are taken once.
    """
    L = len(gammas)

    big_f = 1.0
    psi11 = 1.0
    w01 = 0.0
    # suffix products of fp-rates: surv[j] = prod_{s=j..L} gamma_s.fp  (1-based j)
    surv = [1.0] * (L + 2)
    for s in range(L, 0, -1):
        surv[s] = gammas[s - 1].fp * surv[s + 1]
    for j in range(1, L + 1):
        f_j = fs[j]
        w01 += (1.0 - f_j) * big_f * psi11 * surv[j]
        big_f *= f_j
        psi11 *= gammas[j - 1].tp

    w11 = big_f * psi11
    w10 = big_f - w11
    w00 = (1.0 - big_f) - w01
    w00 = (w00 + abs(w00)) / 2  # max(w00, 0) of a float or an array: it can round just below 0
    return w00, w01, w10, w11


def psi(s: Pipeline | Sequence[CategoryId], profiles: ClassifierProfileSet) -> IntrinsicMatrix:
    """Intrinsic profile of a category string or pipeline.

    Needs no edge probabilities: it reflects only the embedded classifiers.
    It multiplies the accepted-column rates directly and fills rows by
    normalization, within 1e-12 of the :func:`oplus` composition that
    :func:`homomorphism_map` evaluates; the empty string maps to :data:`MU`.
    """
    p01 = 1.0
    p11 = 1.0
    for g in _gammas_for(s, profiles):
        p01 *= g.fp
        p11 *= g.tp
    return IntrinsicMatrix(tn=1.0 - p01, fp=p01, fn=1.0 - p11, tp=p11)


def homomorphism_map(
    s: Pipeline | Sequence[CategoryId], profiles: ClassifierProfileSet
) -> IntrinsicMatrix:
    """Intrinsic profile evaluated by divide and conquer over the string.

    Splitting anywhere and combining the halves with :func:`oplus` gives
    the same matrix as the straight fold: concatenation of strings maps to
    composition of profiles, with the empty string mapping to :data:`MU`.
    """
    gammas = _gammas_for(s, profiles)

    def ev(lo: int, hi: int) -> IntrinsicMatrix:
        if hi == lo:
            return MU
        if hi - lo == 1:
            return gammas[lo]
        mid = (lo + hi) // 2
        return oplus(ev(lo, mid), ev(mid, hi))

    return ev(0, len(gammas))


class Factorization(NamedTuple):
    """A pipeline's joint mass split into oracle priors and deterioration.

    ``prior_pos`` is the probability that an oracle chain would carry an
    input all the way down (the product of the edge probabilities); the
    deterioration matrix ``phi`` is row-normalized and satisfies

        omega = diag(prior_neg, prior_pos) . phi

    ``eta`` scales the intrinsic false-positive rate up to the pipeline's
    actual one: ``phi.fp = eta * psi01``.  It is back-derived from the
    false-positive mass, so it stays meaningful when individual fp-rates
    vanish; it is ``math.inf`` when the intrinsic rate is exactly zero but
    leaked mass is not, and ``None`` when no negative mass exists at all
    (``zero_negative_mass``, all f = 1), in which case the negative row of
    ``phi`` carries no mass and is reported as the intrinsic row.
    """

    prior_pos: float
    phi: NormalizedConfusionMatrix
    eta: float | None

    @property
    def prior_neg(self) -> float:
        """The probability that an oracle chain drops an input: 1 - ``prior_pos``."""
        return 1.0 - self.prior_pos

    @property
    def zero_negative_mass(self) -> bool:
        """True when no negative mass exists (all f = 1), so ``eta`` is ``None``."""
        return self.eta is None

    def reconstruct(self) -> JointMatrix:
        """Rebuild the joint mass as diag(prior_neg, prior_pos) . phi."""
        return JointMatrix(
            tn=self.prior_neg * self.phi.tn,
            fp=self.prior_neg * self.phi.fp,
            fn=self.prior_pos * self.phi.fn,
            tp=self.prior_pos * self.phi.tp,
        )


class PrefixState(NamedTuple):
    """Running quantities of a pipeline prefix, advanced one step at a time.

    ``leak`` accumulates, over the depths where truth switched to negative,
    the switched mass scaled by how much easier it was to keep accepting it
    than the intrinsic fp-rate alone would suggest (it equals the prefix's
    negative prior times its eta).  ``prior_pos`` is the oracle traversal
    probability, ``psi01``/``psi11`` the intrinsic column products.
    """

    leak: float
    prior_pos: float
    psi01: float
    psi11: float

    @staticmethod
    def initial() -> "PrefixState":
        return PrefixState(leak=0.0, prior_pos=1.0, psi01=1.0, psi11=1.0)

    def advance(self, f_k: float, gamma_k: NormalizedConfusionMatrix) -> "PrefixState":
        """State after appending a classifier with edge probability ``f_k``."""
        # Terms without switched mass are dropped, so a vanished fp-rate
        # upstream cannot turn 0/0 into a spurious infinity.
        switched = (1.0 - f_k) * self.prior_pos * self.psi11
        if switched > 0.0:
            leak = (self.leak + switched / self.psi01) if self.psi01 > 0.0 else math.inf
        else:
            leak = self.leak
        return PrefixState(
            leak=leak,
            prior_pos=self.prior_pos * f_k,
            psi01=self.psi01 * gamma_k.fp,
            psi11=self.psi11 * gamma_k.tp,
        )

    def intrinsic(self) -> IntrinsicMatrix:
        """The prefix's intrinsic profile, as ``psi(..., "closed")`` computes it."""
        return IntrinsicMatrix(
            tn=1.0 - self.psi01, fp=self.psi01, fn=1.0 - self.psi11, tp=self.psi11
        )
