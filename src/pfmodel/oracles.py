"""Independent oracles for the analytic pipeline model, and the ``verify`` check.

:func:`enumerate_exact` checks a predicted joint matrix without trusting the
algebra that produced it: it sums the probability of every admissible
truth/decision trajectory of the event tree (truth can only narrow,
decisions can only stop), and shares no code with the matrix recurrence.

:func:`verify_oracles` cross-checks it, the closed form and the recurrence
on a taxonomy's pipelines and on random ones, and returns a frozen record,
which :mod:`.io` writes.  The random pipelines come from a pure-Python
Philox stream (:class:`.rng.PhiloxStream`), so this module, like everything
``verify`` loads, does without numpy.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .model import (ClassifierProfileSet, JointMatrix, NormalizedConfusionMatrix, _closed_form,
                    _recurrence, omega_recursive, omega_step)
from .rng import PhiloxStream, stream_key
from .taxonomy import Pipeline, Taxonomy, enumerate_pipelines


def enumerate_exact(pipeline: Pipeline, profiles: ClassifierProfileSet) -> JointMatrix:
    """Joint outcome mass by exhaustive summation over the event tree.

    Walks every (truth chain, decision chain) pair obeying the structural
    implications -- an input outside a category is outside all its
    descendants, a rejected input is never seen again -- multiplying the
    per-step conditional probabilities: membership Bernoulli(f_k) while
    still inside, decision from the current classifier's row while still
    accepted.  Independent of the matrix recurrence by construction.  This
    is the one-chain case of the walk :func:`verify_oracles` takes over a
    taxonomy's prefix tree.
    """
    fs = pipeline.require_fs()
    return _exact_matrix(pipeline, *_walk(fs, profiles.gamma_chain(pipeline)))


# The live histories of a prefix of depth L are ``(inside, left, rejected)``:
# the mass of the one history inside and accepted at every step; ``left[j-1]``,
# that of the history which left the category at step j while accepted and has
# been accepted since; ``rejected[j-1]``, that of the history rejected at step
# j while inside and inside since.  A history outside and rejected stays so
# with probability 1, so it ends as a term of tn.  ``terms[k-1]`` is
# ``(a, b, c)``, the tn terms born from step k's histories: ``a`` left and was
# rejected at step k, ``b[i]`` left at step k and was rejected at step k+1+i,
# ``c[i]`` was rejected at step k and left at step k+1+i.  Each leaf is the
# product, in the same order, that a depth-first walk of the event tree takes,
# and each cell sums its leaves in that walk's order.  A history of mass 0,
# which such a walk would skip, adds +0.0, which leaves every sum as it is.

def _extend(histories: tuple, terms: list, f: float,
            g: NormalizedConfusionMatrix) -> tuple:
    """The live histories one step below ``histories`` (step f, g).

    ``terms`` is shared along the live path of a depth-first walk: it is cut
    back to the depth of ``histories`` and then extended in place.
    """
    inside, left, rejected = histories
    depth = len(left)
    if len(terms) > depth:  # a finished subtree's terms
        del terms[depth:]
        for k, (_, b, c) in enumerate(terms, 1):
            del b[depth - k:], c[depth - k:]
    nf = 1.0 - f
    for (_, b, c), out, kept in zip(terms, left, rejected):
        b.append(out * g.tn)
        c.append(kept * nf)
    stay, leave = inside * f, inside * nf
    terms.append((leave * g.tn, [], []))
    return (stay * g.tp, [out * g.fp for out in left] + [leave * g.fp],
            [kept * f for kept in rejected] + [stay * g.fn])


def _walk(fs: Sequence[float], chain: Sequence[NormalizedConfusionMatrix]) -> tuple[tuple, list]:
    """The live histories and tn terms of one chain, step fs[k] and chain[k-1]."""
    histories, terms = (1.0, [], []), []
    for f, g in zip(fs[1:], chain):
        histories = _extend(histories, terms, f, g)
    return histories, terms


def _exact_matrix(pipeline: Pipeline, histories: tuple, terms: list) -> JointMatrix:
    """Exact enumeration's joint matrix of ``pipeline`` from its live
    histories and the tn terms along its path.

    Every exact value ``verify`` takes passes through here with its
    pipeline, as every closed-form value passes through
    :func:`_closed_matrix`, so a fault planted in one pipeline's value has
    one place to go.  Sums are explicit loops, left to right, as the walk
    reaches the leaves: ``sum`` compensates float sums from Python 3.12 on.
    The one tp leaf is added to 0.0 too, so a mass of -0.0 reads +0.0.
    """
    inside, left, rejected = histories
    tn = fp = fn = 0.0
    for a, b, c in terms:
        tn += a
        for v in b:
            tn += v
        for v in c:
            tn += v
    for v in left:
        fp += v
    for v in rejected:
        fn += v
    return JointMatrix(tn=tn, fp=fp, fn=fn, tp=0.0 + inside)


def _closed_matrix(pipeline: Pipeline, fs: Sequence[float],
                   chain: Sequence[NormalizedConfusionMatrix]) -> JointMatrix:
    """The closed form's joint matrix of ``pipeline``, given its f chain and
    classifier chain: :func:`omega_closed` without their lookup."""
    return JointMatrix(*_closed_form(fs, chain))


class OracleCheck(NamedTuple):
    """One check of :func:`verify_oracles`: two evaluations' largest cell
    difference, or the mass's distance from 1."""

    source: str
    pipeline: Pipeline
    check: str
    discrepancy: float
    passed: bool


class Verification(NamedTuple):
    """Every oracle check of a ``verify`` run, with the settings it ran under."""

    tolerance: float
    max_len: int
    samples: int
    seed: int
    checks: tuple[OracleCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _random_pipeline(rng: PhiloxStream,
                     max_len: int) -> tuple[Pipeline, tuple[NormalizedConfusionMatrix, ...]]:
    """A chain of 1 to ``max_len`` steps and its classifier chain: its
    depth, then its fs, then each step's (fp, tp) pair, drawn in that order."""
    depth = rng.integers(1, max_len + 1)
    fs = (1.0, *(rng.random() for _ in range(depth)))
    chain = []
    for _ in range(depth):
        fp, tp = rng.random(), rng.random()
        chain.append(NormalizedConfusionMatrix(tn=1.0 - fp, fp=fp, fn=1.0 - tp, tp=tp))
    return Pipeline(tuple(f"n{i}" for i in range(depth + 1)), fs), tuple(chain)


def verify_oracles(t: Taxonomy, profiles: ClassifierProfileSet, tol: float, max_len: int,
                   samples: int, seed: int) -> Verification:
    """Cross-check the closed form, the recurrence and, up to depth ``max_len``,
    exact enumeration on every pipeline of ``t`` and on ``samples`` random ones
    drawn from the stream keyed by ``seed``; a check passes within ``tol``.

    Taxonomy pipelines come prefix-first, so the walk visits the prefix tree
    once, and each pipeline extends its parent prefix by one step: its f
    chain by one converted f, its classifier chain by one resolved profile,
    its recurrence value by one :func:`omega_step` and, up to ``max_len``,
    its live event-tree histories by one step of exact enumeration.  The
    chains are input lookups; each oracle's algebra stays its own, and each
    value is, bit for bit, what :func:`omega_closed`, :func:`omega_recursive`
    and :func:`enumerate_exact` give the pipeline alone.  The root and the
    random pipelines are evaluated from the root.
    """
    checks = []

    def run_one(source: str, pipeline: Pipeline, closed: JointMatrix, recursive: JointMatrix,
                exact: JointMatrix | None) -> None:
        rows = [("closed_vs_recursive", closed.max_abs_diff(recursive)),
                ("mass_sums_to_one", abs(recursive.total - 1.0))]
        if exact is not None:
            rows.append(("exact_vs_recursive", exact.max_abs_diff(recursive)))
            rows.append(("exact_vs_closed", exact.max_abs_diff(closed)))
        checks.extend(OracleCheck(source, pipeline, check, diff, diff <= tol)
                      for check, diff in rows)

    # ``fs`` and ``chain`` hold the live prefix's f and classifier chains,
    # ``live[k]`` the recurrence value and live histories (``None`` deeper
    # than ``max_len``) of its prefix at depth k, and ``terms`` the tn terms
    # along it; a pipeline cuts them back to its parent, so finished subtrees
    # free theirs
    fs: list[float] = []
    chain: list[NormalizedConfusionMatrix] = []
    live: list[tuple[JointMatrix, tuple | None]] = []
    terms: list = []
    for p in enumerate_pipelines(t):
        if p.depth:
            del fs[p.depth:], chain[p.depth - 1:], live[p.depth:]
            recursive, histories = live[-1]
            fs += p.require_fs(p.depth)  # the new f is checked before its profile is resolved
            g = profiles.resolve(p, p.depth)
            chain.append(g)
            closed = _closed_matrix(p, fs, chain)
            recursive = omega_step(recursive, fs[-1], g)
            histories = _extend(histories, terms, fs[-1], g) if p.depth <= max_len else None
        else:
            fs += p.require_fs()
            closed = _closed_matrix(p, fs, chain)
            recursive = omega_recursive(p, profiles)
            histories = (1.0, [], []) if max_len >= 0 else None
        live.append((recursive, histories))
        run_one("taxonomy", p, closed, recursive,
                _exact_matrix(p, histories, terms) if histories else None)
    rng = PhiloxStream(stream_key(seed, "verify"))
    for i in range(samples):
        pipeline, sample_chain = _random_pipeline(rng, max_len)
        sample_fs = pipeline.require_fs()
        run_one(f"random[{i}]", pipeline, _closed_matrix(pipeline, sample_fs, sample_chain),
                _recurrence(sample_fs, sample_chain),
                _exact_matrix(pipeline, *_walk(sample_fs, sample_chain)))
    return Verification(tol, max_len, samples, seed, tuple(checks))
