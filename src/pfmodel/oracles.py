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

from dataclasses import dataclass

from .model import (ClassifierProfileSet, JointMatrix, NormalizedConfusionMatrix,
                    omega_closed, omega_recursive, omega_step)
from .rng import PhiloxStream, stream_key
from .taxonomy import Pipeline, Taxonomy, enumerate_pipelines


def enumerate_exact(pipeline: Pipeline, profiles: ClassifierProfileSet) -> JointMatrix:
    """Joint outcome mass by exhaustive summation over the event tree.

    Walks every (truth chain, decision chain) pair obeying the structural
    implications -- an input outside a category is outside all its
    descendants, a rejected input is never seen again -- multiplying the
    per-step conditional probabilities: membership Bernoulli(f_k) while
    still inside, decision from the current classifier's row while still
    accepted.  Independent of the matrix recurrence by construction.
    """
    fs = pipeline.require_fs()
    gammas = profiles.gamma_chain(pipeline)
    last = len(gammas)
    cells = [[0.0, 0.0], [0.0, 0.0]]

    # Depth-first with an explicit stack, so any depth is walkable.  Branches
    # are pushed in reverse and pop in (x, c) order, so each cell sums its
    # leaves in one fixed, lexicographic order.  A history outside and rejected
    # stays so with probability 1, so it ends at once (quadratic in depth).
    stack = [(1, 1, 1, 1.0)]
    while stack:
        k, x_prev, c_prev, prob = stack.pop()
        if prob == 0.0:
            continue
        if k > last or (x_prev == 0 and c_prev == 0):
            cells[x_prev][c_prev] += prob
            continue
        f, g = fs[k], gammas[k - 1]
        for x in (1, 0):
            if x_prev == 0 and x == 1:
                continue  # truth can only narrow
            p_x = 1.0 if x_prev == 0 else (f if x == 1 else 1.0 - f)
            for c in (1, 0):
                if c_prev == 0 and c == 1:
                    continue  # once rejected, rejected forever
                if c_prev == 0:
                    p_c = 1.0
                else:
                    row = (g.fn, g.tp) if x == 1 else (g.tn, g.fp)
                    p_c = row[c]
                stack.append((k + 1, x, c, prob * p_x * p_c))

    return JointMatrix(tn=cells[0][0], fp=cells[0][1], fn=cells[1][0], tp=cells[1][1])


@dataclass(frozen=True, slots=True)
class OracleCheck:
    """One check of :func:`verify_oracles`: two evaluations' largest cell
    difference, or the mass's distance from 1."""

    source: str
    pipeline: Pipeline
    check: str
    discrepancy: float
    passed: bool


@dataclass(frozen=True)
class Verification:
    """Every oracle check of a ``verify`` run, with the settings it ran under."""

    tolerance: float
    max_len: int
    samples: int
    seed: int
    checks: tuple[OracleCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _random_pipeline(rng: PhiloxStream, max_len: int) -> tuple[Pipeline, ClassifierProfileSet]:
    """A chain of 1 to ``max_len`` steps: its depth, then its fs, then each
    step's (fp, tp) pair, drawn in that order."""
    depth = rng.integers(1, max_len + 1)
    nodes = tuple(f"n{i}" for i in range(depth + 1))
    fs = (1.0, *(rng.random() for _ in range(depth)))
    base = {}
    for node in nodes[1:]:
        fp, tp = rng.random(), rng.random()
        base[node] = NormalizedConfusionMatrix(tn=1.0 - fp, fp=fp, fn=1.0 - tp, tp=tp)
    return Pipeline(nodes, fs), ClassifierProfileSet(base=base, root=nodes[0])


def verify_oracles(t: Taxonomy, profiles: ClassifierProfileSet, tol: float, max_len: int,
                   samples: int, seed: int) -> Verification:
    """Cross-check the closed form, the recurrence and, up to depth ``max_len``,
    exact enumeration on every pipeline of ``t`` and on ``samples`` random ones
    drawn from the stream keyed by ``seed``; a check passes within ``tol``.

    Taxonomy pipelines come prefix-first, and each one's classifier chain is
    its parent's plus one step, so the recurrence takes one
    :func:`omega_step` per pipeline but the root, from its parent prefix's
    value.  The root and the random pipelines are folded from the root by
    :func:`omega_recursive`.  Either way each value is
    :func:`omega_recursive`'s, bit for bit.  The closed form and exact
    enumeration evaluate each pipeline on its own.
    """
    checks = []

    def run_one(source: str, pipeline: Pipeline, profiles: ClassifierProfileSet,
                closed: JointMatrix, recursive: JointMatrix) -> None:
        rows = [("closed_vs_recursive", closed.max_abs_diff(recursive)),
                ("mass_sums_to_one", abs(recursive.total - 1.0))]
        if pipeline.depth <= max_len:
            exact = enumerate_exact(pipeline, profiles)
            rows.append(("exact_vs_recursive", exact.max_abs_diff(recursive)))
            rows.append(("exact_vs_closed", exact.max_abs_diff(closed)))
        checks.extend(OracleCheck(source, pipeline, check, diff, diff <= tol)
                      for check, diff in rows)

    # ``live[k]`` holds the recurrence value of the live prefix at depth k,
    # so finished subtrees free theirs
    live: list[JointMatrix] = []
    for p in enumerate_pipelines(t):
        closed = omega_closed(p, profiles)  # raises where ``p`` lacks an f or a profile
        del live[p.depth:]
        recursive = (omega_step(live[-1], p.fs[-1], profiles.resolve(p, p.depth)) if p.depth
                     else omega_recursive(p, profiles))
        live.append(recursive)
        run_one("taxonomy", p, profiles, closed, recursive)
    rng = PhiloxStream(stream_key(seed, "verify"))
    for i in range(samples):
        pipeline, sample_profiles = _random_pipeline(rng, max_len)
        run_one(f"random[{i}]", pipeline, sample_profiles,
                omega_closed(pipeline, sample_profiles),
                omega_recursive(pipeline, sample_profiles))
    return Verification(tol, max_len, samples, seed, tuple(checks))
