"""Independent oracles for the analytic pipeline model.

Two ways to check a predicted joint matrix without trusting the algebra
that produced it:

* :func:`enumerate_exact` sums the probability of every admissible
  truth/decision trajectory of the event tree (truth can only narrow,
  decisions can only stop); it shares no code with the matrix recurrence.
* :func:`simulate_pipeline` / :func:`simulate_taxonomy` draw documents
  from the generative process and tally what actually happens; the tally
  is compared to the prediction cell by cell in binomial standard errors.

Simulation draws come from named counter-based streams (:mod:`.rng`), so
outcomes are reproducible bit for bit from the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import (
    InfeasibleTargetError,
    MissingEdgeProbabilityError,
    OutOfRangeProbabilityError,
)
from .metrics import DEFAULT_Z_THRESHOLD, MetricReport, pipeline_metrics
from .model import (
    Cells2x2,
    ClassifierProfileSet,
    JointMatrix,
    _closed_form,
    omega_closed,
)
from .rng import stream_key, uniforms
from .taxonomy import CategoryId, Pipeline, Taxonomy, enumerate_pipelines


@dataclass(frozen=True)
class SimConfig:
    """Settings of a simulation run; identical config + inputs => identical output."""

    m: int
    seed: int = 42

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


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

    def walk(k: int, x_prev: int, c_prev: int, prob: float) -> None:
        if prob == 0.0:
            return
        if k > last:
            cells[x_prev][c_prev] += prob
            return
        f, g = fs[k], gammas[k - 1]
        for x in (0, 1):
            if x_prev == 0 and x == 1:
                continue  # truth can only narrow
            p_x = 1.0 if x_prev == 0 else (f if x == 1 else 1.0 - f)
            for c in (0, 1):
                if c_prev == 0 and c == 1:
                    continue  # once rejected, rejected forever
                if c_prev == 0:
                    p_c = 1.0
                else:
                    row = (g.fn, g.tp) if x == 1 else (g.tn, g.fp)
                    p_c = row[c]
                walk(k + 1, x, c, prob * p_x * p_c)

    walk(1, 1, 1, 1.0)
    return JointMatrix(tn=cells[0][0], fp=cells[0][1], fn=cells[1][0], tp=cells[1][1])


def _tally(x: np.ndarray, c: np.ndarray) -> tuple[int, int, int, int]:
    """(tn, fp, fn, tp) counts of truth ``x`` against decision ``c``."""
    tp = int(np.count_nonzero(x & c))
    positive = int(np.count_nonzero(x))
    accepted = int(np.count_nonzero(c))
    return x.size - positive - accepted + tp, accepted - tp, positive - tp, tp


@dataclass(frozen=True)
class SimOutcome:
    """Tally of one simulated pipeline: counts in (tn, fp, fn, tp) order."""

    pipeline: str
    m: int
    counts: tuple[int, int, int, int]
    counts_by_depth: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if sum(self.counts) != self.m:
            raise ValueError("counts must sum to m")

    @property
    def empirical(self) -> Cells2x2:
        """Empirical joint mass: counts / m."""
        tn, fp, fn, tp = self.counts
        return Cells2x2(tn=tn / self.m, fp=fp / self.m, fn=fn / self.m, tp=tp / self.m)


def simulate_pipeline(
    pipeline: Pipeline, profiles: ClassifierProfileSet, cfg: SimConfig
) -> SimOutcome:
    """Flow ``cfg.m`` sampled documents through one pipeline and tally.

    Per document: membership stays on while each Bernoulli(f_k) succeeds,
    then off forever; the decision stays on while each classifier accepts
    (tp-rate row when the document is truly inside, fp-rate row when not),
    then off forever.
    """
    fs = pipeline.require_fs()
    gammas = profiles.gamma_chain(pipeline)
    m = cfg.m

    x = np.ones(m, dtype=bool)
    c = np.ones(m, dtype=bool)
    by_depth = [_tally(x, c)]
    for k in range(1, len(pipeline.nodes)):
        g = gammas[k - 1]
        u_mem = uniforms(cfg.seed, ("pipeline-membership", pipeline.path, k), m)
        x &= u_mem < fs[k]
        accept_p = np.where(x, g.tp, g.fp)
        u_dec = uniforms(cfg.seed, ("pipeline-decision", pipeline.path, k), m)
        c &= u_dec < accept_p
        by_depth.append(_tally(x, c))

    return SimOutcome(
        pipeline=pipeline.path,
        m=m,
        counts=by_depth[-1],
        counts_by_depth=tuple(by_depth),
    )


def _membership_gate_edge(t: Taxonomy, node: CategoryId):
    """The in-edge carrying the node's firing conditional, plus all parents.

    A document can belong to a category only if it belongs to all its
    parents.  The membership draw is calibrated against the edge from a
    minimal parent (one with no other parent below it); conditions implied
    by the remaining parents are divided out separately.
    """
    parents = t.parents_of(node)
    minimal = [p for p in parents if not any(p in t.ancestors_of(q) for q in parents)]
    chosen = sorted(minimal)[0]
    edge = t.edge(node, chosen)
    assert edge is not None
    return edge, parents


def _firing_probability(
    t: Taxonomy, node: CategoryId, edge, q_of: Mapping[CategoryId, float]
) -> float:
    """Per-node coin probability that realizes the supplied edge conditional.

    Gated sampling makes membership of a node the conjunction of one
    independent coin per member of its ancestor closure.  The supplied
    f = p(node | parent) therefore equals the node's own coin probability
    times the coins of every ancestor outside the parent's closure; divide
    those out to get the coin.  Exact for any DAG whose edge probabilities
    are mutually consistent (trees trivially are).
    """
    parent_closure = {edge.parent} | t.ancestors_of(edge.parent)
    divisor = 1.0
    for a in t.ancestors_of(node) - parent_closure:
        divisor *= q_of[a]
    if divisor == 0.0:
        if edge.f == 0.0:
            return 0.0
        raise OutOfRangeProbabilityError(
            f"edge {node!r}<{edge.parent!r}: f={edge.f} conditions on an event of "
            "probability zero"
        )
    q = edge.f / divisor
    if q > 1.0 + 1e-9:
        raise OutOfRangeProbabilityError(
            f"edge {node!r}<{edge.parent!r}: f={edge.f} is infeasible given the "
            f"other parents (implied coin probability {q})"
        )
    return min(q, 1.0)


@dataclass(frozen=True)
class TaxonomySimOutcome:
    """Whole-taxonomy simulation: shared truth, per-pipeline tallies.

    ``memberships`` maps category -> boolean array over documents (the
    generated label sets, ancestor-closed by construction); ``models``
    carries the joint matrix each pipeline is expected to follow, resolved
    the same way the simulation resolved its classifiers.
    """

    m: int
    categories: tuple[CategoryId, ...]
    memberships: Mapping[CategoryId, np.ndarray]
    per_pipeline: Mapping[str, SimOutcome]
    models: Mapping[str, JointMatrix]

    def label_sets(self, limit: int | None = None) -> Iterator[frozenset[CategoryId]]:
        """Yield per-document label sets (optionally only the first ``limit``)."""
        n = self.m if limit is None else min(limit, self.m)
        for i in range(n):
            yield frozenset(c for c in self.categories if self.memberships[c][i])


def simulate_taxonomy(
    t: Taxonomy, profiles: ClassifierProfileSet, cfg: SimConfig
) -> TaxonomySimOutcome:
    """Flow documents through the whole taxonomy top-down and tally per pipeline.

    Truth: each document's label set grows from the root; a category is
    entered only if all its parents were (ancestor closure is structural),
    with one membership draw per category.  Decisions: every accepting
    classifier forwards to all children, so each rooted path re-judges the
    document while its prefix kept accepting.  Classifier profiles are
    resolved per rooted prefix, which is also how the per-pipeline model
    matrices in ``models`` are built.
    """
    m = cfg.m

    # truth: one membership coin per category, gated by all parents
    memberships: dict[CategoryId, np.ndarray] = {t.root: np.ones(m, dtype=bool)}
    q_of: dict[CategoryId, float] = {t.root: 1.0}
    order = sorted(t.categories - {t.root}, key=lambda c: (len(t.ancestors_of(c)), c))
    for node in order:
        edge, parents = _membership_gate_edge(t, node)
        if edge.f is None:
            raise MissingEdgeProbabilityError(f"edge {node!r}<{edge.parent!r} has no f")
        q = _firing_probability(t, node, edge, q_of)
        q_of[node] = q
        gate = np.ones(m, dtype=bool)
        for p in parents:
            gate &= memberships[p]
        u = uniforms(cfg.seed, ("taxonomy-membership", node), m)
        memberships[node] = gate & (u < q)

    # decisions: one stream per rooted prefix, shared by extending pipelines.
    # Pipelines come prefix-first, so each one extends its parent prefix's
    # decisions, tallies and resolved classifiers by one step.
    prefixes: dict[tuple[CategoryId, ...], tuple] = {}
    per_pipeline: dict[str, SimOutcome] = {}
    models: dict[str, JointMatrix] = {}
    for p in enumerate_pipelines(t):
        x = memberships[p.nodes[-1]]
        if p.depth == 0:
            d, chain, by_depth = np.ones(m, dtype=bool), (), ()
        else:
            d, chain, by_depth = prefixes[p.nodes[:-1]]
            g = profiles.resolve(p, p.depth)
            u = uniforms(cfg.seed, ("taxonomy-decision", p.path), m)
            d = d & (u < np.where(x, g.tp, g.fp))
            chain += (g,)
        by_depth += (_tally(x, d),)
        prefixes[p.nodes] = d, chain, by_depth
        per_pipeline[p.path] = SimOutcome(
            pipeline=p.path, m=m, counts=by_depth[-1], counts_by_depth=by_depth
        )
        models[p.path] = JointMatrix(*_closed_form(p.require_fs(), chain))

    return TaxonomySimOutcome(
        m=m,
        categories=tuple(sorted(t.categories)),
        memberships=memberships,
        per_pipeline=per_pipeline,
        models=models,
    )


@dataclass(frozen=True)
class CellDeviation:
    """Model-vs-empirical deviation of one joint-matrix cell."""

    cell: str
    model: float
    empirical: float
    deviation: float
    sigma: float
    z: float


@dataclass(frozen=True)
class DeviationReport:
    """Cell-by-cell comparison of a predicted joint matrix to a tally."""

    cells: tuple[CellDeviation, ...]
    max_z: float
    threshold: float
    passed: bool


def compare(
    model: JointMatrix,
    outcome: SimOutcome | Sequence[int],
    m: int | None = None,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
) -> DeviationReport:
    """Score a tally against its predicted joint matrix.

    Each cell's deviation |count/m - prediction| is expressed in binomial
    standard errors sqrt(p (1-p) / m); a zero-variance cell (p of 0 or 1)
    scores 0 when it matches exactly and infinity otherwise.
    """
    if isinstance(outcome, SimOutcome):
        counts = outcome.counts
        m = outcome.m
    else:
        counts = tuple(outcome)
        if m is None:
            raise ValueError("m is required when passing raw counts")
    cells = []
    for name, pred, count in zip(("tn", "fp", "fn", "tp"), model.as_tuple(), counts):
        emp = count / m
        dev = abs(emp - pred)
        sigma = math.sqrt(pred * (1.0 - pred) / m)
        if sigma == 0.0 and 0.0 < pred < 1.0:
            # pred*(1-pred)/m underflows for subnormal pred; the product of
            # square roots does not
            sigma = math.sqrt(pred) * math.sqrt((1.0 - pred) / m)
        if sigma > 0.0:
            z = dev / sigma
        else:
            z = 0.0 if dev == 0.0 else math.inf
        cells.append(
            CellDeviation(cell=name, model=pred, empirical=emp, deviation=dev, sigma=sigma, z=z)
        )
    max_z = max(c.z for c in cells)
    return DeviationReport(
        cells=tuple(cells), max_z=max_z, threshold=z_threshold, passed=max_z <= z_threshold
    )


@dataclass(frozen=True)
class SweepRow:
    """One sampled edge-probability chain and the metrics it induces."""

    fs: tuple[float, ...]
    omega: JointMatrix
    report: MetricReport


@dataclass(frozen=True)
class SweepSpread:
    """Min/max/mean of a metric across the sweep (ignoring undefined rows)."""

    metric: str
    minimum: float
    maximum: float
    mean: float
    undefined: int


@dataclass(frozen=True)
class SweepResult:
    pipeline: str
    target: float
    rows: tuple[SweepRow, ...]
    spreads: tuple[SweepSpread, ...]


def imbalance_sweep(
    pipeline: Pipeline,
    profiles: ClassifierProfileSet,
    target_positive_rate: float,
    n_distributions: int,
    cfg: SimConfig,
) -> SweepResult:
    """Metrics of one pipeline under many input distributions of equal imbalance.

    Samples edge-probability chains whose product is exactly the target
    positive rate, by splitting its logarithm with Dirichlet weights:
    f_j = target^(w_j), so every chain lands the same share of positives on
    the last category while distributing the attrition differently.  Recall
    is identical across rows; precision and F1 spread out.
    """
    depth = pipeline.depth
    if not 0.0 < target_positive_rate < 1.0:
        raise InfeasibleTargetError(
            f"target positive rate {target_positive_rate} outside (0, 1)"
        )
    if depth < 2:
        raise InfeasibleTargetError("need a pipeline of depth >= 2 to vary the distribution")
    if n_distributions < 1:
        raise InfeasibleTargetError("need at least one distribution")

    rng = Generator(Philox(key=stream_key(cfg.seed, "sweep", pipeline.path)))
    rows = []
    for _ in range(n_distributions):
        weights = rng.dirichlet(np.ones(depth))
        fs = (1.0,) + tuple(float(target_positive_rate**w) for w in weights)
        variant = Pipeline(pipeline.nodes, fs)
        omega = omega_closed(variant, profiles)
        rows.append(SweepRow(fs=fs, omega=omega, report=pipeline_metrics(omega)))

    spreads = []
    for metric in ("precision", "recall", "f1", "accuracy"):
        values = [getattr(r.report, metric) for r in rows]
        defined = [v for v in values if v is not None]
        undefined = len(values) - len(defined)
        if defined:
            spreads.append(
                SweepSpread(
                    metric=metric,
                    minimum=min(defined),
                    maximum=max(defined),
                    mean=sum(defined) / len(defined),
                    undefined=undefined,
                )
            )
        else:
            spreads.append(
                SweepSpread(metric=metric, minimum=math.nan, maximum=math.nan,
                            mean=math.nan, undefined=undefined)
            )

    return SweepResult(
        pipeline=pipeline.path,
        target=target_positive_rate,
        rows=tuple(rows),
        spreads=tuple(spreads),
    )
