"""Monte-Carlo oracle for the analytic pipeline model, and the imbalance sweep.

:func:`simulate_pipeline` / :func:`simulate_taxonomy` draw documents from
the generative process and tally what actually happens; the tally is
compared to the prediction cell by cell in binomial standard errors.  The
exact-enumeration oracle and the ``verify`` check, which need no numpy,
live in :mod:`.oracles`.

Simulation draws come from named counter-based streams (:mod:`.rng`), so
outcomes are reproducible bit for bit from the seed alone.

:func:`run_simulation` and :func:`imbalance_sweep` run the ``simulate`` and
``sweep`` commands and return frozen records, which :mod:`.io` writes.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    InfeasibleTargetError,
    MissingEdgeProbabilityError,
    OutOfRangeProbabilityError,
)
from .metrics import DEFAULT_Z_THRESHOLD, MetricReport, pipeline_metrics
from .model import ClassifierProfileSet, JointMatrix, _closed_form, omega_closed
from .rng import _generator, uniforms
from .taxonomy import CategoryId, Pipeline, Taxonomy, _Checked, enumerate_pipelines


class SimConfig(_Checked, NamedTuple("SimConfig", [("m", int), ("seed", int)])):
    """Settings of a simulation run; identical config + inputs => identical output."""

    __slots__ = ()

    def __new__(cls, m: int, seed: int = 42):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        return super().__new__(cls, m, seed)


def _tally(x: np.ndarray, c: np.ndarray) -> tuple[int, int, int, int]:
    """(tn, fp, fn, tp) counts of truth ``x`` against decision ``c``."""
    tp = int(np.count_nonzero(x & c))
    positive = int(np.count_nonzero(x))
    accepted = int(np.count_nonzero(c))
    return x.size - positive - accepted + tp, accepted - tp, positive - tp, tp


class SimOutcome(_Checked, NamedTuple("SimOutcome", [("pipeline", str), ("m", int),
                                                     ("counts", tuple[int, int, int, int])])):
    """Tally of one simulated pipeline: counts in (tn, fp, fn, tp) order."""

    __slots__ = ()

    def __new__(cls, pipeline: str, m: int, counts: tuple[int, int, int, int]):
        if sum(counts) != m:
            raise ValueError("counts must sum to m")
        return super().__new__(cls, pipeline, m, counts)


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
    for k in range(1, len(pipeline.nodes)):
        g = gammas[k - 1]
        u_mem = uniforms(cfg.seed, ("pipeline-membership", pipeline.path, k), m)
        x &= u_mem < fs[k]
        accept_p = np.where(x, g.tp, g.fp)
        u_dec = uniforms(cfg.seed, ("pipeline-decision", pipeline.path, k), m)
        c &= u_dec < accept_p

    return SimOutcome(pipeline=pipeline.path, m=m, counts=_tally(x, c))


def _coin_probability(t: Taxonomy, node: CategoryId, q_of: Mapping[CategoryId, float]) -> float:
    """Per-node coin probability that realizes the node's edge conditional.

    A document can belong to a category only if it belongs to all its
    parents, so gated sampling makes membership of a node the conjunction
    of one independent coin per member of its ancestor closure.  The coin
    is calibrated against the edge from a minimal parent (one with no other
    parent below it): its f = p(node | parent) equals the node's own coin
    times the coins ``q_of`` of every ancestor outside the parent's closure;
    divide those out to get the coin.  Exact for any DAG whose edge
    probabilities are mutually consistent (trees trivially are).  A node
    with one parent has no ancestor outside that parent's closure, so its
    coin is its edge's f, and no closure is built for it.
    """
    parents = t.parents_of(node)
    minimal = parents if len(parents) == 1 else [
        p for p in parents if not any(p in t.ancestors_of(q) for q in parents)]
    edge = t.edge(node, min(minimal))
    if edge.f is None:
        raise MissingEdgeProbabilityError(f"edge {node!r}<{edge.parent!r} has no f")
    if len(parents) == 1:
        return edge.f
    parent_closure = {edge.parent} | t.ancestors_of(edge.parent)
    divisor = 1.0
    for a in sorted(t.ancestors_of(node) - parent_closure):  # a set iterates in str-hash order
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


class TaxonomySimOutcome(NamedTuple):
    """Whole-taxonomy simulation: per-pipeline tallies and the joint matrix
    each pipeline is expected to follow, :func:`omega_closed`'s bit for bit.
    The truth is not kept; :func:`taxonomy_memberships` regenerates it bit
    for bit."""

    per_pipeline: Mapping[str, SimOutcome]
    models: Mapping[str, JointMatrix]


def taxonomy_memberships(t: Taxonomy, cfg: SimConfig) -> dict[CategoryId, np.ndarray]:
    """Category -> boolean array over ``cfg.m`` documents: the label sets that
    whole-taxonomy simulation draws, ancestor-closed by construction.

    One membership coin per category in topological order, gated by all
    its parents, so a category is entered only if all its parents were.
    """
    m = cfg.m
    memberships: dict[CategoryId, np.ndarray] = {t.root: np.ones(m, dtype=bool)}
    q_of: dict[CategoryId, float] = {t.root: 1.0}
    for node in t.topological_order[1:]:
        q = q_of[node] = _coin_probability(t, node, q_of)
        first, *others = t.parents_of(node)
        gate = memberships[first]
        for p in others:
            gate = gate & memberships[p]
        u = uniforms(cfg.seed, ("taxonomy-membership", node), m)
        memberships[node] = gate & (u < q)
    return memberships


def simulate_taxonomy(
    t: Taxonomy, profiles: ClassifierProfileSet, cfg: SimConfig
) -> TaxonomySimOutcome:
    """Flow documents through the whole taxonomy top-down and tally per pipeline.

    Truth: the label sets of :func:`taxonomy_memberships`.  Decisions: every
    accepting classifier forwards to all children, so each rooted path
    re-judges the document while its prefix kept accepting.  Each rooted
    prefix's classifier decides once, for every pipeline that extends it, as
    the profiles resolve it; the model matrices in ``models`` are built from
    the same chains, so each is :func:`omega_closed`'s.
    """
    return _simulate_taxonomy(t, profiles, cfg, {})


def _simulate_taxonomy(
    t: Taxonomy, profiles: ClassifierProfileSet, cfg: SimConfig, models: dict[str, JointMatrix]
) -> TaxonomySimOutcome:
    """:func:`simulate_taxonomy`, building only the models that ``models``
    lacks into it, so replications that pass the same dict build each once."""
    m = cfg.m
    memberships = taxonomy_memberships(t, cfg)

    # decisions: one stream per rooted prefix, shared by extending pipelines.
    # Pipelines come prefix-first, so each one extends its parent prefix's
    # decisions and resolved classifiers by one step.  ``path[k]``
    # holds them for the live prefix at depth k, so finished subtrees free theirs.
    path: list[tuple] = []
    per_pipeline: dict[str, SimOutcome] = {}
    for p in enumerate_pipelines(t):
        x = memberships[p.nodes[-1]]
        del path[p.depth:]
        if p.depth == 0:
            d, chain = np.ones(m, dtype=bool), ()
        else:
            d, chain = path[-1]
            g = profiles.resolve(p, p.depth)
            u = uniforms(cfg.seed, ("taxonomy-decision", p.path), m)
            d = d & (u < np.where(x, g.tp, g.fp))
            chain += (g,)
        path.append((d, chain))
        per_pipeline[p.path] = SimOutcome(pipeline=p.path, m=m, counts=_tally(x, d))
        if p.path not in models:
            models[p.path] = JointMatrix(*_closed_form(p.require_fs(), chain))

    return TaxonomySimOutcome(per_pipeline=per_pipeline, models=models)


class CellDeviation(NamedTuple):
    """Model-vs-empirical deviation of one joint-matrix cell."""

    cell: str
    model: float
    sigma: float
    z: float


class DeviationReport(NamedTuple):
    """Cell-by-cell comparison of a predicted joint matrix to a tally."""

    cells: tuple[CellDeviation, ...]
    threshold: float

    @property
    def max_z(self) -> float:
        """The largest cell z-score."""
        return max(c.z for c in self.cells)

    @property
    def passed(self) -> bool:
        """True when no cell's z-score exceeds the threshold."""
        return self.max_z <= self.threshold


def compare(
    model: JointMatrix, outcome: SimOutcome, z_threshold: float = DEFAULT_Z_THRESHOLD
) -> DeviationReport:
    """Score a tally against its predicted joint matrix.

    Each cell's deviation |count/m - prediction| is expressed in binomial
    standard errors sqrt(p (1-p) / m); a zero-variance cell (p of 0 or 1)
    scores 0 when it matches exactly and infinity otherwise.  A prediction
    that rounding left just outside [0, 1] is scored clamped into it.
    """
    m = outcome.m
    cells = []
    for name, pred, count in zip(("tn", "fp", "fn", "tp"), model.as_tuple(), outcome.counts):
        pred = min(max(pred, 0.0), 1.0)
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
        cells.append(CellDeviation(cell=name, model=pred, sigma=sigma, z=z))
    return DeviationReport(cells=tuple(cells), threshold=z_threshold)


class SimRun(NamedTuple):
    """One simulated pipeline of one replication, scored against its model."""

    replication: int
    seed: int
    outcome: SimOutcome
    model: JointMatrix
    deviation: DeviationReport


class Simulation(NamedTuple):
    """Every run of a ``simulate`` invocation, with the settings it ran under."""

    m: int
    seed: int
    replications: int
    z_threshold: float
    runs: tuple[SimRun, ...]

    @property
    def passed(self) -> bool:
        return all(r.deviation.passed for r in self.runs)


def run_simulation(t: Taxonomy, profiles: ClassifierProfileSet, m: int, seed: int,
                   replications: int, z_threshold: float,
                   pipeline: Pipeline | None = None) -> Simulation:
    """Simulate ``replications`` runs of ``m`` documents, replication r with
    seed ``seed + r``, through the whole taxonomy or through ``pipeline``
    alone, and compare each pipeline's tally to its model."""
    predicted = omega_closed(pipeline, profiles) if pipeline is not None else None
    models: dict[str, JointMatrix] = {}  # whole-taxonomy models, built in replication 0
    runs = []
    for r in range(replications):
        cfg = SimConfig(m=m, seed=seed + r)
        if pipeline is not None:
            pairs = [(predicted, simulate_pipeline(pipeline, profiles, cfg))]
        else:
            result = _simulate_taxonomy(t, profiles, cfg, models)
            pairs = [(result.models[path], outcome)
                     for path, outcome in result.per_pipeline.items()]
        runs.extend(SimRun(r, cfg.seed, outcome, model,
                           compare(model, outcome, z_threshold=z_threshold))
                    for model, outcome in pairs)
    return Simulation(m, seed, replications, z_threshold, tuple(runs))


class SweepRow(NamedTuple):
    """One sampled edge-probability chain and the metrics it induces."""

    fs: tuple[float, ...]
    omega: JointMatrix
    report: MetricReport


class SweepSpread(NamedTuple):
    """Min/max/mean of a metric across the sweep (ignoring undefined rows);
    ``None`` when the metric is undefined in every row."""

    metric: str
    minimum: float | None
    maximum: float | None
    mean: float | None
    undefined: int


class SweepResult(NamedTuple):
    pipeline: str
    target: float
    seed: int
    rows: tuple[SweepRow, ...]
    spreads: tuple[SweepSpread, ...]


def _mean(values: Sequence[float]) -> float:
    """The mean of ``values``, summed left to right: from Python 3.12 on,
    ``sum`` compensates float sums, which can move the last bit."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def imbalance_sweep(
    pipeline: Pipeline,
    profiles: ClassifierProfileSet,
    target_positive_rate: float,
    n_distributions: int,
    seed: int,
) -> SweepResult:
    """Metrics of one pipeline under many input distributions of equal imbalance.

    Samples edge-probability chains whose product is the target positive
    rate up to rounding, by splitting its logarithm with Dirichlet weights:
    f_j = target^(w_j), so every chain lands the same share of positives on
    the last category while distributing the attrition differently.  Recall
    is identical across rows; precision and F1 spread out.  ``seed`` keys
    the random stream.
    """
    if isinstance(seed, SimConfig):
        # the earlier signature took a SimConfig for its seed alone, and
        # bench/layers.py still passes one
        seed = seed.seed
    depth = pipeline.depth
    if not 0.0 < target_positive_rate < 1.0:
        raise InfeasibleTargetError(
            f"target positive rate {target_positive_rate} outside (0, 1)"
        )
    if depth < 2:
        raise InfeasibleTargetError("need a pipeline of depth >= 2 to vary the distribution")
    if n_distributions < 1:
        raise InfeasibleTargetError("need at least one distribution")

    gammas = profiles.gamma_chain(pipeline)
    weights = _generator(seed, ("sweep", pipeline.path)).dirichlet(np.ones(depth),
                                                                   size=n_distributions)
    # Python's scalar pow, not numpy's array power, which can differ in the last bit
    chains = [(1.0,) + tuple(target_positive_rate**w for w in row) for row in weights.tolist()]
    # every row's cells in one pass: step k's f values are column k
    columns = _closed_form(np.array(chains).T, gammas)
    rows = []
    for fs, cells in zip(chains, zip(*(c.tolist() for c in columns))):
        omega = JointMatrix(*cells)
        rows.append(SweepRow(fs=fs, omega=omega, report=pipeline_metrics(omega)))

    spreads = []
    for metric in ("precision", "recall", "f1", "accuracy"):
        values = [getattr(r.report, metric) for r in rows]
        defined = [v for v in values if v is not None]
        spreads.append(
            SweepSpread(
                metric=metric,
                minimum=min(defined, default=None),
                maximum=max(defined, default=None),
                mean=_mean(defined) if defined else None,
                undefined=len(values) - len(defined),
            )
        )

    return SweepResult(
        pipeline=pipeline.path,
        target=target_positive_rate,
        seed=seed,
        rows=tuple(rows),
        spreads=tuple(spreads),
    )
