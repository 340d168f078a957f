"""Input parsing and deterministic report writing.

Two JSON input formats:

Taxonomy::

    {"root": "A",
     "categories": ["A", "B"],
     "edges": [{"child": "B", "parent": "A", "f": 0.6}]}

Classifier profiles::

    {"classifiers": {"B": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8}},
     "overrides": [{"pipeline": "A/B", "category": "B",
                    "tn": 0.8, "fp": 0.2, "fn": 0.1, "tp": 0.9}]}

Pipelines are serialized as slash-joined category names everywhere.  Parse
errors carry a location; probabilities outside their contract are rejected,
never coerced.  Confusion rows are accepted when they sum to 1 within 1e-9,
renormalized exactly, and the adjustment is recorded in the report.

Every output layout lives here: one ``write_*`` function per library record,
each writing JSON or TSV, byte-identical for identical inputs.  Pipelines
come in enumeration order (lexicographic on the category sequence, prefix
first), keys in a fixed order, and reals with 12 significant digits.  A
report's depth rows are rendered once each per call, however many pipelines
share them.

A writer passes its text to a text sink piece by piece as it renders, so
the whole text is never held in memory.  Called without a sink, it writes
into an :class:`io.StringIO` and returns the text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from io import StringIO
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

from .errors import (
    MissingGammaError,
    OutOfRangeProbabilityError,
    ParseError,
    RootProfileForbiddenError,
    UnknownCategoryError,
)
from .metrics import DepthProfile, DepthRow, MetricReport, _fold
from .model import Cells2x2, ClassifierProfileSet, NormalizedConfusionMatrix
from .taxonomy import (
    Edge,
    Pipeline,
    Taxonomy,
    enumerate_pipelines,
    find_pipeline,
    validate_taxonomy,
)

if TYPE_CHECKING:  # importing the simulator loads numpy; writing needs neither
    from .simulate import SimRun, Simulation, SweepResult, Verification

#: tolerance for accepting hand-typed confusion rows before renormalizing
ROW_SUM_TOLERANCE = 1e-9


# --- parsing -----------------------------------------------------------------


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict, refusing a key given twice (``json`` keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def _load_json(text: str, what: str) -> Any:
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(str(e), location=f"{what}: line {e.lineno}, column {e.colno}") from None
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply", location=what) from None
    except ValueError as e:  # an integer literal beyond the digit limit, say
        raise ParseError(str(e), location=what) from None


def _require_keys(obj: Mapping, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, Mapping):
        raise ParseError(f"expected an object, got {type(obj).__name__}", location=where)
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}", location=where)
    missing = required - set(obj)
    if missing:
        raise ParseError(f"missing keys {sorted(missing)}", location=where)


def _echo(v: Any) -> str:
    """``repr(v)`` for an error line; one over 32 characters (an integer of
    up to 4,300 digits, say) is cut to its first 16 and its length."""
    text = repr(v)
    return text if len(text) <= 32 else f"{text[:16]}... ({len(text)} characters)"


def _probability(raw: Mapping, key: str, where: str) -> float:
    """``raw[key]``, a JSON number in [0, 1], as a float.  The range test
    comes before the conversion, so an integer too large for a float is
    rejected, not overflowed."""
    v = raw[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ParseError(f"{key} must be a number, got {_echo(v)}", location=where)
    if not 0 <= v <= 1:
        raise OutOfRangeProbabilityError(f"{where}: {key}={_echo(v)} outside [0, 1]")
    return float(v)


def parse_taxonomy(text: str) -> Taxonomy:
    """Parse and validate the taxonomy JSON format."""
    data = _load_json(text, "taxonomy")
    _require_keys(data, {"root", "categories", "edges"}, {"root", "categories", "edges"},
                  "taxonomy")
    cats = data["categories"]
    if not isinstance(cats, list) or not all(isinstance(c, str) for c in cats):
        raise ParseError("categories must be a list of strings", location="taxonomy.categories")
    seen: set[str] = set()
    for i, c in enumerate(cats):
        if c in seen:
            raise ParseError(f"duplicate category {c!r}", location=f"taxonomy.categories[{i}]")
        seen.add(c)
    if not isinstance(data["edges"], list):
        raise ParseError("edges must be a list", location="taxonomy.edges")
    edges = []
    for i, raw in enumerate(data["edges"]):
        where = f"taxonomy.edges[{i}]"
        _require_keys(raw, {"child", "parent", "f"}, {"child", "parent"}, where)
        if not isinstance(raw["child"], str) or not isinstance(raw["parent"], str):
            raise ParseError("child and parent must be strings", location=where)
        f = None if raw.get("f") is None else _probability(raw, "f", where)
        edges.append(Edge(child=raw["child"], parent=raw["parent"], f=f))
    if not isinstance(data["root"], str):
        raise ParseError("root must be a string", location="taxonomy.root")
    return validate_taxonomy(cats, edges, root=data["root"])


def _parse_row_matrix(
    raw: Mapping, where: str
) -> tuple[NormalizedConfusionMatrix, bool]:
    """Read a key-checked tn/fp/fn/tp object: the matrix, and whether rows moved."""
    vals = {key: _probability(raw, key, where) for key in ("tn", "fp", "fn", "tp")}
    renormalized = False
    for row, (a, b) in (("negative", ("tn", "fp")), ("positive", ("fn", "tp"))):
        s = vals[a] + vals[b]
        if abs(s - 1.0) > ROW_SUM_TOLERANCE:
            raise OutOfRangeProbabilityError(
                f"{where}: {row} row sums to {s!r}, expected 1 within {ROW_SUM_TOLERANCE}"
            )
        if s != 1.0:
            vals[a] /= s
            vals[b] /= s
            renormalized = True
    return NormalizedConfusionMatrix(**vals), renormalized


@dataclass(frozen=True)
class InputBundle:
    """Parsed, cross-validated taxonomy plus profiles, ready for analysis."""

    taxonomy: Taxonomy
    profiles: ClassifierProfileSet
    renormalized: tuple[str, ...] = ()


def parse_profiles(text: str, taxonomy: Taxonomy) -> tuple[ClassifierProfileSet, tuple[str, ...]]:
    """Parse the profiles JSON format against a validated taxonomy."""
    data = _load_json(text, "profiles")
    _require_keys(data, {"classifiers", "overrides"}, {"classifiers"}, "profiles")
    raw_cls = data["classifiers"]
    if not isinstance(raw_cls, Mapping):
        raise ParseError("classifiers must be an object", location="profiles.classifiers")

    renormalized: list[str] = []
    base: dict[str, NormalizedConfusionMatrix] = {}
    for name in raw_cls:
        where = f"profiles.classifiers.{name}"
        if name not in taxonomy.categories:
            raise UnknownCategoryError(f"{where}: unknown category {name!r}")
        if name == taxonomy.root:
            raise RootProfileForbiddenError(
                f"{where}: the root passes everything down; its profile is fixed"
            )
        _require_keys(raw_cls[name], {"tn", "fp", "fn", "tp"}, {"tn", "fp", "fn", "tp"}, where)
        matrix, moved = _parse_row_matrix(raw_cls[name], where)
        base[name] = matrix
        if moved:
            renormalized.append(name)

    raw_overrides = data.get("overrides", [])
    if not isinstance(raw_overrides, list):
        raise ParseError("overrides must be a list", location="profiles.overrides")
    overrides: dict[tuple[str, str], NormalizedConfusionMatrix] = {}
    for i, raw in enumerate(raw_overrides):
        where = f"profiles.overrides[{i}]"
        _require_keys(raw, {"pipeline", "category", "tn", "fp", "fn", "tp"},
                      {"pipeline", "category", "tn", "fp", "fn", "tp"}, where)
        if not isinstance(raw["pipeline"], str) or not isinstance(raw["category"], str):
            raise ParseError("pipeline and category must be strings", location=where)
        path = raw["pipeline"]
        try:
            nodes = find_pipeline(taxonomy, path).nodes
        except UnknownCategoryError:
            raise ParseError(f"{path!r} is not a pipeline of this taxonomy",
                             location=where) from None
        cat = raw["category"]
        if cat not in nodes:
            raise ParseError(f"category {cat!r} does not occur in pipeline {path!r}",
                             location=where)
        if cat == taxonomy.root:
            raise RootProfileForbiddenError(f"{where}: cannot override the root")
        if cat != nodes[-1]:
            prefix = "/".join(nodes[:nodes.index(cat) + 1])
            raise ParseError(f"an override of {cat!r} is keyed by the path that ends at it, "
                             f"{prefix!r}, not {path!r}", location=where)
        matrix, moved = _parse_row_matrix(raw, where)
        if (path, cat) in overrides:
            raise ParseError(f"duplicate override for {cat!r} in {path!r}", location=where)
        overrides[(path, cat)] = matrix
        if moved:
            renormalized.append(f"{path}:{cat}")

    missing = sorted(
        c for c in taxonomy.categories if c != taxonomy.root and c not in base
    )
    if missing:
        raise MissingGammaError(f"categories without a classifier profile: {missing}")

    profile_set = ClassifierProfileSet(base=base, overrides=overrides, root=taxonomy.root)
    return profile_set, tuple(sorted(renormalized))


def parse_inputs(taxonomy_text: str, profiles_text: str) -> InputBundle:
    """Parse both input files into a cross-validated bundle."""
    taxonomy = parse_taxonomy(taxonomy_text)
    profiles, renormalized = parse_profiles(profiles_text, taxonomy)
    return InputBundle(taxonomy=taxonomy, profiles=profiles, renormalized=renormalized)


# --- serialization -----------------------------------------------------------


def fmt12(x: float) -> str:
    """A real number with 12 significant digits, as text."""
    return f"{x:.12g}"


def _cell12(x: float | None) -> str:
    """A TSV cell: :func:`fmt12`, or ``-`` where the value is undefined."""
    return "-" if x is None else fmt12(x)


def _text(writer: Callable[..., None], *args: Any) -> str:
    """What ``writer(*args, sink)`` writes into a text sink, as one string."""
    sink = StringIO()
    writer(*args, sink)
    return sink.getvalue()


def tsv(header: Sequence[str], rows: Iterable[Sequence[str]],
        out: TextIO | None = None) -> str | None:
    """A tab-separated table: the header line, then one line per row of
    already formatted cells, each line ending in a newline.  Written line by
    line into ``out``; without a sink, returned as a string."""
    if out is None:
        return _text(tsv, header, rows)
    write = out.write
    write("\t".join(header) + "\n")
    for cells in rows:
        write("\t".join(cells) + "\n")
    return None


_encode_str = json.encoder.encode_basestring_ascii
_INFINITIES = (math.inf, -math.inf)


def _real(x: float) -> str:
    """The JSON text of a float: the shortest text of its :func:`fmt12` rounding.

    A 12-digit text without an exponent already is that shortest text, less
    the ``.0`` that ``repr`` gives an integer value; an exponent form (values
    below 1e-4 or from 1e12 up, subnormals included) is parsed back and
    written by ``repr``.
    """
    if x != x or x in _INFINITIES:
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    s = fmt12(x)
    if "e" in s:
        return float.__repr__(float(s))
    return s if "." in s else s + ".0"


class _Text(str):
    """JSON text already written, which :func:`_write_json` copies as it is."""


def _write_json(o: Any, write: Callable[[str], Any], newline: str) -> None:
    """Pass the JSON text of ``o`` to ``write``, in fragments, as
    ``json.dumps(indent=2)`` writes it; ``newline`` is a line break plus the
    indent of o's own line.

    A :class:`_Text` fragment is written as it is: it is JSON text already
    written at this indent.  Objects and floats, the bulk of a report, are
    tested first; the other types are disjoint from them, so the order
    changes no output.  Each float is written by :func:`_real`, and a
    non-empty list or tuple of exact floats as one joined string.
    """
    if isinstance(o, dict):
        if not o:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            write(sep + _encode_str(key) + ": ")
            _write_json(value, write, inner)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(o, float):
        write(_real(o))
    elif isinstance(o, _Text):
        write(o)
    elif isinstance(o, str):
        write(_encode_str(o))
    elif o is None:
        write("null")
    elif o is True:
        write("true")
    elif o is False:
        write("false")
    elif isinstance(o, int):
        write(int.__repr__(o))
    elif isinstance(o, (list, tuple, Iterator)):
        inner = newline + "  "
        if o and isinstance(o, (list, tuple)) and all(type(v) is float for v in o):
            write("[" + inner + ("," + inner).join(map(_real, o)) + newline + "]")
            return
        sep = "[" + inner
        for value in o:
            write(sep)
            _write_json(value, write, inner)
            sep = "," + inner
        write("[]" if sep[0] == "[" else newline + "]")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dump_json(payload: Any, out: TextIO | None = None) -> str | None:
    """Canonical JSON text: fixed key order as constructed, trailing newline.

    The bytes are those of ``json.dumps(payload, indent=2, allow_nan=False)``
    plus a newline, each float first rounded by :func:`fmt12`: two-space
    indent, ASCII-escaped strings, and ``ValueError`` on NaN or infinity.
    A float's text is its 12-digit text, with ``.0`` added to an integer
    value, or, where that text has an exponent, ``repr`` of its value.
    Dict keys must be strings.

    The text is written into ``out`` fragment by fragment as it is
    rendered; without a sink it is returned as a string.  An iterator (a
    generator, say) is written as an array, consumed one item at a time, so
    with a sink a caller can stream a large array without building it or
    its text.
    """
    if out is None:
        return _text(dump_json, payload)
    _write_json(payload, out.write, "\n")
    out.write("\n")
    return None


def serialize_taxonomy(t: Taxonomy) -> str:
    """Taxonomy back to its JSON input format (sorted, 12 significant digits)."""
    payload = {
        "root": t.root,
        "categories": sorted(t.categories),
        "edges": [
            {"child": e.child, "parent": e.parent}
            if e.f is None
            else {"child": e.child, "parent": e.parent, "f": e.f}
            for e in sorted(t.edges, key=lambda e: (e.child, e.parent))
        ],
    }
    return dump_json(payload)


def _matrix_payload(m: NormalizedConfusionMatrix) -> dict:
    return {"tn": m.tn, "fp": m.fp, "fn": m.fn, "tp": m.tp}


def serialize_profiles(p: ClassifierProfileSet) -> str:
    """Profile set back to its JSON input format."""
    payload: dict[str, Any] = {
        "classifiers": {name: _matrix_payload(p.base[name]) for name in sorted(p.base)}
    }
    if p.overrides:
        payload["overrides"] = [
            {"pipeline": path, "category": cat, **_matrix_payload(p.overrides[(path, cat)])}
            for path, cat in sorted(p.overrides)
        ]
    return dump_json(payload)


def write_pipelines(pipelines: Iterable[Pipeline], out: TextIO | None = None) -> str | None:
    """One slash-joined path per line, in the order given, into ``out``, or,
    without a sink, as a returned string."""
    if out is None:
        return _text(write_pipelines, pipelines)
    sep = ""
    for p in pipelines:
        out.write(sep + p.path)
        sep = "\n"
    out.write("\n")
    return None


# --- analysis report ---------------------------------------------------------


@dataclass(frozen=True)
class Report:
    """Deterministic analysis of every requested pipeline of a taxonomy."""

    taxonomy: Taxonomy
    renormalized: tuple[str, ...]
    blocks: tuple[DepthProfile, ...]


def build_report(
    bundle: InputBundle, leaf_only: bool = False, pipeline_path: str | None = None
) -> Report:
    """Analyze the bundle's pipelines, in enumeration order, into a :class:`Report`.

    Pipelines arrive prefix-first, and each one's classifier chain is its
    parent's plus one step, so each one whose parent prefix was analyzed
    extends that profile by its last step.  The root, and every pipeline
    whose parent is not in the report (``leaf_only``, ``pipeline_path``),
    are folded from the root.
    """
    if pipeline_path is None:
        pipelines = enumerate_pipelines(bundle.taxonomy, leaf_only=leaf_only)
    else:
        pipelines = (find_pipeline(bundle.taxonomy, pipeline_path, leaf_only=leaf_only),)
    profiles = bundle.profiles
    analyzed: dict[tuple[str, ...], DepthProfile] = {}
    for p in pipelines:
        analyzed[p.nodes] = _fold(p, profiles.gamma_chain(p), analyzed.get(p.nodes[:-1]))
    return Report(taxonomy=bundle.taxonomy, renormalized=bundle.renormalized,
                  blocks=tuple(analyzed.values()))


def _omega_payload(omega: Cells2x2) -> dict:
    """A joint matrix as its ``w00``..``w11`` JSON object."""
    return {"w00": omega.tn, "w01": omega.fp, "w10": omega.fn, "w11": omega.tp}


def _metric_cells(r: MetricReport) -> list[str]:
    """tP, tR, tF1 and tA as TSV cells, ``-`` where undefined."""
    return [_cell12(r.precision), _cell12(r.recall), _cell12(r.f1), fmt12(r.accuracy)]


def _metrics_payload(r: MetricReport) -> dict:
    """A report's metrics, with flags naming each undefined metric and an
    F1 that is 0 because precision or recall is."""
    flags = []
    if r.precision is None:
        flags.append("precision_undefined")
    if r.recall is None:
        flags.append("recall_undefined")
    if r.f1 is not None and (r.precision == 0.0 or r.recall == 0.0):
        flags.append("f1_degenerate")
    return {
        "tP": r.precision,
        "tR": r.recall,
        "tF1": r.f1,
        "tA": r.accuracy,
        "flags": flags,
    }


def _verdict_text(row: DepthRow) -> str:
    if row.k == 0:
        return "-"
    if row.check is None:
        return "degenerate"
    return row.check.verdict.value


def _depth_rows(
    b: DepthProfile, memo: dict[int, str], render: Callable[[DepthRow], str]
) -> Iterator[str]:
    """Text of each depth row of a block, from ``render(row)``.  A prefix's
    rows are shared by reference with every profile folded on from it, so
    ``memo`` keys each text on its row's identity, and a shared row is
    rendered once; the report keeps the rows alive, so no id is reused
    while ``memo`` is."""
    for row in b.rows:
        text = memo.get(id(row))
        if text is None:
            text = memo[id(row)] = render(row)
        yield text


def _row_json(row: DepthRow) -> _Text:
    """A depth row's JSON object, at its indent in a block's ``depth_profile``."""
    parts: list[str] = []
    _write_json({
        "k": row.k,
        "f": row.f,
        "omega": _omega_payload(row.omega),
        "metrics": _metrics_payload(row.metrics),
        "precision_verdict": _verdict_text(row),
        "precision_bound": None if row.check is None else row.check.bound,
    }, parts.append, "\n        ")
    return _Text("".join(parts))


def _row_tsv(row: DepthRow) -> str:
    """A depth row's TSV cells after its pipeline, tab-joined."""
    om = row.omega
    return "\t".join([str(row.k), fmt12(row.f), fmt12(om.tn), fmt12(om.fp), fmt12(om.fn),
                      fmt12(om.tp), *_metric_cells(row.metrics), _verdict_text(row)])


def _block_payload(b: DepthProfile, memo: dict[int, str]) -> dict:
    fact = b.factorization
    flags = []
    if fact.zero_negative_mass:
        flags.append("zero_negative_mass")
    if fact.eta is not None and math.isinf(fact.eta):
        flags.append("eta_infinite")
    eta = fact.eta
    last = b.rows[-1]
    return {
        "pipeline": b.pipeline.path,
        "depth": b.pipeline.depth,
        "fs": b.pipeline.fs,
        "omega": _omega_payload(last.omega),
        "prior": {"neg": fact.prior_neg, "pos": fact.prior_pos},
        "phi": _matrix_payload(fact.phi),
        "psi": _matrix_payload(b.state.intrinsic()),
        "eta": None if eta is None or not math.isfinite(eta) else eta,
        "flags": flags,
        "metrics": _metrics_payload(last.metrics),
        "depth_profile": list(_depth_rows(b, memo, _row_json)),
    }


def write_report(report: Report, format: str = "json",
                 out: TextIO | None = None) -> str | None:
    """Render a report as canonical JSON or as per-(pipeline, depth) TSV,
    into ``out`` as it goes, or, without a sink, as a returned string.
    Each distinct depth row is rendered once and its text written again in
    every pipeline that shares it."""
    memo: dict[int, str] = {}
    if format == "json":
        t = report.taxonomy
        payload = {
            "taxonomy": {
                "root": t.root,
                "categories": sorted(t.categories),
                "edge_count": len(t.edges),
                "pipeline_count": len(report.blocks),
                "renormalized_classifiers": list(report.renormalized),
            },
            "pipelines": (_block_payload(b, memo) for b in report.blocks),
        }
        return dump_json(payload, out)
    if format == "tsv":
        cols = ["pipeline", "k", "f_k", "w00", "w01", "w10", "w11",
                "tP", "tR", "tF1", "tA", "precision_verdict"]
        return tsv(cols, (
            [b.pipeline.path, text]
            for b in report.blocks for text in _depth_rows(b, memo, _row_tsv)
        ), out)
    raise ValueError(f"unknown format {format!r}")


def write_verification(v: Verification, format: str = "json",
                       out: TextIO | None = None) -> str | None:
    """Render a ``verify`` run as canonical JSON or as one TSV row per check,
    into ``out``, or, without a sink, as a returned string."""
    if format == "json":
        return dump_json({
            "tolerance": v.tolerance, "max_len": v.max_len, "samples": v.samples, "seed": v.seed,
            "checks": ({"source": c.source, "pipeline": c.pipeline.path,
                        "depth": c.pipeline.depth, "check": c.check,
                        "discrepancy": c.discrepancy, "passed": c.passed} for c in v.checks),
            "max_discrepancy": max(c.discrepancy for c in v.checks),
            "passed": v.passed,
        }, out)
    if format == "tsv":
        cols = ["source", "pipeline", "depth", "check", "discrepancy", "passed"]
        return tsv(cols, (
            [c.source, c.pipeline.path, str(c.pipeline.depth), c.check,
             fmt12(c.discrepancy), str(c.passed).lower()]
            for c in v.checks
        ), out)
    raise ValueError(f"unknown format {format!r}")


def verification_failure(v: Verification) -> str:
    """One line naming how many checks of a failed ``verify`` run exceeded
    its tolerance, and the worst one."""
    failed = [c for c in v.checks if not c.passed]
    worst = max(failed, key=lambda c: c.discrepancy)
    return (f"{len(failed)} of {len(v.checks)} checks above --tol {fmt12(v.tolerance)};"
            f" worst: {worst.source} {worst.pipeline.path} {worst.check},"
            f" discrepancy {fmt12(worst.discrepancy)}")


def _run_payload(run: SimRun) -> dict:
    """A run's JSON object; an infinite ``max_z`` (a zero-variance cell that
    missed) is written as ``null``, as JSON has no infinity."""
    max_z = run.deviation.max_z
    return {
        "replication": run.replication, "seed": run.seed,
        "pipeline": run.outcome.pipeline, "m": run.outcome.m,
        "counts": dict(zip(("tn", "fp", "fn", "tp"), run.outcome.counts)),
        "model": _omega_payload(run.model),
        "max_z": max_z if math.isfinite(max_z) else None, "passed": run.deviation.passed,
    }


def write_simulation(s: Simulation, format: str = "json",
                     out: TextIO | None = None) -> str | None:
    """Render a ``simulate`` run as canonical JSON or as one TSV row per run,
    into ``out``, or, without a sink, as a returned string."""
    if format == "json":
        return dump_json({
            "m": s.m, "seed": s.seed, "replications": s.replications,
            "z_threshold": s.z_threshold,
            "runs": (_run_payload(run) for run in s.runs),
            "passed": s.passed,
        }, out)
    if format == "tsv":
        cols = ["replication", "seed", "pipeline", "m",
                "tn", "fp", "fn", "tp", "max_z", "passed"]
        return tsv(cols, (
            [str(run.replication), str(run.seed), run.outcome.pipeline, str(run.outcome.m),
             *map(str, run.outcome.counts),
             fmt12(run.deviation.max_z), str(run.deviation.passed).lower()]
            for run in s.runs
        ), out)
    raise ValueError(f"unknown format {format!r}")


def simulation_failure(s: Simulation) -> str:
    """One line naming how many runs of a failed ``simulate`` invocation
    exceeded its threshold, and the worst run's worst cell."""
    failed = [run for run in s.runs if not run.deviation.passed]
    worst = max(failed, key=lambda run: run.deviation.max_z)
    cells = worst.deviation.cells
    i = max(range(len(cells)), key=lambda i: cells[i].z)
    m = worst.outcome.m
    return (f"{len(failed)} of {len(s.runs)} runs above --z-threshold {fmt12(s.z_threshold)};"
            f" worst: replication {worst.replication} {worst.outcome.pipeline}"
            f" cell {cells[i].cell}, observed {worst.outcome.counts[i]},"
            f" expected {fmt12(m * cells[i].model)}, z {fmt12(cells[i].z)}")


def write_sweep(result: SweepResult, format: str = "json",
                out: TextIO | None = None) -> str | None:
    """Render a ``sweep`` as canonical JSON or as TSV rows, then tP and tF1
    spreads, into ``out``, or, without a sink, as a returned string."""
    if format == "json":
        return dump_json({
            "pipeline": result.pipeline,
            "target": result.target,
            "n": len(result.rows),
            "seed": result.seed,
            "rows": ({"fs": row.fs, "omega": _omega_payload(row.omega),
                      "metrics": _metrics_payload(row.report)} for row in result.rows),
            "spread": [
                {"metric": s.metric, "min": s.minimum, "max": s.maximum, "mean": s.mean,
                 "undefined": s.undefined}
                for s in result.spreads
            ],
        }, out)
    if format == "tsv":
        depth = len(result.rows[0].fs) - 1
        cols = (["index"] + [f"f_{k}" for k in range(1, depth + 1)]
                + ["tP", "tR", "tF1", "tA"])
        spread_names = {"precision": "tP", "f1": "tF1"}
        rows = chain(
            ([str(i)] + [fmt12(f) for f in row.fs[1:]] + _metric_cells(row.report)
             for i, row in enumerate(result.rows)),
            ([f"{spread_names[s.metric]}_spread"] + ["-"] * depth
             + [_cell12(s.minimum), _cell12(s.maximum), _cell12(s.mean), "-"]
             for s in result.spreads if s.metric in spread_names),
        )
        return tsv(cols, rows, out)
    raise ValueError(f"unknown format {format!r}")
