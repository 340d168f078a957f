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

Reports (JSON or TSV) are byte-identical for identical inputs: pipelines
are sorted, keys have a fixed order, and every real number is written with
12 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .errors import (
    MissingGammaError,
    OutOfRangeProbabilityError,
    ParseError,
    RootProfileForbiddenError,
    UnknownCategoryError,
)
from .metrics import DepthProfile, MetricReport, StepCheck, _fold
from .model import (
    Cells2x2,
    ClassifierProfileSet,
    JointMatrix,
    NormalizedConfusionMatrix,
)
from .taxonomy import (
    Edge,
    Taxonomy,
    enumerate_pipelines,
    find_pipeline,
    validate_taxonomy,
    wfs_char,
)

#: tolerance for accepting hand-typed confusion rows before renormalizing
ROW_SUM_TOLERANCE = 1e-9


# --- parsing -----------------------------------------------------------------


def _load_json(text: str, what: str) -> Any:
    try:
        return json.loads(text)
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
    """Read a tn/fp/fn/tp object; returns the matrix and whether rows moved."""
    _require_keys(raw, {"tn", "fp", "fn", "tp"}, {"tn", "fp", "fn", "tp"}, where)
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
        nodes = tuple(path.split("/"))
        for c in nodes:
            if c not in taxonomy.categories:
                raise UnknownCategoryError(f"{where}: unknown category {c!r} in pipeline")
        if nodes[0] != taxonomy.root or wfs_char(taxonomy, nodes) != 1.0:
            raise ParseError(f"{path!r} is not a pipeline of this taxonomy", location=where)
        cat = raw["category"]
        if cat not in nodes:
            raise ParseError(f"category {cat!r} does not occur in pipeline {path!r}",
                             location=where)
        if cat == taxonomy.root:
            raise RootProfileForbiddenError(f"{where}: cannot override the root")
        matrix, moved = _parse_row_matrix(
            {k: raw[k] for k in ("tn", "fp", "fn", "tp")}, where
        )
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


def cell12(x: float | None) -> str:
    """A TSV cell: :func:`fmt12`, or ``-`` where the value is undefined."""
    return "-" if x is None else fmt12(x)


def tsv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """A tab-separated table: the header line, then one line per row of
    already formatted cells, each line ending in a newline."""
    lines = chain(("\t".join(header),), ("\t".join(cells) for cells in rows))
    return "\n".join(lines) + "\n"


_encode_str = json.encoder.encode_basestring_ascii
_INFINITIES = (math.inf, -math.inf)


def _write_json(o: Any, out: list[str], newline: str) -> None:
    """Append the JSON text of ``o`` to ``out``, as ``json.dumps(indent=2)``
    writes it; ``newline`` is a line break plus the indent of o's own line.

    Objects and floats, the bulk of a report, are tested first; the other
    types are disjoint from them, so the order changes no output.
    """
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(sep + _encode_str(key) + ": ")
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(o, float):
        if o != o or o in _INFINITIES:
            raise ValueError("Out of range float values are not JSON compliant: " + repr(o))
        out.append(float.__repr__(float(fmt12(o))))
    elif isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, (list, tuple, Iterator)):
        inner = newline + "  "
        sep = "[" + inner
        for value in o:
            out.append(sep)
            _write_json(value, out, inner)
            sep = "," + inner
        out.append("[]" if sep[0] == "[" else newline + "]")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dump_json(payload: Any) -> str:
    """Canonical JSON text: fixed key order as constructed, trailing newline.

    The bytes are those of ``json.dumps(payload, indent=2, allow_nan=False)``
    plus a newline, each float first rounded by :func:`fmt12`: two-space
    indent, ASCII-escaped strings, and ``ValueError`` on NaN or infinity.
    Dict keys must be strings.  An iterator (a generator, say) is written as
    an array, so a caller can stream a large array without building it.
    """
    out: list[str] = []
    _write_json(payload, out, "\n")
    out.append("\n")
    return "".join(out)


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


# --- analysis report ---------------------------------------------------------


@dataclass(frozen=True)
class Report:
    """Deterministic analysis of every requested pipeline of a taxonomy."""

    root: str
    categories: tuple[str, ...]
    edge_count: int
    renormalized: tuple[str, ...]
    blocks: tuple[DepthProfile, ...]


def build_report(
    bundle: InputBundle, leaf_only: bool = False, pipeline_path: str | None = None
) -> Report:
    """Analyze the bundle's pipelines (sorted) into a :class:`Report`.

    Pipelines arrive prefix-first, so each one whose parent prefix was
    analyzed extends that profile by its last step.  Overrides are keyed by
    the full pipeline path, so a pipeline whose own path or parent's path
    carries one is folded from the root instead; so are the root, and every
    pipeline whose parent is not in the report (``leaf_only``,
    ``pipeline_path``).
    """
    if pipeline_path is None:
        pipelines = enumerate_pipelines(bundle.taxonomy, leaf_only=leaf_only)
    else:
        pipelines = (find_pipeline(bundle.taxonomy, pipeline_path, leaf_only=leaf_only),)
    profiles = bundle.profiles
    overridden = {path for path, _ in profiles.overrides}
    analyzed: dict[tuple[str, ...], DepthProfile] = {}
    for p in pipelines:
        parent = analyzed.get(p.nodes[:-1])
        if parent is not None and (p.path in overridden or parent.pipeline.path in overridden):
            parent = None
        analyzed[p.nodes] = _fold(p, profiles.gamma_chain(p), parent)
    return Report(
        root=bundle.taxonomy.root,
        categories=tuple(sorted(bundle.taxonomy.categories)),
        edge_count=len(bundle.taxonomy.edges),
        renormalized=bundle.renormalized,
        blocks=tuple(analyzed.values()),
    )


def omega_payload(omega: Cells2x2) -> dict:
    """A joint matrix as its ``w00``..``w11`` JSON object."""
    return {"w00": omega.tn, "w01": omega.fp, "w10": omega.fn, "w11": omega.tp}


def metric_cells(r: MetricReport) -> list[str]:
    """tP, tR, tF1 and tA as TSV cells, ``-`` where undefined."""
    return [cell12(r.precision), cell12(r.recall), cell12(r.f1), fmt12(r.accuracy)]


def metrics_payload(r: MetricReport) -> dict:
    flags = []
    if r.precision_undefined:
        flags.append("precision_undefined")
    if r.recall_undefined:
        flags.append("recall_undefined")
    if r.f1_degenerate:
        flags.append("f1_degenerate")
    return {
        "tP": r.precision,
        "tR": r.recall,
        "tF1": r.f1,
        "tA": r.accuracy,
        "flags": flags,
    }


def _verdict_text(step: StepCheck | None) -> str:
    if step is None:
        return "-"
    if step.verdict is None:
        return "degenerate"
    return step.verdict.value


def _depth_rows(
    b: DepthProfile,
) -> Iterator[tuple[int, float, JointMatrix, MetricReport, str, StepCheck | None]]:
    """Per-depth rows of a block, shared by both report formats:
    ``(k, f_k, omega, report, verdict text, step)``, with no step at k=0."""
    rows = zip(b.pipeline.fs, b.omegas, b.reports, (None, *b.steps))
    for k, (f_k, om, rep, step) in enumerate(rows):
        yield k, f_k, om, rep, _verdict_text(step), step


def _block_payload(b: DepthProfile) -> dict:
    fact = b.factorization
    flags = []
    if fact.zero_negative_mass:
        flags.append("zero_negative_mass")
    if fact.eta is not None and math.isinf(fact.eta):
        flags.append("eta_infinite")
    eta = fact.eta
    depth_rows = [
        {
            "k": k,
            "f": f_k,
            "omega": omega_payload(om),
            "metrics": metrics_payload(rep),
            "precision_verdict": verdict,
            "precision_bound": None if step is None else step.bound,
        }
        for k, f_k, om, rep, verdict, step in _depth_rows(b)
    ]
    return {
        "pipeline": b.pipeline.path,
        "depth": b.pipeline.depth,
        "fs": b.pipeline.fs,
        "omega": omega_payload(b.omegas[-1]),
        "prior": {"neg": fact.prior_neg, "pos": fact.prior_pos},
        "phi": _matrix_payload(fact.phi),
        "psi": _matrix_payload(b.state.intrinsic()),
        "eta": None if eta is None or not math.isfinite(eta) else eta,
        "flags": flags,
        "metrics": metrics_payload(b.reports[-1]),
        "depth_profile": depth_rows,
    }


def write_report(report: Report, format: str = "json") -> str:
    """Render a report as canonical JSON or as per-(pipeline, depth) TSV."""
    if format == "json":
        payload = {
            "taxonomy": {
                "root": report.root,
                "categories": list(report.categories),
                "edge_count": report.edge_count,
                "pipeline_count": len(report.blocks),
                "renormalized_classifiers": list(report.renormalized),
            },
            "pipelines": (_block_payload(b) for b in report.blocks),
        }
        return dump_json(payload)
    if format == "tsv":
        cols = ["pipeline", "k", "f_k", "w00", "w01", "w10", "w11",
                "tP", "tR", "tF1", "tA", "precision_verdict"]
        return tsv(cols, (
            [
                b.pipeline.path,
                str(k),
                fmt12(f_k),
                fmt12(om.tn), fmt12(om.fp), fmt12(om.fn), fmt12(om.tp),
                *metric_cells(rep),
                verdict,
            ]
            for b in report.blocks
            for k, f_k, om, rep, verdict, _ in _depth_rows(b)
        ))
    raise ValueError(f"unknown format {format!r}")
