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
renormalized exactly, and the adjustment is recorded in the report.  An
edge or classifier of the common shape, a ``dict`` of exactly its keys whose
values pass, is checked once; every other record takes the located checks.

Every output layout lives here: one ``write_*`` function per library record,
each writing JSON or TSV, byte-identical for identical inputs.  Pipelines
come in enumeration order (lexicographic on the category sequence, prefix
first), keys in a fixed order, and reals with 12 significant digits.  A
report's depth rows are rendered once each per call, however many pipelines
share them, and a block's ``fs``, ``omega`` and ``metrics`` are its rows'
texts.  Every JSON document and record is written from a ``%``-format
template that ``json.dumps(indent=2)`` lays out at import, so the layout is
the stdlib pretty-printer's, and :func:`_real` writes every real.

A writer passes its text to a text sink piece by piece as it renders, so
the whole text is never held in memory.  Called without a sink, it writes
into an :class:`io.StringIO` and returns the text.
"""

from __future__ import annotations

import json
import math
import re
from io import StringIO
from itertools import chain, combinations
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, NamedTuple,
                    Sequence, TextIO)

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
    from .oracles import OracleCheck, Verification
    from .simulate import SimRun, Simulation, SweepResult, SweepRow, SweepSpread

#: tolerance for accepting hand-typed confusion rows before renormalizing
ROW_SUM_TOLERANCE = 1e-9


# --- parsing -----------------------------------------------------------------


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict, refusing a key given twice (``json`` keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        first: dict[str, int] = {}
        key = next(key for i, (key, _) in enumerate(pairs) if first.setdefault(key, i) != i)
        raise ValueError(f"duplicate key {key!r}")
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
    if unknown := set(obj) - allowed:
        raise ParseError(f"unknown keys {sorted(unknown)}", location=where)
    if missing := required - set(obj):
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
    if not isinstance(cats, list) or not {*map(type, cats)} <= {str}:
        raise ParseError("categories must be a list of strings", location="taxonomy.categories")
    if len(set(cats)) < len(cats):  # name the first name given twice
        first: dict[str, int] = {}
        i = next(i for i, c in enumerate(cats) if first.setdefault(c, i) != i)
        raise ParseError(f"duplicate category {cats[i]!r}", location=f"taxonomy.categories[{i}]")
    if not isinstance(data["edges"], list):
        raise ParseError("edges must be a list", location="taxonomy.edges")
    edges = []
    for i, raw in enumerate(data["edges"]):
        if type(raw) is dict and len(raw) == 3:  # then the three keys are its only ones
            child, parent, f = raw.get("child"), raw.get("parent"), raw.get("f")
            if type(child) is type(parent) is str and type(f) is float and 0.0 <= f <= 1.0:
                edges.append(tuple.__new__(Edge, (child, parent, f)))
                continue
        where = f"taxonomy.edges[{i}]"
        _require_keys(raw, {"child", "parent", "f"}, {"child", "parent"}, where)
        if not isinstance(raw["child"], str) or not isinstance(raw["parent"], str):
            raise ParseError("child and parent must be strings", location=where)
        f = None if raw.get("f") is None else _probability(raw, "f", where)
        edges.append(Edge(child=raw["child"], parent=raw["parent"], f=f))
    if not isinstance(data["root"], str):
        raise ParseError("root must be a string", location="taxonomy.root")
    return validate_taxonomy(cats, edges, root=data["root"])


def _parse_row_matrix(raw: Mapping, where: str) -> tuple[NormalizedConfusionMatrix, bool]:
    """Read a key-checked tn/fp/fn/tp object: the matrix, and whether rows moved."""
    tn, fp, fn, tp = (_probability(raw, key, where) for key in ("tn", "fp", "fn", "tp"))
    sums = {"negative": tn + fp, "positive": fn + tp}
    for row, s in sums.items():
        if abs(s - 1.0) > ROW_SUM_TOLERANCE:
            raise OutOfRangeProbabilityError(
                f"{where}: {row} row sums to {s!r}, expected 1 within {ROW_SUM_TOLERANCE}")
    neg, pos = sums.values()  # dividing by a sum of exactly 1.0 changes nothing
    matrix = NormalizedConfusionMatrix(tn / neg, fp / neg, fn / pos, tp / pos)
    return matrix, neg != 1.0 or pos != 1.0


class InputBundle(NamedTuple):
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
    cats = taxonomy.categories
    for name, raw in raw_cls.items():
        if type(raw) is dict and len(raw) == 4 and name in cats and name != taxonomy.root:
            tn, fp, fn, tp = raw.get("tn"), raw.get("fp"), raw.get("fn"), raw.get("tp")
            if (type(tn) is type(fp) is type(fn) is type(tp) is float and tn + fp == 1.0 == fn + tp
                    and tn >= 0.0 and fp >= 0.0 and fn >= 0.0 and tp >= 0.0):  # so none is over 1
                base[name] = tuple.__new__(NormalizedConfusionMatrix, (tn, fp, fn, tp))
                continue
        where = f"profiles.classifiers.{name}"
        if name not in cats:
            raise UnknownCategoryError(f"{where}: unknown category {name!r}")
        if name == taxonomy.root:
            raise RootProfileForbiddenError(
                f"{where}: the root passes everything down; its profile is fixed"
            )
        _require_keys(raw, {"tn", "fp", "fn", "tp"}, {"tn", "fp", "fn", "tp"}, where)
        base[name], moved = _parse_row_matrix(raw, where)
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

    if missing := sorted(cats - base.keys() - {taxonomy.root}):
        raise MissingGammaError(f"categories without a classifier profile: {missing}")

    profile_set = ClassifierProfileSet(base=base, overrides=overrides, root=taxonomy.root)
    return profile_set, tuple(sorted(renormalized))


def parse_inputs(taxonomy_text: str, profiles_text: str) -> InputBundle:
    """Parse both input files into a cross-validated bundle."""
    taxonomy = parse_taxonomy(taxonomy_text)
    return InputBundle(taxonomy, *parse_profiles(profiles_text, taxonomy))


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
    written by ``repr``.  The common case, a fraction without an exponent,
    is tested first.
    """
    s = f"{x:.12g}"  # fmt12(x), without the call: a report holds millions of reals
    if "." in s and "e" not in s:
        return s
    if x != x or x in _INFINITIES:
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    if "e" in s:
        return float.__repr__(float(s))
    return s + ".0"


# --- templates -----------------------------------------------------------------
#
# Every JSON document, and every record the writers repeat (a depth row, a
# report block, a verify check, a simulate run, a sweep row, a sweep spread),
# is written by one ``%``-format of its template with a dict of texts.  A
# template is ``json.dumps(skeleton, indent=2)`` of a skeleton whose leaves
# are marked strings, ``"\x00name"``, each turned into the field
# ``%(name)s``; JSON punctuation and the keys hold no ``%``, so the rest of
# that text is a format string as it is.  A field's value is the JSON text of
# one leaf at its indent: a real by :func:`_real`, a string by
# :func:`_encode_str`, a list of strings by ``json.dumps``.  An array of any
# length in a record is a one-item skeleton, whose field takes its items'
# texts joined by "," and the line break and indent of the field's line.  A
# document's record array is a field at which its template is split: the
# writer streams the records into the sink between the pieces.

#: a marked leaf as ``json.dumps`` writes it, which escapes the mark
_MARKED_LEAF = re.compile(r'"\\u0000(\w+)"')


def _json_at(o: Any, newline: str) -> str:
    """``json.dumps(o, indent=2)`` on a line that ``newline``, a line break
    and the line's indent, starts."""
    return json.dumps(o, indent=2).replace("\n", newline)


def _template(skeleton: Any, newline: str = "\n") -> str:
    """The ``%``-format template of ``skeleton`` on a line that ``newline`` starts."""
    return _MARKED_LEAF.sub(r"%(\1)s", _json_at(skeleton, newline))


def _field(name: str) -> str:
    """A leaf of a skeleton: the ``%``-format field ``name``."""
    return "\x00" + name


def _fields(*names: str) -> dict[str, str]:
    """An object skeleton whose every key is a field of the same name."""
    return {name: _field(name) for name in names}


def _newline(template: str, name: str) -> str:
    """The line break and indent of the line of ``template`` that field
    ``name`` is on."""
    line = template[template.rfind("\n", 0, template.index(f"%({name})s")) + 1:]
    return "\n" + line[:len(line) - len(line.lstrip(" "))]


def _flag_texts(template: str, name: str,
                vocabulary: Sequence[str]) -> dict[tuple[str, ...], str]:
    """The text of each flags list that field ``name`` of ``template``
    takes, keyed by the list as a tuple: names drawn in order from
    ``vocabulary``."""
    newline = _newline(template, name)
    return {subset: _json_at(subset, newline)
            for r in range(len(vocabulary) + 1) for subset in combinations(vocabulary, r)}


def _pieces(template: str, *arrays: str) -> list[str]:
    """A document's template, newline-terminated, split at the fields of
    its record ``arrays``: the pieces that a writer fills and writes around
    the records it streams."""
    return re.split("|".join(rf"%\({name}\)s" for name in arrays), template + "\n")


#: where a record of a document's record array starts: its line break and indent
_RECORD_NEWLINE = _newline(_template({"records": [_field("record")]}), "record")


def _write_document(out: TextIO, pieces: Sequence[str], texts: Mapping[str, str],
                    *arrays: Iterable[str]) -> None:
    """Write a document into ``out``: its pieces filled from ``texts``, and
    between each two pieces a record array, each record's text at its
    indent, laid out as ``json.dumps(indent=2)`` lays out an array."""
    write = out.write
    for piece, records in zip(pieces, arrays):
        write(piece % texts)
        sep = "[" + _RECORD_NEWLINE
        for text in records:
            write(sep)
            write(text)
            sep = "," + _RECORD_NEWLINE
        write("[]" if sep[0] == "[" else _RECORD_NEWLINE[:-2] + "]")
    write(pieces[-1] % texts)


def _maybe(x: float | None) -> str:
    """:func:`_real` text of a defined value, ``null`` for an undefined one."""
    return "null" if x is None else _real(x)


def _bool(x: bool) -> str:
    return "true" if x else "false"


_METRIC_FLAGS = ("precision_undefined", "recall_undefined", "f1_degenerate")
_OMEGA_FIELDS = _fields("w00", "w01", "w10", "w11")
_METRIC_FIELDS = {**_fields("tP", "tR", "tF1", "tA"), "flags": _field("metric_flags")}


def _matrix_fields(name: str) -> dict[str, str]:
    return {cell: _field(f"{name}_{cell}") for cell in ("tn", "fp", "fn", "tp")}


_REPORT = _template({
    "taxonomy": _fields("root", "categories", "edge_count", "pipeline_count",
                        "renormalized_classifiers"),
    "pipelines": _field("pipelines"),
})
#: the line break and indent of the report's lists of category names
_REPORT_NAMES_NEWLINE = _newline(_REPORT, "categories")
_REPORT_PIECES = _pieces(_REPORT, "pipelines")

_BLOCK = _template({
    **_fields("pipeline", "depth"),
    "fs": [_field("fs")],
    "omega": _OMEGA_FIELDS,
    "prior": {"neg": _field("prior_neg"), "pos": _field("prior_pos")},
    "phi": _matrix_fields("phi"),
    "psi": _matrix_fields("psi"),
    **_fields("eta", "flags"),
    "metrics": _METRIC_FIELDS,
    "depth_profile": [_field("rows")],
}, _RECORD_NEWLINE)
_BLOCK_FS_SEP = "," + _newline(_BLOCK, "fs")
_BLOCK_ROWS_SEP = "," + _newline(_BLOCK, "rows")
_BLOCK_FLAGS = _flag_texts(_BLOCK, "flags", ("zero_negative_mass", "eta_infinite"))
_BLOCK_METRIC_FLAGS = _flag_texts(_BLOCK, "metric_flags", _METRIC_FLAGS)

_ROW = _template({
    **_fields("k", "f"),
    "omega": _OMEGA_FIELDS,
    "metrics": _METRIC_FIELDS,
    "precision_verdict": _field("verdict"),
    "precision_bound": _field("bound"),
}, _newline(_BLOCK, "rows"))
_ROW_METRIC_FLAGS = _flag_texts(_ROW, "metric_flags", _METRIC_FLAGS)

_VERIFY_PIECES = _pieces(_template(_fields(
    "tolerance", "max_len", "samples", "seed", "checks", "max_discrepancy", "passed")), "checks")
_CHECK = _template(_fields("source", "pipeline", "depth", "check", "discrepancy", "passed"),
                   _RECORD_NEWLINE)

_SIMULATE_PIECES = _pieces(_template(_fields(
    "m", "seed", "replications", "z_threshold", "runs", "passed")), "runs")
_RUN = _template({
    **_fields("replication", "seed", "pipeline", "m"),
    "counts": _fields("tn", "fp", "fn", "tp"),
    "model": _OMEGA_FIELDS,
    **_fields("max_z", "passed"),
}, _RECORD_NEWLINE)

_SWEEP_PIECES = _pieces(_template(_fields(
    "pipeline", "target", "n", "seed", "rows", "spread")), "rows", "spread")
_SWEEP_ROW = _template({"fs": [_field("fs")], "omega": _OMEGA_FIELDS, "metrics": _METRIC_FIELDS},
                       _RECORD_NEWLINE)
_SWEEP_FS_SEP = "," + _newline(_SWEEP_ROW, "fs")
_SWEEP_METRIC_FLAGS = _flag_texts(_SWEEP_ROW, "metric_flags", _METRIC_FLAGS)
_SPREAD = _template(_fields("metric", "min", "max", "mean", "undefined"), _RECORD_NEWLINE)


def _omega_texts(omega: Cells2x2) -> dict[str, str]:
    """A joint matrix's cells as the texts of its ``w00``..``w11`` fields."""
    return {"w00": _real(omega.tn), "w01": _real(omega.fp),
            "w10": _real(omega.fn), "w11": _real(omega.tp)}


def _metric_texts(r: MetricReport) -> dict[str, str]:
    """A report's metrics as the texts of their ``tP``..``tA`` fields."""
    return {"tP": _maybe(r.precision), "tR": _maybe(r.recall), "tF1": _maybe(r.f1),
            "tA": _real(r.accuracy)}


def _metric_flags(r: MetricReport) -> tuple[str, ...]:
    """The flags naming each undefined metric of a report, and an F1 that
    is 0 because precision or recall is."""
    flags: tuple[str, ...] = ()
    if r.precision is None:
        flags += ("precision_undefined",)
    if r.recall is None:
        flags += ("recall_undefined",)
    if r.f1 is not None and (r.precision == 0.0 or r.recall == 0.0):
        flags += ("f1_degenerate",)
    return flags


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


class Report(NamedTuple):
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
    extends that profile by its last step, resolving only that step's
    classifier.  The root, and every pipeline whose parent is not in the
    report (``leaf_only``, ``pipeline_path``), are folded from the root.
    Every block's factorization is read off its own fold.
    """
    if pipeline_path is None:
        pipelines = enumerate_pipelines(bundle.taxonomy, leaf_only=leaf_only)
    else:
        pipelines = (find_pipeline(bundle.taxonomy, pipeline_path, leaf_only=leaf_only),)
    profiles = bundle.profiles
    analyzed: dict[tuple[str, ...], DepthProfile] = {}
    for p in pipelines:
        analyzed[p.nodes] = _fold(p, profiles, analyzed.get(p.nodes[:-1]))
    return Report(taxonomy=bundle.taxonomy, renormalized=bundle.renormalized,
                  blocks=tuple(analyzed.values()))


def _metric_cells(r: MetricReport) -> list[str]:
    """tP, tR, tF1 and tA as TSV cells, ``-`` where undefined."""
    return [_cell12(r.precision), _cell12(r.recall), _cell12(r.f1), fmt12(r.accuracy)]


def _verdict_text(row: DepthRow) -> str:
    if row.k == 0:
        return "-"
    if row.check is None:
        return "degenerate"
    return row.check.verdict.value


def _depth_rows(
    rows: Iterable[DepthRow], memo: dict[int, Any], render: Callable[[DepthRow], Any]
) -> Iterator[Any]:
    """``render(row)`` of each of a block's depth rows.  A prefix's rows are
    shared by reference with every profile folded on from it, so ``memo``
    keys each result on its row's identity, and a shared row is rendered
    once; the report keeps the rows alive, so no id is reused while
    ``memo`` is."""
    for row in rows:
        text = memo.get(id(row))
        if text is None:
            text = memo[id(row)] = render(row)
        yield text


class _RowJSON(NamedTuple):
    """A depth row's JSON object, the text of its ``f``, and the texts of
    its omega and metrics fields with its metric flags, which a block whose
    last row it is writes again."""

    text: str
    f: str
    cells: dict[str, str]
    flags: tuple[str, ...]


def _row_json(row: DepthRow) -> _RowJSON:
    """A depth row's JSON object, at its indent in a block's ``depth_profile``."""
    f = _real(row.f)
    cells = {**_omega_texts(row.omega), **_metric_texts(row.metrics)}
    flags = _metric_flags(row.metrics)
    text = _ROW % {
        "k": int.__repr__(row.k), "f": f, **cells, "metric_flags": _ROW_METRIC_FLAGS[flags],
        "verdict": _encode_str(_verdict_text(row)),
        "bound": "null" if row.check is None else _real(row.check.bound)}
    return _RowJSON(text, f, cells, flags)


def _shared_row_json(row: DepthRow) -> tuple[str, str]:
    """What a later block reads of a depth row's JSON: its text and its f's."""
    return _row_json(row)[:2]


def _row_tsv(row: DepthRow) -> str:
    """A depth row's TSV cells after its pipeline, tab-joined."""
    om = row.omega
    return "\t".join([str(row.k), fmt12(row.f), fmt12(om.tn), fmt12(om.fp), fmt12(om.fn),
                      fmt12(om.tp), *_metric_cells(row.metrics), _verdict_text(row)])


def _block_json(b: DepthProfile, memo: dict[int, tuple[str, str]]) -> str:
    """A report block's JSON object.  Its ``fs`` list and ``depth_profile``
    join its rows' texts, each rendered once per report (``memo``); its
    omega and metrics are those of its last row, which is rendered here
    for the block and kept in ``memo`` for the blocks that extend it."""
    *shared, last_row = b.rows
    rows = list(_depth_rows(shared, memo, _shared_row_json))
    last = _row_json(last_row)
    rows.append(last[:2])
    memo[id(last_row)] = rows[-1]
    fact, psi = b.factorization, b.state.intrinsic()
    phi, eta = fact.phi, fact.eta
    flags: tuple[str, ...] = ("zero_negative_mass",) if fact.zero_negative_mass else ()
    if eta is not None and math.isinf(eta):
        flags += ("eta_infinite",)
    return _BLOCK % {
        "pipeline": _encode_str(b.pipeline.path), "depth": int.__repr__(b.pipeline.depth),
        "fs": _BLOCK_FS_SEP.join([f for _, f in rows]),
        **last.cells,
        "prior_neg": _real(fact.prior_neg), "prior_pos": _real(fact.prior_pos),
        "phi_tn": _real(phi.tn), "phi_fp": _real(phi.fp),
        "phi_fn": _real(phi.fn), "phi_tp": _real(phi.tp),
        "psi_tn": _real(psi.tn), "psi_fp": _real(psi.fp),
        "psi_fn": _real(psi.fn), "psi_tp": _real(psi.tp),
        "eta": "null" if eta is None or not math.isfinite(eta) else _real(eta),
        "flags": _BLOCK_FLAGS[flags],
        "metric_flags": _BLOCK_METRIC_FLAGS[last.flags],
        "rows": _BLOCK_ROWS_SEP.join([text for text, _ in rows]),
    }


def write_report(report: Report, format: str = "json",
                 out: TextIO | None = None) -> str | None:
    """Render a report as canonical JSON or as per-(pipeline, depth) TSV,
    into ``out`` as it goes, or, without a sink, as a returned string.
    Each distinct depth row is rendered once and its text written again in
    every pipeline that shares it."""
    if out is None:
        return _text(write_report, report, format)
    memo: dict[int, Any] = {}
    if format == "json":
        t = report.taxonomy
        return _write_document(out, _REPORT_PIECES, {
            "root": _encode_str(t.root),
            "categories": _json_at(sorted(t.categories), _REPORT_NAMES_NEWLINE),
            "edge_count": int.__repr__(len(t.edges)),
            "pipeline_count": int.__repr__(len(report.blocks)),
            "renormalized_classifiers": _json_at(report.renormalized, _REPORT_NAMES_NEWLINE),
        }, (_block_json(b, memo) for b in report.blocks))
    if format == "tsv":
        cols = ["pipeline", "k", "f_k", "w00", "w01", "w10", "w11",
                "tP", "tR", "tF1", "tA", "precision_verdict"]
        return tsv(cols, (
            [b.pipeline.path, text]
            for b in report.blocks for text in _depth_rows(b.rows, memo, _row_tsv)
        ), out)
    raise ValueError(f"unknown format {format!r}")


def _check_json(c: OracleCheck) -> str:
    return _CHECK % {
        "source": _encode_str(c.source), "pipeline": _encode_str(c.pipeline.path),
        "depth": int.__repr__(c.pipeline.depth), "check": _encode_str(c.check),
        "discrepancy": _real(c.discrepancy), "passed": _bool(c.passed)}


def write_verification(v: Verification, format: str = "json",
                       out: TextIO | None = None) -> str | None:
    """Render a ``verify`` run as canonical JSON or as one TSV row per check,
    into ``out``, or, without a sink, as a returned string."""
    if out is None:
        return _text(write_verification, v, format)
    if format == "json":
        return _write_document(out, _VERIFY_PIECES, {
            "tolerance": _real(v.tolerance), "max_len": int.__repr__(v.max_len),
            "samples": int.__repr__(v.samples), "seed": int.__repr__(v.seed),
            "max_discrepancy": _real(max(c.discrepancy for c in v.checks)),
            "passed": _bool(v.passed),
        }, map(_check_json, v.checks))
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


def _run_json(run: SimRun) -> str:
    """A run's JSON object; an infinite ``max_z`` (a zero-variance cell that
    missed) is written as ``null``, as JSON has no infinity."""
    max_z, (tn, fp, fn, tp) = run.deviation.max_z, run.outcome.counts
    return _RUN % {
        "replication": int.__repr__(run.replication), "seed": int.__repr__(run.seed),
        "pipeline": _encode_str(run.outcome.pipeline), "m": int.__repr__(run.outcome.m),
        "tn": int.__repr__(tn), "fp": int.__repr__(fp),
        "fn": int.__repr__(fn), "tp": int.__repr__(tp),
        **_omega_texts(run.model),
        "max_z": _real(max_z) if math.isfinite(max_z) else "null",
        "passed": _bool(run.deviation.passed)}


def write_simulation(s: Simulation, format: str = "json",
                     out: TextIO | None = None) -> str | None:
    """Render a ``simulate`` run as canonical JSON or as one TSV row per run,
    into ``out``, or, without a sink, as a returned string."""
    if out is None:
        return _text(write_simulation, s, format)
    if format == "json":
        return _write_document(out, _SIMULATE_PIECES, {
            "m": int.__repr__(s.m), "seed": int.__repr__(s.seed),
            "replications": int.__repr__(s.replications), "z_threshold": _real(s.z_threshold),
            "passed": _bool(s.passed),
        }, map(_run_json, s.runs))
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


def _sweep_row_json(row: SweepRow) -> str:
    return _SWEEP_ROW % {
        "fs": _SWEEP_FS_SEP.join(map(_real, row.fs)),
        **_omega_texts(row.omega), **_metric_texts(row.report),
        "metric_flags": _SWEEP_METRIC_FLAGS[_metric_flags(row.report)]}


def _spread_json(s: SweepSpread) -> str:
    return _SPREAD % {"metric": _encode_str(s.metric), "min": _maybe(s.minimum),
                      "max": _maybe(s.maximum), "mean": _maybe(s.mean),
                      "undefined": int.__repr__(s.undefined)}


def write_sweep(result: SweepResult, format: str = "json",
                out: TextIO | None = None) -> str | None:
    """Render a ``sweep`` as canonical JSON or as TSV rows, then tP and tF1
    spreads, into ``out``, or, without a sink, as a returned string."""
    if out is None:
        return _text(write_sweep, result, format)
    if format == "json":
        return _write_document(out, _SWEEP_PIECES, {
            "pipeline": _encode_str(result.pipeline), "target": _real(result.target),
            "n": int.__repr__(len(result.rows)), "seed": int.__repr__(result.seed),
        }, map(_sweep_row_json, result.rows), map(_spread_json, result.spreads))
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
