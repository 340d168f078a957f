"""Input parsing, writers and their sinks, and report determinism."""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pfmodel as pf
from pfmodel.io import _real, build_report, fmt12, write_report

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402  (the benchmark's input generator)
from conftest import (  # noqa: E402
    DAG_PROFILES_JSON,
    DAG_TAXONOMY_JSON,
    L2_PROFILES_JSON,
    L2_TAXONOMY_JSON,
    bundles_with_overrides,
    chain_json,
    inconsistent_dag_json,
    random_gamma,
    random_tree,
    reals_of_pretty_json,
)

MINIMAL_TAXONOMY = json.dumps(
    {"root": "A", "categories": ["A", "B"],
     "edges": [{"child": "B", "parent": "A", "f": 0.6}]}
)
MINIMAL_PROFILES = json.dumps(
    {"classifiers": {"B": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8}}}
)
#: a first step with f = 1 (a degenerate precision bound), then a classifier
#: that accepts nothing (C), an edge with f = 0 (D), and a classifier with
#: tp = 0 (E): between them every flag and verdict text a report can write
CORNER_BUNDLE = pf.parse_inputs(
    json.dumps({"root": "A", "categories": ["A", "B", "C", "D", "E"],
                "edges": [{"child": "B", "parent": "A", "f": 1},
                          {"child": "C", "parent": "B", "f": 0.5},
                          {"child": "D", "parent": "B", "f": 0},
                          {"child": "E", "parent": "B", "f": 0.5}]}),
    json.dumps({"classifiers": {"B": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8},
                                "C": {"tn": 1, "fp": 0, "fn": 1, "tp": 0},
                                "D": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8},
                                "E": {"tn": 0.5, "fp": 0.5, "fn": 1, "tp": 0}}}),
)


# --- parsing -------------------------------------------------------------------


def test_minimal_bundle():
    bundle = pf.parse_inputs(MINIMAL_TAXONOMY, MINIMAL_PROFILES)
    paths = [p.path for p in pf.enumerate_pipelines(bundle.taxonomy)]
    assert paths == ["A", "A/B"]
    assert bundle.profiles.base["B"].tp == 0.8
    assert bundle.renormalized == ()


def test_root_profile_forbidden():
    profiles = json.dumps(
        {"classifiers": {
            "A": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8},
            "B": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8},
        }}
    )
    with pytest.raises(pf.RootProfileForbiddenError):
        pf.parse_inputs(MINIMAL_TAXONOMY, profiles)


def test_row_sum_violation_identifies_row():
    profiles = json.dumps(
        {"classifiers": {"B": {"tn": 0.9, "fp": 0.2, "fn": 0.2, "tp": 0.8}}}
    )
    with pytest.raises(pf.OutOfRangeProbabilityError) as err:
        pf.parse_inputs(MINIMAL_TAXONOMY, profiles)
    assert "negative row" in str(err.value) and "B" in str(err.value)


def test_near_normalized_rows_are_renormalized_and_recorded():
    profiles = json.dumps(
        {"classifiers": {"B": {"tn": 0.9000000001, "fp": 0.1, "fn": 0.2, "tp": 0.8}}}
    )
    bundle = pf.parse_inputs(MINIMAL_TAXONOMY, profiles)
    assert bundle.renormalized == ("B",)
    g = bundle.profiles.base["B"]
    assert g.tn + g.fp == pytest.approx(1.0, abs=1e-15)


def test_near_normalized_override_rows_are_renormalized_and_recorded():
    profiles = json.dumps({
        "classifiers": {"B": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8}},
        "overrides": [{"pipeline": "A/B", "category": "B",
                       "tn": 0.7, "fp": 0.3, "fn": 0.4, "tp": 0.6000000001}],
    })
    bundle = pf.parse_inputs(MINIMAL_TAXONOMY, profiles)
    assert bundle.renormalized == ("A/B:B",)
    g = bundle.profiles.overrides[("A/B", "B")]
    assert g.fn + g.tp == pytest.approx(1.0, abs=1e-15)
    report = json.loads(write_report(build_report(bundle)))
    assert report["taxonomy"]["renormalized_classifiers"] == ["A/B:B"]


def test_out_of_range_entry_rejected():
    profiles = json.dumps(
        {"classifiers": {"B": {"tn": 1.2, "fp": -0.2, "fn": 0.2, "tp": 0.8}}}
    )
    with pytest.raises(pf.OutOfRangeProbabilityError):
        pf.parse_inputs(MINIMAL_TAXONOMY, profiles)


def test_json_booleans_are_not_numbers():
    taxonomy = json.dumps(
        {"root": "A", "categories": ["A", "B"],
         "edges": [{"child": "B", "parent": "A", "f": True}]}
    )
    with pytest.raises(pf.ParseError):
        pf.parse_taxonomy(taxonomy)
    profiles = json.dumps(
        {"classifiers": {"B": {"tn": 0.9, "fp": 0.1, "fn": False, "tp": True}}}
    )
    with pytest.raises(pf.ParseError):
        pf.parse_inputs(MINIMAL_TAXONOMY, profiles)


def test_json_syntax_error_carries_location():
    with pytest.raises(pf.ParseError) as err:
        pf.parse_taxonomy("{not json")
    assert "line" in str(err.value)


def test_unknown_keys_rejected():
    bad = json.dumps({"root": "A", "categories": ["A"], "edges": [], "extra": 1})
    with pytest.raises(pf.ParseError) as err:
        pf.parse_taxonomy(bad)
    assert "extra" in str(err.value)


def test_duplicate_category_rejected_at_its_first_repeat():
    bad = json.dumps({"root": "A", "categories": ["A", "B", "C", "B", "C"],
                      "edges": [{"child": "B", "parent": "A", "f": 0.6},
                                {"child": "C", "parent": "A", "f": 0.2}]})
    with pytest.raises(pf.ParseError) as err:
        pf.parse_taxonomy(bad)
    assert str(err.value) == "taxonomy.categories[3]: duplicate category 'B'"


@pytest.mark.parametrize("taxonomy, profiles, message", [
    # the same classifier twice: json would keep the second profile
    (MINIMAL_TAXONOMY,
     '{"classifiers": {"B": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8},'
     ' "B": {"tn": 0.5, "fp": 0.5, "fn": 0.5, "tp": 0.5}}}',
     "profiles: duplicate key 'B'"),
    (MINIMAL_TAXONOMY,
     '{"classifiers": {"B": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8, "tp": 0.8}}}',
     "profiles: duplicate key 'tp'"),
    ('{"root": "A", "root": "B", "categories": ["A", "B"],'
     ' "edges": [{"child": "B", "parent": "A", "f": 0.6}]}',
     MINIMAL_PROFILES, "taxonomy: duplicate key 'root'"),
], ids=["classifier", "cell", "root"])
def test_duplicate_json_key_rejected(taxonomy, profiles, message):
    with pytest.raises(pf.ParseError) as err:
        pf.parse_inputs(taxonomy, profiles)
    assert str(err.value) == message


def test_unknown_classifier_category():
    profiles = json.dumps(
        {"classifiers": {
            "B": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8},
            "Z": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8},
        }}
    )
    with pytest.raises(pf.UnknownCategoryError):
        pf.parse_inputs(MINIMAL_TAXONOMY, profiles)


def test_missing_profile_rejected():
    taxonomy = json.dumps(
        {"root": "A", "categories": ["A", "B", "C"],
         "edges": [{"child": "B", "parent": "A", "f": 0.6},
                   {"child": "C", "parent": "A", "f": 0.2}]}
    )
    with pytest.raises(pf.MissingGammaError):
        pf.parse_inputs(taxonomy, MINIMAL_PROFILES)


def test_override_validation():
    base = {"classifiers": {"B": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8}}}
    ok = dict(base, overrides=[
        {"pipeline": "A/B", "category": "B", "tn": 0.5, "fp": 0.5, "fn": 0.5, "tp": 0.5}
    ])
    bundle = pf.parse_inputs(MINIMAL_TAXONOMY, json.dumps(ok))
    assert bundle.profiles.overrides == {
        ("A/B", "B"): pf.NormalizedConfusionMatrix(tn=0.5, fp=0.5, fn=0.5, tp=0.5)}

    not_a_pipeline = dict(base, overrides=[
        {"pipeline": "B/A", "category": "B", "tn": 0.5, "fp": 0.5, "fn": 0.5, "tp": 0.5}
    ])
    with pytest.raises(pf.ParseError):
        pf.parse_inputs(MINIMAL_TAXONOMY, json.dumps(not_a_pipeline))

    wrong_member = dict(base, overrides=[
        {"pipeline": "A", "category": "B", "tn": 0.5, "fp": 0.5, "fn": 0.5, "tp": 0.5}
    ])
    with pytest.raises(pf.ParseError):
        pf.parse_inputs(MINIMAL_TAXONOMY, json.dumps(wrong_member))
    golden = Path(__file__).parent / "golden"
    wrong_member = json.loads((golden / "profiles.json").read_text())
    wrong_member["overrides"][0].update(pipeline="A/B/D/E", category="D")
    with pytest.raises(pf.ParseError) as err:
        pf.parse_inputs((golden / "taxonomy.json").read_text(), json.dumps(wrong_member))
    assert str(err.value) == ("profiles.overrides[0]: an override of 'D' is keyed by the path "
                              "that ends at it, 'A/B/D', not 'A/B/D/E'")

    duplicate = dict(base, overrides=[
        {"pipeline": "A/B", "category": "B", "tn": 0.5, "fp": 0.5, "fn": 0.5, "tp": 0.5},
        {"pipeline": "A/B", "category": "B", "tn": 0.4, "fp": 0.6, "fn": 0.5, "tp": 0.5},
    ])
    with pytest.raises(pf.ParseError):
        pf.parse_inputs(MINIMAL_TAXONOMY, json.dumps(duplicate))


@pytest.mark.parametrize("entry, edit, message", [
    ("classifier", lambda cells: cells.update(tq=0.5), "profiles.classifiers.B: unknown keys ['tq']"),
    ("classifier", lambda cells: cells.pop("tp"), "profiles.classifiers.B: missing keys ['tp']"),
    ("override", lambda cells: cells.update(tq=0.5), "profiles.overrides[0]: unknown keys ['tq']"),
    ("override", lambda cells: cells.pop("tp"), "profiles.overrides[0]: missing keys ['tp']"),
], ids=["classifier-extra", "classifier-missing", "override-extra", "override-missing"])
def test_a_cell_key_error_names_its_entry(entry, edit, message):
    classifier = {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8}
    override = {"pipeline": "A/B", "category": "B", "tn": 0.5, "fp": 0.5, "fn": 0.5, "tp": 0.5}
    edit(classifier if entry == "classifier" else override)
    profiles = json.dumps({"classifiers": {"B": classifier}, "overrides": [override]})
    with pytest.raises(pf.ParseError) as err:
        pf.parse_inputs(MINIMAL_TAXONOMY, profiles)
    assert str(err.value) == message


def test_parse_taxonomy_keeps_a_missing_f():
    text = json.dumps({"root": "A", "categories": ["A", "B"],
                       "edges": [{"child": "B", "parent": "A"}]})
    t = pf.parse_taxonomy(text)
    assert t == pf.validate_taxonomy(["A", "B"], [pf.Edge("B", "A")])
    assert t.edge("B", "A").f is None


def bundle_digest(bundle: pf.InputBundle) -> str:
    """SHA-256 of the text of every value of a bundle, reprs of floats included."""
    t, p = bundle.taxonomy, bundle.profiles
    text = repr((sorted(t.categories), t.edges, t.root, sorted(p.base.items()),
                 sorted(p.overrides.items()), p.root, bundle.renormalized))
    return hashlib.sha256(text.encode()).hexdigest()


def test_common_shape_records_take_no_located_check(monkeypatch):
    """An edge or classifier of the common shape is checked once; each near
    miss, and every override, goes through the located checks on its own,
    and the bundle holds the values the located checks gave every record."""
    inputs = gen.tree(2000, 8, 42)  # every row sums to exactly 1
    located, cells = [], []
    require_keys, probability = pf.io._require_keys, pf.io._probability
    monkeypatch.setattr(pf.io, "_require_keys", lambda obj, allowed, required, where: (
        located.append(where) or require_keys(obj, allowed, required, where)))
    monkeypatch.setattr(pf.io, "_probability", lambda raw, key, where: (
        cells.append(where) or probability(raw, key, where)))
    bundle = pf.parse_inputs(inputs.taxonomy, inputs.profiles)
    assert located == ["taxonomy", "profiles"]  # the documents themselves
    assert cells == []
    assert bundle_digest(bundle) == (
        "ffcfc61600dbb1c1bc6211996a75684331147e45de1db7aa8321a783295430ee")

    taxonomy, profiles = json.loads(inputs.taxonomy), json.loads(inputs.profiles)
    taxonomy["edges"][0]["f"] = 1  # an integer f
    taxonomy["edges"][1]["f"] = None  # an explicit null
    profiles["classifiers"]["c3"]["tn"] += 1e-10  # renormalized
    profiles["classifiers"]["c4"].update(fn=0, tp=1.0)  # an integer cell
    profiles["overrides"] = [{"pipeline": "c0/c1/c9", "category": "c9",
                              "tn": 0.5, "fp": 0.5, "fn": 0.25, "tp": 0.75}]
    located.clear()
    bundle = pf.parse_inputs(json.dumps(taxonomy), json.dumps(profiles))
    assert located == ["taxonomy", "taxonomy.edges[0]", "taxonomy.edges[1]", "profiles",
                       "profiles.classifiers.c3", "profiles.classifiers.c4",
                       "profiles.overrides[0]"]
    assert cells == (["taxonomy.edges[0]"] + ["profiles.classifiers.c3"] * 4
                     + ["profiles.classifiers.c4"] * 4 + ["profiles.overrides[0]"] * 4)
    assert bundle.renormalized == ("c3",)
    assert bundle.taxonomy.edges[:2] == (pf.Edge("c1", "c0", 1.0), pf.Edge("c2", "c0", None))
    assert type(bundle.taxonomy.edges[0].f) is float
    base = bundle.profiles.base
    assert base["c3"] == (0.7888810558137255, 0.21111894418627447,
                          0.11901907515029275, 0.8809809248497072)
    assert base["c4"] == (0.7407600795389623, 0.2592399204610377, 0.0, 1.0)
    assert type(base["c4"].fn) is float
    assert bundle.profiles.overrides == {("c0/c1/c9", "c9"): (0.5, 0.5, 0.25, 0.75)}
    assert bundle_digest(bundle) == (
        "298c48e14ce3ebb89ba144ed8aef921783a7c0f610d5a7e777516ed3363099ea")


def golden_taxonomy_with(*edits) -> str:
    data = json.loads((Path(__file__).parent / "golden" / "taxonomy.json").read_text())
    for edit in edits:
        edit(data)
    return json.dumps(data)


def set_edge(i, **fields):
    return lambda data: data["edges"][i].update(fields)


@pytest.mark.parametrize("edits, error, message", [
    # the parse stage runs before the validate stage
    ((set_edge(0, child="Z"), set_edge(1, f=2)),
     pf.OutOfRangeProbabilityError, "taxonomy.edges[1]: f=2 outside [0, 1]"),
    # within the validate stage, file order decides
    ((set_edge(0, child="Z"), set_edge(1, child="A")),
     pf.UnknownCategoryError, "edge 'Z'<'A': unknown category 'Z'"),
    ((set_edge(0, child="Z"), lambda data: data["edges"].append(data["edges"][2])),
     pf.UnknownCategoryError, "edge 'Z'<'A': unknown category 'Z'"),
    ((set_edge(2, child="B"), set_edge(3, parent="Q")),
     pf.CycleDetectedError, "self-loop on 'B'"),
    ((lambda data: data["edges"].append(data["edges"][0]), set_edge(5, parent="F")),
     pf.CycleDetectedError, "self-loop on 'F'"),
    ((lambda data: data["categories"].__setitem__(2, "C/x"),
      lambda data: data["categories"].__setitem__(4, "E\t")),
     pf.UnknownCategoryError,
     "category name 'C/x' may not contain '/' (reserved for pipeline paths)"),
], ids=["parse-first", "unknown-before-self-loop", "unknown-before-duplicate",
        "self-loop-before-unknown", "self-loop-before-duplicate", "slash-before-tab"])
def test_inputs_with_several_faults_report_the_first(edits, error, message):
    with pytest.raises(error) as err:
        pf.parse_taxonomy(golden_taxonomy_with(*edits))
    assert str(err.value) == message


# --- writers and sinks -----------------------------------------------------------


#: each record writer, with the library call that makes its record from a bundle
RECORD_WRITERS = pytest.mark.parametrize("write, record", [
    (write_report, build_report),
    (pf.write_verification, lambda b: pf.verify_oracles(b.taxonomy, b.profiles, 1e-9, 6, 1, 42)),
    (pf.write_simulation, lambda b: pf.run_simulation(b.taxonomy, b.profiles, 10, 42, 1, 4.0)),
    (pf.write_sweep,
     lambda b: pf.imbalance_sweep(pf.find_pipeline(b.taxonomy, "A/B/C"), b.profiles, 0.3, 1, 42)),
], ids=["report", "verification", "simulation", "sweep"])


@RECORD_WRITERS
def test_writers_reject_an_unknown_format(write, record):
    bundle = pf.parse_inputs(L2_TAXONOMY_JSON, L2_PROFILES_JSON)  # a sweep needs depth 2
    with pytest.raises(ValueError, match=r"^unknown format 'xml'$"):
        write(record(bundle), "xml")


class PieceSink:
    """A text sink that keeps each piece written to it."""

    def __init__(self):
        self.pieces: list[str] = []

    def write(self, text: str) -> int:
        self.pieces.append(text)
        return len(text)


def written(write, *args) -> str:
    """What ``write(*args, sink)`` writes into a sink; it returns nothing then."""
    sink = PieceSink()
    assert write(*args, sink) is None
    return "".join(sink.pieces)


@RECORD_WRITERS
def test_writers_reject_an_unknown_format_before_writing_to_a_sink(write, record):
    sink = PieceSink()
    with pytest.raises(ValueError, match=r"^unknown format 'xml'$"):
        write(record(pf.parse_inputs(L2_TAXONOMY_JSON, L2_PROFILES_JSON)), "xml", sink)
    assert sink.pieces == []


@RECORD_WRITERS
@pytest.mark.parametrize("format", ["json", "tsv"])
def test_record_writers_write_to_a_sink_what_they_return(write, record, format):
    rec = record(pf.parse_inputs(L2_TAXONOMY_JSON, L2_PROFILES_JSON))
    text = write(rec, format)
    assert isinstance(text, str) and text
    assert written(write, rec, format) == text


def test_text_writers_write_to_a_sink_what_they_return():
    pipelines = pf.enumerate_pipelines(pf.parse_taxonomy(DAG_TAXONOMY_JSON))
    assert written(pf.write_pipelines, pipelines) == pf.write_pipelines(pipelines)
    assert written(pf.write_pipelines, ()) == pf.write_pipelines(()) == "\n"
    rows = [["A", "1"], ["B", "2"]]
    assert written(pf.io.tsv, ["x", "y"], rows) == pf.io.tsv(["x", "y"], rows) == "x\ty\nA\t1\nB\t2\n"


class CountingSink:
    """A text sink that counts the characters written to it and keeps none."""

    def __init__(self):
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)


@pytest.mark.parametrize("format", ["json", "tsv"])
def test_writing_a_report_to_a_sink_holds_little_of_its_text(format):
    # the chain's report repeats each prefix's rows in every pipeline below
    # it; written to a sink, only the distinct rows' text is held
    report = build_report(pf.parse_inputs(*chain_json(400)))
    sink = CountingSink()
    tracemalloc.start()
    try:
        write_report(report, format, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 40_000_000
    assert peak < 0.05 * sink.size, (peak, sink.size)


# --- reports ----------------------------------------------------------------------


def test_root_only_report():
    taxonomy = json.dumps({"root": "A", "categories": ["A"], "edges": []})
    profiles = json.dumps({"classifiers": {}})
    report = build_report(pf.parse_inputs(taxonomy, profiles))
    payload = json.loads(write_report(report, "json"))
    assert payload["taxonomy"]["pipeline_count"] == 1
    block = payload["pipelines"][0]
    assert block["pipeline"] == "A"
    assert block["omega"] == {"w00": 0.0, "w01": 0.0, "w10": 0.0, "w11": 1.0}
    assert block["metrics"]["tP"] == 1.0


def test_l2_report_reproduces_model_values():
    bundle = pf.parse_inputs(L2_TAXONOMY_JSON, L2_PROFILES_JSON)
    report = build_report(bundle)
    payload = json.loads(write_report(report, "json"))
    blocks = {b["pipeline"]: b for b in payload["pipelines"]}
    deep = blocks["A/B/C"]
    assert deep["omega"] == {"w00": 0.566, "w01": 0.034, "w10": 0.144, "w11": 0.256}
    assert deep["prior"] == {"neg": 0.6, "pos": 0.4}
    assert deep["eta"] == pytest.approx(0.034 / 0.006, abs=1e-9)
    assert deep["psi"]["fp"] == pytest.approx(0.01, abs=1e-12)
    assert deep["psi"]["tp"] == pytest.approx(0.64, abs=1e-12)
    assert deep["metrics"]["tR"] == 0.64
    recalls = [row["metrics"]["tR"] for row in deep["depth_profile"]]
    assert recalls == [1.0, 0.8, 0.64]
    verdicts = [row["precision_verdict"] for row in deep["depth_profile"]]
    assert verdicts == ["-", "decreasing", "decreasing"]


def test_report_writes_every_flag_and_verdict_text():
    report = build_report(CORNER_BUNDLE)
    blocks = {b["pipeline"]: b for b in json.loads(write_report(report, "json"))["pipelines"]}
    assert {path: b["flags"] for path, b in blocks.items()} == {
        "A": ["zero_negative_mass"], "A/B": ["zero_negative_mass"],
        "A/B/C": [], "A/B/D": [], "A/B/E": []}
    for path, flags in (("A/B/C", ["precision_undefined"]), ("A/B/D", ["recall_undefined"]),
                        ("A/B/E", ["f1_degenerate"])):
        rows = blocks[path]["depth_profile"]
        assert [row["metrics"]["flags"] for row in rows] == [[], [], flags]
        assert blocks[path]["metrics"]["flags"] == flags
        assert [row["precision_bound"] is None for row in rows] == [True, True, False]
    tsv_rows = [line.split("\t") for line in write_report(report, "tsv").splitlines()[1:]]
    assert [(r[0], r[-1]) for r in tsv_rows] == [
        ("A", "-"), ("A/B", "-"), ("A/B", "degenerate"),
        ("A/B/C", "-"), ("A/B/C", "degenerate"), ("A/B/C", "non_decreasing"),
        ("A/B/D", "-"), ("A/B/D", "degenerate"), ("A/B/D", "decreasing"),
        ("A/B/E", "-"), ("A/B/E", "degenerate"), ("A/B/E", "decreasing"),
    ]


def test_report_is_byte_identical_across_runs():
    bundle = pf.parse_inputs(DAG_TAXONOMY_JSON, DAG_PROFILES_JSON)
    for fmt in ("json", "tsv"):
        a = write_report(build_report(bundle), fmt)
        b = write_report(build_report(pf.parse_inputs(DAG_TAXONOMY_JSON, DAG_PROFILES_JSON)), fmt)
        assert a == b


def test_tsv_layout():
    bundle = pf.parse_inputs(L2_TAXONOMY_JSON, L2_PROFILES_JSON)
    text = write_report(build_report(bundle), "tsv")
    lines = text.splitlines()
    assert lines[0].split("\t") == [
        "pipeline", "k", "f_k", "w00", "w01", "w10", "w11",
        "tP", "tR", "tF1", "tA", "precision_verdict",
    ]
    # one row per (pipeline, depth): A(1) + A/B(2) + A/B/C(3)
    assert len(lines) == 1 + 1 + 2 + 3
    deep_rows = [l.split("\t") for l in lines if l.startswith("A/B/C\t")]
    assert [r[8] for r in deep_rows] == ["1", "0.8", "0.64"]  # tR column


def test_report_pipeline_filter_and_leaf_only():
    bundle = pf.parse_inputs(DAG_TAXONOMY_JSON, DAG_PROFILES_JSON)
    only = build_report(bundle, pipeline_path="A/B/D")
    assert [b.pipeline.path for b in only.blocks] == ["A/B/D"]
    leaves = build_report(bundle, leaf_only=True)
    assert [b.pipeline.path for b in leaves.blocks] == ["A/B/C", "A/B/D", "A/C"]
    with pytest.raises(pf.UnknownCategoryError):
        build_report(bundle, pipeline_path="A/Z")


@given(bundles_with_overrides())
@settings(max_examples=150, deadline=None)
def test_report_blocks_equal_the_per_pipeline_evaluations(bundle):
    paths = [p.path for p in pf.enumerate_pipelines(bundle.taxonomy)]
    reports = [build_report(bundle), build_report(bundle, leaf_only=True)]
    reports += [build_report(bundle, pipeline_path=path) for path in paths]
    for report in reports:
        for block in report.blocks:
            p = block.pipeline
            assert block == pf.depth_profile(p, bundle.profiles)
            assert block.factorization == pf.factorize(p, bundle.profiles)
            assert block.state.intrinsic() == pf.psi(p, bundle.profiles)


@given(bundles_with_overrides())
@settings(max_examples=100, deadline=None)
def test_report_json_is_pretty_printed_with_12_digit_reals(bundle):
    reals_of_pretty_json(write_report(build_report(bundle), "json"))


def infinite_eta_bundle():
    """A/B's classifier has fp = 0, and mass switched on the step to C still
    leaks, so A/B/C's eta is infinite."""
    return pf.parse_inputs(
        json.dumps({"root": "A", "categories": ["A", "B", "C"],
                    "edges": [{"child": "B", "parent": "A", "f": 0.5},
                              {"child": "C", "parent": "B", "f": 0.5}]}),
        json.dumps({"classifiers": {"B": {"tn": 1, "fp": 0, "fn": 0.2, "tp": 0.8},
                                    "C": {"tn": 0.8, "fp": 0.2, "fn": 0.1, "tp": 0.9}}}))


def golden_verification_at_zero_tolerance():
    bundle = golden_bundle()
    return pf.verify_oracles(bundle.taxonomy, bundle.profiles, 0.0, 6, 5, 42)


def inconsistent_dag_simulation():
    bundle = pf.parse_inputs(*inconsistent_dag_json())
    return pf.run_simulation(bundle.taxonomy, bundle.profiles, 1000, 42, 1, 4.0)


@pytest.mark.parametrize("text, fragments", [
    (lambda: write_report(build_report(CORNER_BUNDLE), "json"),
     ['"zero_negative_mass"', '"precision_undefined"', '"recall_undefined"',
      '"f1_degenerate"', '"tP": null', '"precision_bound": null', '"precision_verdict": "-"']),
    (lambda: write_report(build_report(infinite_eta_bundle()), "json"),
     ['"eta": null', '"eta_infinite"']),
    (lambda: pf.write_verification(golden_verification_at_zero_tolerance(), "json"),
     ['"passed": false', '"passed": true']),
    (lambda: pf.write_simulation(inconsistent_dag_simulation(), "json"),
     ['"max_z": null', '"passed": false']),
    (lambda: pf.write_sweep(pf.imbalance_sweep(pf.find_pipeline(CORNER_BUNDLE.taxonomy, "A/B/C"),
                                               CORNER_BUNDLE.profiles, 0.3, 3, 42), "json"),
     ['"min": null', '"undefined": 3', '"precision_undefined"']),
], ids=["corner-report", "infinite-eta-report", "failing-verify", "inconsistent-simulate",
        "undefined-spread-sweep"])
def test_every_slot_variant_is_pretty_printed(text, fragments):
    # each writer fills its template's slots with flag lists, nulls and
    # falses at indents the goldens barely reach; each text holds its fragments
    text = text()
    reals_of_pretty_json(text)
    assert all(fragment in text for fragment in fragments)


def test_library_int_reals_are_written_as_floats():
    def bundle(one, zero):
        edges = [pf.Edge("B", "A", one), pf.Edge("C", "B", zero)]
        taxonomy = pf.validate_taxonomy(["A", "B", "C"], edges)
        base = {"B": pf.NormalizedConfusionMatrix(tn=one, fp=zero, fn=zero, tp=one),
                "C": pf.NormalizedConfusionMatrix(tn=zero, fp=one, fn=one, tp=zero)}
        profiles = pf.ClassifierProfileSet(base=base, root="A")
        return pf.io.InputBundle(taxonomy=taxonomy, profiles=profiles)

    ints, floats = bundle(1, 0), bundle(1.0, 0.0)
    assert write_report(build_report(ints)) == write_report(build_report(floats))
    assert all(type(e.f) is float for e in ints.taxonomy.edges)
    assert all(type(x) is float
               for g in ints.profiles.base.values() for x in (g.tn, g.fp, g.fn, g.tp))

    # a pipeline built in the library keeps its int fs; its rows hold floats
    def profile_report(bundle, one):
        block = pf.depth_profile(pf.Pipeline(("A", "B"), (one, one)), bundle.profiles)
        return write_report(pf.Report(bundle.taxonomy, (), (block,)))

    int_text = profile_report(ints, 1)
    assert int_text == profile_report(floats, 1.0)
    assert '"f": 1.0' in int_text and '"f": 1,' not in int_text
    assert all(type(row.f) is float
               for row in pf.depth_profile(pf.Pipeline(("A", "B"), (1, 1)), ints.profiles).rows)


#: category names that look like %- and str.format fields, a quote and a
#: non-ASCII letter: a writer must copy each as its JSON text, never format it
FORMAT_LIKE_NAMES = ("%(pipeline)s", "{rows}", "%s%%", 'say "hi"', "Zürich")


def format_like_bundle():
    a, b, c, d, e = FORMAT_LIKE_NAMES
    gamma = {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8}
    return pf.parse_inputs(
        json.dumps({"root": "R", "categories": ["R", *FORMAT_LIKE_NAMES],
                    "edges": [{"child": a, "parent": "R", "f": 0.6},
                              {"child": b, "parent": a, "f": 0.5},
                              {"child": c, "parent": b, "f": 0.4},
                              {"child": d, "parent": "R", "f": 0.3},
                              {"child": e, "parent": d, "f": 0.2}]}),
        json.dumps({"classifiers": {**{name: gamma for name in FORMAT_LIKE_NAMES},
                                    c: {"tn": 0.7, "fp": 0.3 + 1e-12, "fn": 0.1, "tp": 0.9}},
                    "overrides": [{"pipeline": f"R/{a}/{b}", "category": b,
                                   "tn": 0.6, "fp": 0.4, "fn": 0.3, "tp": 0.7 - 1e-12}]}))


def test_format_like_names_are_written_as_json_strings():
    bundle = format_like_bundle()
    a, b, c = FORMAT_LIKE_NAMES[:3]
    assert bundle.renormalized == (c, f"R/{a}/{b}:{b}")
    deepest = pf.find_pipeline(bundle.taxonomy, f"R/{a}/{b}/{c}")
    documents = {
        "report": pf.write_report(build_report(bundle), "json"),
        "verify": pf.write_verification(
            pf.verify_oracles(bundle.taxonomy, bundle.profiles, 1e-12, 6, 5, 42), "json"),
        "simulate": pf.write_simulation(
            pf.run_simulation(bundle.taxonomy, bundle.profiles, 200, 42, 1, 4.0), "json"),
        "sweep": pf.write_sweep(pf.imbalance_sweep(deepest, bundle.profiles, 0.3, 3, 42), "json"),
    }
    for text in documents.values():
        reals_of_pretty_json(text)
    paths = {p.path for p in pf.enumerate_pipelines(bundle.taxonomy)}
    report = json.loads(documents["report"])
    assert report["taxonomy"]["categories"] == sorted(["R", *FORMAT_LIKE_NAMES])
    assert report["taxonomy"]["renormalized_classifiers"] == list(bundle.renormalized)
    assert {block["pipeline"] for block in report["pipelines"]} == paths
    assert paths <= {check["pipeline"] for check in json.loads(documents["verify"])["checks"]}
    assert {run["pipeline"] for run in json.loads(documents["simulate"])["runs"]} == paths
    assert json.loads(documents["sweep"])["pipeline"] == deepest.path


def test_record_templates_hold_no_percent_but_their_fields():
    # a template is filled by `template % texts`, so a `%` outside its
    # fields would be a format error or a silent substitution
    templates = {name: value for name, value in vars(pf.io).items()
                 if isinstance(value, str) and "%(" in value}
    assert {"_BLOCK", "_ROW", "_CHECK", "_RUN", "_SWEEP_ROW"} <= set(templates)
    for name, template in templates.items():
        assert "%" not in re.sub(r"%\(\w+\)s", "", template), name


def test_report_takes_one_step_per_pipeline(monkeypatch):
    rng = np.random.default_rng(0)
    taxonomy = random_tree(rng, 40)
    base = {c: random_gamma(rng) for c in taxonomy.categories if c != taxonomy.root}
    profiles = pf.ClassifierProfileSet(base=base, root=taxonomy.root)
    pipelines = pf.enumerate_pipelines(taxonomy)
    assert sum(p.depth for p in pipelines) > 2 * len(pipelines)

    calls = []
    step = pf.metrics.omega_step

    def counting_step(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(pf.metrics, "omega_step", counting_step)
    build_report(pf.io.InputBundle(taxonomy=taxonomy, profiles=profiles))
    assert len(calls) == len(pipelines) - 1


def golden_bundle():
    golden = Path(__file__).parent / "golden"
    return pf.parse_inputs((golden / "taxonomy.json").read_text(),
                           (golden / "profiles.json").read_text())


@pytest.mark.parametrize("inputs, options, resolved", [
    ("golden", {}, 7),
    ("golden", {"leaf_only": True}, 8),
    ("golden", {"pipeline_path": "A/B/D/E"}, 3),
    ("chain", {}, 399),
], ids=["golden", "golden-leaf-only", "golden-pipeline", "chain-400"])
def test_report_resolves_each_step_once(inputs, options, resolved, monkeypatch):
    """A pipeline folded on from its parent resolves its last step only; one
    folded from the root resolves each of its steps."""
    bundle = golden_bundle() if inputs == "golden" else pf.parse_inputs(*chain_json(400))
    calls = []
    resolve = pf.ClassifierProfileSet.resolve

    def counting_resolve(self, pipeline, k):
        calls.append(k)
        return resolve(self, pipeline, k)

    monkeypatch.setattr(pf.ClassifierProfileSet, "resolve", counting_resolve)
    build_report(bundle, **options)
    assert len(calls) == resolved


@pytest.mark.parametrize("inputs", ["golden", "chain-122"])
def test_report_factorization_reconstructs_the_reported_fp_mass(inputs):
    """prior_neg * phi.fp gives back the block's own w01 within one rounding
    of the division and one of the product."""
    bundle = golden_bundle() if inputs == "golden" else pf.parse_inputs(*chain_json(122))
    checked = 0
    for block in build_report(bundle).blocks:
        fact, w01 = block.factorization, block.rows[-1].omega.fp
        if w01 < sys.float_info.min or fact.phi.fp >= 1.0:
            continue
        assert abs(fact.prior_neg * fact.phi.fp - w01) <= 2**-52 * w01, block.pipeline.path
        checked += 1
    assert checked > 0


def count_rendered_rows(report, monkeypatch):
    """The depths of the JSON rows ``write_report`` renders for ``report``,
    and the number of TSV rows it renders."""
    json_ks, tsv_rows = [], []
    row_json, metric_cells = pf.io._row_json, pf.io._metric_cells
    monkeypatch.setattr(pf.io, "_row_json", lambda row: json_ks.append(row.k) or row_json(row))
    monkeypatch.setattr(pf.io, "_metric_cells",
                        lambda r: tsv_rows.append(r) or metric_cells(r))
    write_report(report, "json")
    write_report(report, "tsv")
    return json_ks, len(tsv_rows)


def test_report_writes_each_prefix_row_once(monkeypatch):
    n = 122
    report = build_report(pf.parse_inputs(*chain_json(n)))
    assert sum(len(b.rows) for b in report.blocks) == n * (n + 1) // 2
    json_ks, tsv_rows = count_rendered_rows(report, monkeypatch)
    assert json_ks == list(range(n))
    assert tsv_rows == n


def test_report_writes_a_fixed_number_of_reals_per_pipeline(monkeypatch):
    # a block's fs list, omega and metrics are its rows' texts, so a
    # pipeline costs the reals of its last row and of its factorization,
    # however deep it is: 21 here; rendering every block's own fs, omega
    # and metrics took 11,039 in all, 7,503 of them for the fs lists
    n = 122
    report = build_report(pf.parse_inputs(*chain_json(n)))
    reals, real = [], pf.io._real
    monkeypatch.setattr(pf.io, "_real", lambda x: reals.append(x) or real(x))
    write_report(report, "json")
    assert len(reals) <= 25 * n


def test_report_writes_each_row_of_the_golden_dag_once(monkeypatch):
    golden = Path(__file__).parent / "golden"
    bundle = pf.parse_inputs((golden / "taxonomy.json").read_text(),
                             (golden / "profiles.json").read_text())
    json_ks, tsv_rows = count_rendered_rows(build_report(bundle), monkeypatch)
    # every pipeline, overridden ones (A/B/D, A/C/D) and their extensions
    # included, adds its last row to its parent's
    assert json_ks == [0, 1, 2, 3, 2, 1, 2, 3]
    assert tsv_rows == len(json_ks)


@given(bundles_with_overrides())
@example(CORNER_BUNDLE)
@settings(max_examples=100, deadline=None)
def test_report_with_shared_rows_writes_what_unshared_rows_write(bundle):
    paths = [p.path for p in pf.enumerate_pipelines(bundle.taxonomy)]
    reports = [build_report(bundle), build_report(bundle, leaf_only=True)]
    reports += [build_report(bundle, pipeline_path=path) for path in paths]
    for report in reports:
        unshared = report._replace(blocks=tuple(
            pf.depth_profile(b.pipeline, bundle.profiles) for b in report.blocks))
        for fmt in ("json", "tsv"):
            assert write_report(report, fmt) == write_report(unshared, fmt)
        # each block alone, so that no row can be taken for another pipeline's
        bodies = [write_report(report._replace(blocks=(b,)), "tsv").split("\n", 1)[1]
                  for b in unshared.blocks]
        assert write_report(report, "tsv").split("\n", 1)[1] == "".join(bodies)


def test_report_row_records_reused_at_two_depths_print_each_depth():
    """A hand-built profile whose rows at depths 1 and 2 hold the very same
    f, omega, metrics and check objects prints what equal copies print."""
    bundle = pf.parse_inputs(L2_TAXONOMY_JSON, L2_PROFILES_JSON)
    report = build_report(bundle, pipeline_path="A/B/C")
    (b,) = report.blocks
    root, one = b.rows[:2]
    assert one.check is not None
    shared = b._replace(pipeline=pf.Pipeline(b.pipeline.nodes, (1.0, one.f, one.f)),
                        rows=(root, one, one._replace(k=2)))
    twin = pf.DepthRow(2, float(repr(one.f)), one.omega._replace(),
                       one.metrics._replace(), one.check._replace())
    copies = shared._replace(pipeline=pf.Pipeline(b.pipeline.nodes, (1.0, one.f, twin.f)),
                             rows=(root, one, twin))
    for fmt in ("json", "tsv"):
        text = write_report(report._replace(blocks=(shared,)), fmt)
        assert text == write_report(report._replace(blocks=(copies,)), fmt)
    rows = text.splitlines()[1:]
    assert [r.split("\t")[1] for r in rows] == ["0", "1", "2"]
    assert rows[1].split("\t")[2:] == rows[2].split("\t")[2:]


def test_number_formatting_helpers():
    assert fmt12(0.1) == "0.1"
    assert fmt12(1 / 3) == "0.333333333333"
    assert fmt12(float("inf")) == "inf"
    assert pf.io._cell12(None) == "-"
    assert pf.io._cell12(0.1) == "0.1"


# --- reals -----------------------------------------------------------------------


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_real_rejects_non_finite_floats_like_the_stdlib(x):
    with pytest.raises(ValueError) as real:
        _real(x)
    with pytest.raises(ValueError) as stdlib:
        json.dumps([x], indent=2, allow_nan=False)
    assert str(real.value) == str(stdlib.value)


#: where the 12-digit text turns to or from an exponent form, each with its
#: finite neighbours, and the subnormal and largest floats, where fewer
#: digits can round-trip (9.999999999995e11 is also the text that rounds up
#: to 1e12); a fraction, an integer, and a text just below 1e-4; and the
#: negative of each
REAL_TEXT_BOUNDARIES = [
    sign * x
    for v in [0.0, 1.0, 100.0, 1e-4, 9.999999999995e11, 1e12, 1e15, 1e16, 5e-324,
              sys.float_info.min, 1e-300, 1e-310, sys.float_info.max,
              0.5, 123.0, 9.99e-5]
    for x in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))
    if math.isfinite(x)
    for sign in (1.0, -1.0)
]


@pytest.mark.parametrize("x", REAL_TEXT_BOUNDARIES)
def test_real_text_is_the_shortest_text_of_the_12_digit_rounding(x):
    assert _real(x) == float.__repr__(float(fmt12(x)))


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=150, deadline=None)
def test_real_text_matches_the_12_digit_round_trip(x):
    assert _real(x) == float.__repr__(float(fmt12(x)))
