"""Input parsing, serialization round trips, and report determinism."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfmodel as pf
from pfmodel.io import build_report, dump_json, fmt12, write_report

from conftest import (
    DAG_PROFILES_JSON,
    DAG_TAXONOMY_JSON,
    L2_PROFILES_JSON,
    L2_TAXONOMY_JSON,
    random_gamma,
    random_tree,
)

MINIMAL_TAXONOMY = json.dumps(
    {"root": "A", "categories": ["A", "B"],
     "edges": [{"child": "B", "parent": "A", "f": 0.6}]}
)
MINIMAL_PROFILES = json.dumps(
    {"classifiers": {"B": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8}}}
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
    assert ("A/B", "B") in bundle.profiles.overrides

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

    duplicate = dict(base, overrides=[
        {"pipeline": "A/B", "category": "B", "tn": 0.5, "fp": 0.5, "fn": 0.5, "tp": 0.5},
        {"pipeline": "A/B", "category": "B", "tn": 0.4, "fp": 0.6, "fn": 0.5, "tp": 0.5},
    ])
    with pytest.raises(pf.ParseError):
        pf.parse_inputs(MINIMAL_TAXONOMY, json.dumps(duplicate))


# --- round trips -----------------------------------------------------------------


def test_parse_serialize_parse_idempotent():
    for taxonomy_text, profiles_text in (
        (MINIMAL_TAXONOMY, MINIMAL_PROFILES),
        (DAG_TAXONOMY_JSON, DAG_PROFILES_JSON),
        (L2_TAXONOMY_JSON, L2_PROFILES_JSON),
    ):
        bundle = pf.parse_inputs(taxonomy_text, profiles_text)
        t_text = pf.serialize_taxonomy(bundle.taxonomy)
        p_text = pf.serialize_profiles(bundle.profiles)
        again = pf.parse_inputs(t_text, p_text)
        assert again.taxonomy == bundle.taxonomy
        assert again.profiles == bundle.profiles
        assert pf.serialize_taxonomy(again.taxonomy) == t_text
        assert pf.serialize_profiles(again.profiles) == p_text


def test_serialize_profiles_keeps_overrides():
    base = {"classifiers": {"B": {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8}},
            "overrides": [{"pipeline": "A/B", "category": "B",
                           "tn": 0.5, "fp": 0.5, "fn": 0.5, "tp": 0.5}]}
    bundle = pf.parse_inputs(MINIMAL_TAXONOMY, json.dumps(base))
    text = pf.serialize_profiles(bundle.profiles)
    again = pf.parse_inputs(MINIMAL_TAXONOMY, text)
    assert again.profiles == bundle.profiles


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


probabilities = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])


@st.composite
def bundles_with_overrides(draw):
    """A small random DAG (up to two parents per node), profiles, and
    overrides on random steps of random pipelines: last steps, earlier
    steps, and paths that other pipelines extend."""
    n = draw(st.integers(1, 7))
    names = [f"c{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parents = draw(st.sets(st.integers(0, i - 1), min_size=1, max_size=min(i, 2)))
        edges += [pf.Edge(names[i], names[j], draw(probabilities)) for j in sorted(parents)]
    taxonomy = pf.validate_taxonomy(names, edges)

    def gamma():
        fp, tp = draw(probabilities), draw(probabilities)
        return pf.NormalizedConfusionMatrix(tn=1.0 - fp, fp=fp, fn=1.0 - tp, tp=tp)

    base = {c: gamma() for c in names[1:]}
    stepped = [p for p in pf.enumerate_pipelines(taxonomy) if p.depth >= 1]
    overrides = {}
    if stepped:
        for _ in range(draw(st.integers(0, 4))):
            p = draw(st.sampled_from(stepped))
            overrides[(p.path, p.nodes[draw(st.integers(1, p.depth))])] = gamma()
    profiles = pf.ClassifierProfileSet(base=base, overrides=overrides, root=names[0])
    return pf.io.InputBundle(taxonomy=taxonomy, profiles=profiles)


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
    text = write_report(build_report(bundle), "json")
    floats = []

    def keep(literal):
        floats.append(float(literal))
        return floats[-1]

    assert text == json.dumps(json.loads(text, parse_float=keep), indent=2) + "\n"
    assert all(float(fmt12(x)) == x for x in floats)


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
    assert pf.io.serialize_taxonomy(ints.taxonomy) == pf.io.serialize_taxonomy(floats.taxonomy)
    assert pf.io.serialize_profiles(ints.profiles) == pf.io.serialize_profiles(floats.profiles)
    assert '"f": 1.0' in pf.io.serialize_taxonomy(ints.taxonomy)


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


@pytest.mark.parametrize(
    "options, resolved",
    [({}, 8), ({"leaf_only": True}, 3), ({"pipeline_path": "A/B/D/E"}, 1)],
)
def test_report_resolves_each_chain_once(options, resolved, monkeypatch):
    golden = Path(__file__).parent / "golden"
    bundle = pf.parse_inputs((golden / "taxonomy.json").read_text(),
                             (golden / "profiles.json").read_text())
    calls = []
    gamma_chain = pf.ClassifierProfileSet.gamma_chain

    def counting_chain(self, pipeline):
        calls.append(pipeline.path)
        return gamma_chain(self, pipeline)

    monkeypatch.setattr(pf.ClassifierProfileSet, "gamma_chain", counting_chain)
    report = build_report(bundle, **options)
    assert calls == [b.pipeline.path for b in report.blocks]
    assert len(calls) == resolved


def test_number_formatting_helpers():
    assert fmt12(0.1) == "0.1"
    assert fmt12(1 / 3) == "0.333333333333"
    assert fmt12(float("inf")) == "inf"
    assert pf.io.cell12(None) == "-"
    assert pf.io.cell12(0.1) == "0.1"


# --- the JSON writer --------------------------------------------------------------

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308])
    | st.text()
    | st.sampled_from(["", "\u00e9\u4e2d\U0001f600", "\x00\x1f\t\n\"\\/", "\u2028\x7f"])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=40,
)


@given(json_values)
@settings(max_examples=150, deadline=None)
def test_dump_json_matches_the_stdlib_pretty_printer(value):
    def rounded(v):
        if isinstance(v, float):
            return float(fmt12(v))
        if isinstance(v, (list, tuple)):
            return [rounded(x) for x in v]
        if isinstance(v, dict):
            return {k: rounded(x) for k, x in v.items()}
        return v

    assert dump_json(value) == json.dumps(rounded(value), indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_dump_json_rejects_non_finite_floats_like_the_stdlib(x):
    with pytest.raises(ValueError) as ours:
        dump_json({"a": [1.0, x]})
    with pytest.raises(ValueError) as stdlib:
        json.dumps({"a": [1.0, x]}, indent=2, allow_nan=False)
    assert str(ours.value) == str(stdlib.value)


@pytest.mark.parametrize("value", [{1, 2}, b"x", object(), {1: 2.0}, {"a": [{None: 1}]}])
def test_dump_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        dump_json(value)


def test_dump_json_writes_iterators_as_arrays():
    expected = {"empty": [], "rows": [{"k": 0}, {"k": 1}], "nested": [[1.5, "x"]]}
    streamed = {
        "empty": (k for k in ()),
        "rows": ({"k": k} for k in range(2)),
        "nested": iter([iter([1.5, "x"])]),
    }
    assert dump_json(streamed) == json.dumps(expected, indent=2) + "\n"
    assert dump_json(k for k in ()) == "[]\n"
