"""CLI subcommands, exit codes, and output determinism."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from pfmodel import cli, depth_profile, find_pipeline, parse_inputs
from pfmodel.cli import EXIT_FALSIFIED, EXIT_INTERNAL, EXIT_INVALID, EXIT_OK, main
from pfmodel.io import fmt12

from conftest import DEEP_CHAIN_SIZE, chain_json


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- pipelines -------------------------------------------------------------------


def test_pipelines_lists_unfolding(dag_files, capsys):
    taxonomy, _ = dag_files
    code, out, _ = run(["pipelines", "--taxonomy", taxonomy], capsys)
    assert code == EXIT_OK
    assert out.splitlines() == ["A", "A/B", "A/B/C", "A/B/D", "A/C"]


def test_pipelines_leaf_only(dag_files, capsys):
    taxonomy, _ = dag_files
    code, out, _ = run(["pipelines", "--taxonomy", taxonomy, "--leaf-only"], capsys)
    assert code == EXIT_OK
    assert out.splitlines() == ["A/B/C", "A/B/D", "A/C"]


def test_pipelines_of_deep_chain(deep_chain_files, capsys):
    taxonomy, _ = deep_chain_files
    code, out, _ = run(["pipelines", "--taxonomy", taxonomy], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == DEEP_CHAIN_SIZE
    assert lines[-1] == "/".join(f"c{i}" for i in range(DEEP_CHAIN_SIZE))


# --- analyze ---------------------------------------------------------------------


def test_analyze_deep_chain_pipeline_tsv(deep_chain_files, capsys):
    taxonomy, profiles = deep_chain_files
    deepest = "/".join(f"c{i}" for i in range(DEEP_CHAIN_SIZE))
    code, out, _ = run(["analyze", "--taxonomy", taxonomy, "--profiles", profiles,
                        "--pipeline", deepest, "--format", "tsv"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 1 + DEEP_CHAIN_SIZE  # header, then prefixes k = 0..depth
    bundle = parse_inputs(Path(taxonomy).read_text(), Path(profiles).read_text())
    pipeline = find_pipeline(bundle.taxonomy, deepest)
    omega = depth_profile(pipeline, bundle.profiles).omegas[-1]
    assert lines[-1].split("\t")[3:7] == [fmt12(w) for w in omega.as_tuple()]


def test_analyze_tsv_recall_column(l2_files, capsys):
    taxonomy, profiles = l2_files
    code, out, _ = run(
        ["analyze", "--taxonomy", taxonomy, "--profiles", profiles, "--format", "tsv"],
        capsys,
    )
    assert code == EXIT_OK
    deep = [l.split("\t") for l in out.splitlines() if l.startswith("A/B/C\t")]
    assert [r[8] for r in deep] == ["1", "0.8", "0.64"]


def test_analyze_json_structure(l2_files, capsys):
    taxonomy, profiles = l2_files
    code, out, _ = run(["analyze", "--taxonomy", taxonomy, "--profiles", profiles], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["taxonomy"]["root"] == "A"
    assert [b["pipeline"] for b in payload["pipelines"]] == ["A", "A/B", "A/B/C"]


def test_analyze_deterministic_bytes(l2_files, tmp_path, capsys):
    taxonomy, profiles = l2_files
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code, _, _ = run(
            ["analyze", "--taxonomy", taxonomy, "--profiles", profiles, "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_bad_file_exit_code(l2_files, tmp_path, capsys):
    _, profiles = l2_files
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(["analyze", "--taxonomy", str(bad), "--profiles", profiles], capsys)
    assert code == EXIT_INVALID
    assert "error" in err


def test_analyze_missing_file_exit_code(l2_files, capsys):
    _, profiles = l2_files
    code, _, err = run(
        ["analyze", "--taxonomy", "/nonexistent.json", "--profiles", profiles], capsys
    )
    assert code == EXIT_INVALID


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, edit, location", [
    ("taxonomy", lambda d: d.update(edges=5), "taxonomy.edges"),
    ("taxonomy", lambda d: d["edges"][0].update(child=["B"]), "taxonomy.edges[0]"),
    ("profiles", lambda d: d.update(overrides=5), "profiles.overrides"),
    ("profiles", lambda d: d["overrides"][1].update(pipeline=5), "profiles.overrides[1]"),
    ("taxonomy", lambda d: d["edges"][0].update(f=10**400), "taxonomy.edges[0]"),
    ("profiles", lambda d: d["classifiers"]["B"].update(tp=10**400), "profiles.classifiers.B"),
], ids=["edges-int", "edge-child-list", "overrides-int", "override-pipeline-int",
        "edge-f-huge-int", "cell-huge-int"])
def test_malformed_input_is_invalid_input(name, edit, location, tmp_path, capsys):
    files = {}
    for key in ("taxonomy", "profiles"):
        data = json.loads((GOLDEN / f"{key}.json").read_text())
        if key == name:
            edit(data)
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(data))
    code, out, err = run(["analyze", "--taxonomy", str(files["taxonomy"]),
                          "--profiles", str(files["profiles"])], capsys)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith(f"pfmodel: error: {location}: ")
    assert "Traceback" not in err


def test_a_huge_out_of_range_number_is_echoed_shortened(tmp_path, capsys):
    data = json.loads((GOLDEN / "taxonomy.json").read_text())
    data["edges"][0]["f"] = 10**400
    taxonomy = tmp_path / "taxonomy.json"
    taxonomy.write_text(json.dumps(data))
    code, out, err = run(["pipelines", "--taxonomy", str(taxonomy)], capsys)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("pfmodel: error: taxonomy.edges[0]: f=")
    assert err.count("\n") == 1 and len(err) < 120


def test_deeply_nested_input_is_invalid_input(tmp_path, capsys):
    nested = tmp_path / "taxonomy.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(["pipelines", "--taxonomy", str(nested)], capsys)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "pfmodel: error: taxonomy: arrays or objects nested too deeply\n"


def test_undecodable_input_is_invalid_input(tmp_path, capsys):
    latin1 = tmp_path / "taxonomy.json"
    latin1.write_bytes('{"root": "\xe9"}'.encode("latin-1"))
    code, out, err = run(["pipelines", "--taxonomy", str(latin1)], capsys)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == (f"pfmodel: error: {latin1}: "
                   "not UTF-8 text: invalid continuation byte at byte 10\n")


def test_unexpected_exception_is_an_internal_error(dag_files, monkeypatch, capsys):
    def broken(args):
        raise ValueError("a fault of pfmodel")

    monkeypatch.setattr(cli, "_cmd_pipelines", broken)
    taxonomy, _ = dag_files
    code, out, err = run(["pipelines", "--taxonomy", taxonomy], capsys)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "pfmodel: internal error: ValueError: a fault of pfmodel\n"


def test_analyze_edge_without_f_is_invalid_input(tmp_path, capsys):
    taxonomy = tmp_path / "taxonomy.json"
    taxonomy.write_text(json.dumps({
        "root": "A", "categories": ["A", "B", "C"],
        "edges": [{"child": "B", "parent": "A", "f": 0.5}, {"child": "C", "parent": "B"}],
    }))
    profiles = tmp_path / "profiles.json"
    gamma = {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8}
    profiles.write_text(json.dumps({"classifiers": {"B": gamma, "C": gamma}}))
    code, out, err = run(["analyze", "--taxonomy", str(taxonomy),
                          "--profiles", str(profiles)], capsys)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "pfmodel: error: pipeline A/B/C: edge into 'C' has no f\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing required flags
    assert exc.value.code == EXIT_INVALID


# --- verify -----------------------------------------------------------------------


def test_verify_passes_at_default_tolerance(l2_files, capsys):
    taxonomy, profiles = l2_files
    code, out, _ = run(
        ["verify", "--taxonomy", taxonomy, "--profiles", profiles,
         "--max-len", "6", "--tol", "1e-12"],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["max_discrepancy"] <= 1e-12
    sources = {c["source"] for c in payload["checks"]}
    assert "taxonomy" in sources and any(s.startswith("random") for s in sources)


def test_verify_gate_trips_at_zero_tolerance(dag_files, capsys):
    taxonomy, profiles = dag_files
    code, out, _ = run(
        ["verify", "--taxonomy", taxonomy, "--profiles", profiles, "--tol", "0"],
        capsys,
    )
    assert code == EXIT_FALSIFIED
    assert json.loads(out)["passed"] is False


def test_verify_tsv(l2_files, capsys):
    taxonomy, profiles = l2_files
    code, out, _ = run(
        ["verify", "--taxonomy", taxonomy, "--profiles", profiles,
         "--format", "tsv", "--samples", "5"],
        capsys,
    )
    assert code == EXIT_OK
    header = out.splitlines()[0].split("\t")
    assert header == ["source", "pipeline", "depth", "check", "discrepancy", "passed"]


def test_verify_max_len_zero_without_samples(l2_files, capsys):
    taxonomy, profiles = l2_files
    code, _, _ = run(
        ["verify", "--taxonomy", taxonomy, "--profiles", profiles,
         "--max-len", "0", "--samples", "0"],
        capsys,
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("argv, message", [
    (["verify", "--tol", "nan"], "--tol must be finite and at least 0, got nan"),
    (["verify", "--tol", "-1"], "--tol must be finite and at least 0, got -1.0"),
    (["verify", "--tol", "inf"], "--tol must be finite and at least 0, got inf"),
    (["verify", "--samples", "-1"], "--samples must be at least 0, got -1"),
    (["verify", "--max-len", "0"],
     "--max-len must be at least 1 when --samples is above 0, got 0"),
    (["simulate", "--m", "100", "--z-threshold", "nan"],
     "--z-threshold must be finite and at least 0, got nan"),
    (["simulate", "--m", "100", "--z-threshold", "-1"],
     "--z-threshold must be finite and at least 0, got -1.0"),
    (["simulate", "--m", "100", "--z-threshold", "inf"],
     "--z-threshold must be finite and at least 0, got inf"),
    (["verify", "--seed", "-1"],
     "--seed must be at least 0 and at most 18446744073709551615, got -1"),
    (["verify", "--seed", "18446744073709551616"],
     "--seed must be at least 0 and at most 18446744073709551615, got 18446744073709551616"),
    (["simulate", "--m", "10", "--seed", "-1"],
     "--seed must be at least 0 and at most 18446744073709551615, got -1"),
    (["simulate", "--m", "10", "--seed", "18446744073709551615", "--replications", "2"],
     "--seed must be at least 0 and at most 18446744073709551614, got 18446744073709551615"),
    (["sweep", "--pipeline", "A/B/C", "--target", "0.1", "--seed", "-1"],
     "--seed must be at least 0 and at most 18446744073709551615, got -1"),
    (["simulate", "--m", "0"], "--m must be at least 1, got 0"),
    (["sweep", "--pipeline", "A/B/C", "--target", "0.1", "--n", "0"],
     "--n must be at least 1, got 0"),
    (["sweep", "--pipeline", "A/B/C", "--target", "1.5"],
     "--target must be strictly between 0 and 1, got 1.5"),
    (["sweep", "--pipeline", "A/B/C", "--target", "nan"],
     "--target must be strictly between 0 and 1, got nan"),
    (["simulate", "--m", str(10**20)],
     f"--m must be at most {sys.maxsize // 8}, got {10**20}"),
    (["verify", "--samples", "1", "--max-len", str(2**63)],
     f"--max-len must be at most {2**63 - 1} when --samples is above 0, got {2**63}"),
], ids=["tol-nan", "tol-neg", "tol-inf", "samples-neg", "max-len-0",
        "z-nan", "z-neg", "z-inf", "verify-seed-neg", "verify-seed-2**64",
        "simulate-seed-neg", "simulate-seed-last-replication", "sweep-seed-neg",
        "m-0", "n-0", "target-1.5", "target-nan", "m-1e20", "max-len-2**63"])
def test_bad_numeric_flags_are_invalid_input(l2_files, argv, message, fmt, capsys):
    taxonomy, profiles = l2_files
    code, out, err = run(
        [argv[0], "--taxonomy", taxonomy, "--profiles", profiles, "--format", fmt,
         *argv[1:]],
        capsys,
    )
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"pfmodel: error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--m", "0"],
    ["sweep", "--pipeline", "A/B", "--target", "0.1", "--n", "0"],
    ["sweep", "--pipeline", "A/B", "--target", "1.5"],
    ["simulate", "--m", str(10**20)],
    ["verify", "--samples", "1", "--max-len", str(2**63)],
], ids=["m-0", "n-0", "target-1.5", "m-1e20", "max-len-2**63"])
def test_numeric_flags_are_checked_before_any_input_is_read(argv, capsys):
    missing = "/nonexistent.json"
    code, out, err = run([argv[0], "--taxonomy", missing, "--profiles", missing, *argv[1:]],
                         capsys)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith(f"pfmodel: error: {argv[-2]} must be ")


# --- simulate ---------------------------------------------------------------------


def test_simulate_taxonomy_mode(dag_files, capsys):
    taxonomy, profiles = dag_files
    code, out, _ = run(
        ["simulate", "--taxonomy", taxonomy, "--profiles", profiles, "--m", "20000"],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [r["pipeline"] for r in payload["runs"]] == ["A", "A/B", "A/B/C", "A/B/D", "A/C"]


def test_simulate_single_pipeline_and_replications(l2_files, capsys):
    taxonomy, profiles = l2_files
    code, out, _ = run(
        ["simulate", "--taxonomy", taxonomy, "--profiles", profiles,
         "--pipeline", "A/B/C", "--m", "20000", "--replications", "3", "--format", "tsv"],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 1 + 3  # header + one row per replication
    assert {l.split("\t")[2] for l in lines[1:]} == {"A/B/C"}
    seeds = [int(l.split("\t")[1]) for l in lines[1:]]
    assert seeds == [42, 43, 44]


def test_simulate_pipeline_predicts_once(l2_files, monkeypatch, capsys):
    taxonomy, profiles = l2_files
    omega_closed = cli.omega_closed
    calls = []

    def counting_omega_closed(pipeline, profile_set):
        calls.append(pipeline.path)
        return omega_closed(pipeline, profile_set)

    monkeypatch.setattr(cli, "omega_closed", counting_omega_closed)
    code, _, _ = run(
        ["simulate", "--taxonomy", taxonomy, "--profiles", profiles,
         "--pipeline", "A/B/C", "--m", "2000", "--replications", "3"],
        capsys,
    )
    assert code == EXIT_OK
    assert calls == ["A/B/C"]


def test_simulate_deterministic_bytes(dag_files, tmp_path, capsys):
    taxonomy, profiles = dag_files
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    for out in (out1, out2):
        code, _, _ = run(
            ["simulate", "--taxonomy", taxonomy, "--profiles", profiles,
             "--m", "20000", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_gate_trips_at_tiny_threshold(l2_files, capsys):
    taxonomy, profiles = l2_files
    code, out, _ = run(
        ["simulate", "--taxonomy", taxonomy, "--profiles", profiles,
         "--m", "20000", "--z-threshold", "0.0001"],
        capsys,
    )
    assert code == EXIT_FALSIFIED


def test_simulate_unknown_pipeline(l2_files, capsys):
    taxonomy, profiles = l2_files
    code, _, err = run(
        ["simulate", "--taxonomy", taxonomy, "--profiles", profiles, "--pipeline", "A/Z"],
        capsys,
    )
    assert code == EXIT_INVALID


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_simulate_subnormal_predictions_do_not_falsify(tmp_path, fmt, capsys):
    # at f=0.5 a few cells of this chain's deep pipelines predict subnormal
    # mass, where p (1-p) / m underflows; a count of 0 there is no deviation
    taxonomy, profiles = tmp_path / "taxonomy.json", tmp_path / "profiles.json"
    for path, text in zip((taxonomy, profiles), chain_json(DEEP_CHAIN_SIZE, f=0.5)):
        path.write_text(text)
    code, out, err = run(
        ["simulate", "--taxonomy", str(taxonomy), "--profiles", str(profiles),
         "--m", "16", "--format", fmt],
        capsys,
    )
    assert (code, err) == (EXIT_OK, "")
    if fmt == "json":
        runs = json.loads(out)["runs"]
        assert len(runs) == DEEP_CHAIN_SIZE and all(r["passed"] for r in runs)
    else:
        rows = out.splitlines()[1:]
        assert len(rows) == DEEP_CHAIN_SIZE and all(r.endswith("\ttrue") for r in rows)


@pytest.mark.parametrize("replications", ["0", "-1"])
def test_simulate_rejects_replications_below_one(l2_files, replications, capsys):
    taxonomy, profiles = l2_files
    code, out, err = run(
        ["simulate", "--taxonomy", taxonomy, "--profiles", profiles,
         "--m", "100", "--replications", replications],
        capsys,
    )
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"pfmodel: error: --replications must be at least 1, got {replications}\n"


@pytest.mark.parametrize("argv, path", [
    (["analyze", "--pipeline", "A/Z"], "A/Z"),
    (["analyze", "--leaf-only", "--pipeline", "A/B"], "A/B"),
    (["simulate", "--m", "100", "--pipeline", "A/Z"], "A/Z"),
    (["sweep", "--target", "0.1", "--pipeline", "A/Z"], "A/Z"),
])
def test_unknown_pipeline_error_text(l2_files, argv, path, capsys):
    taxonomy, profiles = l2_files
    code, out, err = run(
        [argv[0], "--taxonomy", taxonomy, "--profiles", profiles, *argv[1:]], capsys
    )
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"pfmodel: error: no pipeline {path!r} in this taxonomy\n"


# --- sweep ------------------------------------------------------------------------


def test_sweep_tsv_rows_and_spread(l2_files, capsys):
    taxonomy, profiles = l2_files
    code, out, _ = run(
        ["sweep", "--taxonomy", taxonomy, "--profiles", profiles,
         "--pipeline", "A/B/C", "--target", "0.1", "--n", "20", "--format", "tsv"],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].split("\t") == ["index", "f_1", "f_2", "tP", "tR", "tF1", "tA"]
    data = [l.split("\t") for l in lines[1:] if not l.split("\t")[0].endswith("_spread")]
    assert len(data) == 20
    assert {r[4] for r in data} == {"0.64"}  # recall identical across rows
    spread = [l for l in lines if l.startswith("tP_spread")]
    assert len(spread) == 1


def test_sweep_json_deterministic(l2_files, capsys):
    taxonomy, profiles = l2_files
    args = ["sweep", "--taxonomy", taxonomy, "--profiles", profiles,
            "--pipeline", "A/B/C", "--target", "0.2", "--n", "5"]
    code1, out1, _ = run(args, capsys)
    code2, out2, _ = run(args, capsys)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    assert {s["metric"] for s in payload["spread"]} == {
        "precision", "recall", "f1", "accuracy"
    }


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_sweep_metric_undefined_in_every_row(tmp_path, fmt, capsys):
    # B accepts nothing, so precision and F1 are undefined in every row
    golden = Path(__file__).parent / "golden"
    payload = json.loads((golden / "profiles.json").read_text())
    payload["classifiers"]["B"] = {"tn": 1, "fp": 0, "fn": 1, "tp": 0}
    profiles = tmp_path / "profiles.json"
    profiles.write_text(json.dumps(payload))
    code, out, err = run(
        ["sweep", "--taxonomy", str(golden / "taxonomy.json"), "--profiles", str(profiles),
         "--pipeline", "A/B/D/E", "--target", "0.05", "--n", "3", "--format", fmt],
        capsys,
    )
    assert (code, err) == (EXIT_OK, "")
    if fmt == "json":
        spread = {s["metric"]: s for s in json.loads(out)["spread"]}
        for metric in ("precision", "f1"):
            assert spread[metric] == {
                "metric": metric, "min": None, "max": None, "mean": None, "undefined": 3
            }
    else:
        rows = {line.split("\t")[0]: line.split("\t")[1:] for line in out.splitlines()}
        assert rows["tP_spread"] == rows["tF1_spread"] == ["-"] * 7


def test_sweep_infeasible_target(l2_files, capsys):
    taxonomy, profiles = l2_files
    code, _, err = run(
        ["sweep", "--taxonomy", taxonomy, "--profiles", profiles,
         "--pipeline", "A/B/C", "--target", "1.5"],
        capsys,
    )
    assert code == EXIT_INVALID
