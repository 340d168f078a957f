"""CLI subcommands, exit codes, and output determinism."""

from __future__ import annotations

import json

import pytest

from pfmodel.cli import EXIT_FALSIFIED, EXIT_INVALID, EXIT_OK, main

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
], ids=["tol-nan", "tol-neg", "tol-inf", "samples-neg", "max-len-0",
        "z-nan", "z-neg", "z-inf"])
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


def test_sweep_infeasible_target(l2_files, capsys):
    taxonomy, profiles = l2_files
    code, _, err = run(
        ["sweep", "--taxonomy", taxonomy, "--profiles", profiles,
         "--pipeline", "A/B/C", "--target", "1.5"],
        capsys,
    )
    assert code == EXIT_INVALID
