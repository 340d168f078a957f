"""CLI subcommands, exit codes, and output determinism."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfmodel import (
    cli,
    depth_profile,
    enumerate_pipelines,
    find_pipeline,
    oracles,
    parse_inputs,
    parse_taxonomy,
    simulate,
)
from pfmodel.cli import EXIT_FALSIFIED, EXIT_INTERNAL, EXIT_INVALID, EXIT_OK, main
from pfmodel import io as pfio
from pfmodel.io import fmt12

from conftest import (DEEP_CHAIN_SIZE, assert_simulated_models_are_omega_closed, chain_json,
                      inconsistent_dag_json, reals_of_pretty_json)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GAMMA = {"tn": 0.9, "fp": 0.1, "fn": 0.2, "tp": 0.8}


def write_inputs(tmp_path, edges, classifiers=None):
    """Taxonomy and profiles files for ``edges`` (child, parent, f) under root
    A; every category gets ``GAMMA`` unless ``classifiers`` names it."""
    categories = ["A"] + sorted({child for child, _, _ in edges})
    taxonomy, profiles = tmp_path / "taxonomy.json", tmp_path / "profiles.json"
    taxonomy.write_text(json.dumps({
        "root": "A", "categories": categories,
        "edges": [{"child": c, "parent": p, "f": f} for c, p, f in edges],
    }))
    profiles.write_text(json.dumps(
        {"classifiers": {c: GAMMA for c in categories[1:]} | (classifiers or {})}
    ))
    return str(taxonomy), str(profiles)


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


def test_every_subcommand_lists_pipelines_in_one_order(tmp_path, capsys):
    # '-' sorts below '/', so a sort on path strings would put A/B-x before A/B/C
    taxonomy, profiles = write_inputs(
        tmp_path, [("B", "A", 0.6), ("B-x", "A", 0.3), ("C", "B", 0.5)]
    )
    inputs = ["--taxonomy", taxonomy, "--profiles", profiles, "--format", "tsv"]
    code, out, _ = run(["pipelines", "--taxonomy", taxonomy], capsys)
    assert code == EXIT_OK
    order = out.splitlines()
    assert order == ["A", "A/B", "A/B/C", "A/B-x"]
    # the TSV column that names the pipeline, after each subcommand's options
    for argv, column in ((["analyze"], 0), (["verify", "--samples", "0"], 1),
                         (["simulate", "--m", "2000"], 2)):
        code, out, _ = run([argv[0], *inputs, *argv[1:]], capsys)
        assert code == EXIT_OK
        listed = [line.split("\t")[column] for line in out.splitlines()[1:]]
        assert list(dict.fromkeys(listed)) == order, argv[0]


@pytest.mark.parametrize("categories", [
    ["A", "B\tx", "C\nD"],
    [],
], ids=["control-characters", "empty"])
def test_unusable_category_lists_are_invalid_input(categories, tmp_path, capsys):
    taxonomy = tmp_path / "taxonomy.json"
    taxonomy.write_text(json.dumps({
        "root": "A", "categories": categories,
        "edges": [{"child": c, "parent": "A"} for c in categories[1:]],
    }))
    code, out, err = run(["pipelines", "--taxonomy", str(taxonomy)], capsys)
    assert (code, out) == (EXIT_INVALID, "")
    if categories:  # the first offending name in the file, whatever the hash seed
        assert err == ("pfmodel: error: category name 'B\\tx' may not contain control "
                       "characters or line breaks\n")
    else:
        assert err == "pfmodel: error: the category list is empty\n"


@pytest.mark.parametrize("argv", [["pipelines"], ["analyze", "--format", "tsv"]])
def test_stdout_is_utf8_whatever_the_locale(argv, tmp_path):
    taxonomy, profiles = write_inputs(tmp_path, [("B\u00e9", "A", 0.5)])
    inputs = ["--taxonomy", taxonomy]
    if argv[0] != "pipelines":
        inputs += ["--profiles", profiles]
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONIOENCODING="ascii",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out_file = tmp_path / "out"
    command = [sys.executable, "-m", "pfmodel.cli", argv[0], *inputs, *argv[1:]]
    assert subprocess.run([*command, "--out", str(out_file)], env=env, timeout=120).returncode == 0
    proc = subprocess.run(command, env=env, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert "A/B\u00e9".encode("utf-8") in proc.stdout
    assert proc.stdout == out_file.read_bytes()


def test_text_only_stdout_gets_the_text(dag_files):
    taxonomy, _ = dag_files
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["pipelines", "--taxonomy", taxonomy])
    assert code == EXIT_OK
    assert stdout.getvalue() == "A\nA/B\nA/B/C\nA/B/D\nA/C\n"


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
    omega = depth_profile(pipeline, bundle.profiles).rows[-1].omega
    assert lines[-1].split("\t")[3:7] == [fmt12(w) for w in omega.as_tuple()]


@pytest.mark.parametrize(
    "command", [["analyze"], ["sweep", "--target", "0.05", "--n", "3"]], ids=["analyze", "sweep"]
)
def test_deep_outputs_keep_the_12_digit_shortest_text(command, tmp_path, capsys):
    # at f=0.5 the deep prefixes' masses fall below 1e-4 and on to subnormals,
    # which the goldens never reach: their text takes the exponent form
    taxonomy, profiles = tmp_path / "taxonomy.json", tmp_path / "profiles.json"
    for path, text in zip((taxonomy, profiles), chain_json(DEEP_CHAIN_SIZE, f=0.5)):
        path.write_text(text)
    deepest = "/".join(f"c{i}" for i in range(DEEP_CHAIN_SIZE))
    code, out, err = run([*command, "--taxonomy", str(taxonomy), "--profiles", str(profiles),
                          "--pipeline", deepest], capsys)
    assert (code, err) == (EXIT_OK, "")
    reals = reals_of_pretty_json(out)
    assert any(0.0 < abs(x) < 1e-4 for x in reals)
    if command[0] == "analyze":
        assert any(0.0 < abs(x) < sys.float_info.min for x in reals)


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
#: stands for a 5,000-digit integer literal, which ``json.dumps`` cannot write
#: and ``json.loads`` rejects beyond CPython's integer string-conversion limit
DIGITS_5000 = "<5000 digits>"


@pytest.mark.parametrize("name, edit, location", [
    ("taxonomy", lambda d: d.update(edges=5), "taxonomy.edges"),
    ("taxonomy", lambda d: d["edges"][0].update(child=["B"]), "taxonomy.edges[0]"),
    ("profiles", lambda d: d.update(overrides=5), "profiles.overrides"),
    ("profiles", lambda d: d["overrides"][1].update(pipeline=5), "profiles.overrides[1]"),
    ("taxonomy", lambda d: d["edges"][0].update(f=10**400), "taxonomy.edges[0]"),
    ("profiles", lambda d: d["classifiers"]["B"].update(tp=10**400), "profiles.classifiers.B"),
    ("taxonomy", lambda d: d.update(edges=[5]), "taxonomy.edges[0]"),
    ("taxonomy", lambda d: d.update(categories="A"), "taxonomy.categories"),
    ("taxonomy", lambda d: d.update(root=5), "taxonomy.root"),
    ("profiles", lambda d: d.update(classifiers=[]), "profiles.classifiers"),
    ("profiles", lambda d: d["classifiers"]["B"].pop("tp"), "profiles.classifiers.B"),
    ("profiles", lambda d: d["overrides"][0].update(category="A"), "profiles.overrides[0]"),
    ("profiles", lambda d: d["overrides"][0].update(pipeline="A/Z"), "profiles.overrides[0]"),
    ("profiles", lambda d: d["overrides"][0].update(pipeline="A/B/D/E"), "profiles.overrides[0]"),
    ("taxonomy", lambda d: d["edges"][0].update(f=DIGITS_5000), "taxonomy"),
    ("profiles", lambda d: d["classifiers"]["B"].update(tp=DIGITS_5000), "profiles"),
], ids=["edges-int", "edge-child-list", "overrides-int", "override-pipeline-int",
        "edge-f-huge-int", "cell-huge-int", "edge-int", "categories-str", "root-int",
        "classifiers-list", "cell-missing", "override-root", "override-unknown-category",
        "override-not-at-its-category", "edge-f-5000-digits", "cell-5000-digits"])
def test_malformed_input_is_invalid_input(name, edit, location, tmp_path, capsys):
    files = {}
    for key in ("taxonomy", "profiles"):
        data = json.loads((GOLDEN / f"{key}.json").read_text())
        if key == name:
            edit(data)
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(data).replace(f'"{DIGITS_5000}"', "1" + "0" * 4999))
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


@pytest.mark.parametrize("argv", [["pipelines"], ["analyze"], ["analyze", "--format", "tsv"],
                                  ["verify", "--format", "tsv"]],
                         ids=["pipelines", "analyze-json", "analyze-tsv", "verify-tsv"])
def test_a_category_name_utf8_cannot_encode_is_invalid_input(argv, tmp_path, capsys):
    # "\ud800" is a valid JSON escape, but of a lone surrogate, which no
    # output could write; it is rejected before any output is written
    taxonomy, profiles = tmp_path / "taxonomy.json", tmp_path / "profiles.json"
    taxonomy.write_text('{"root": "A", "categories": ["A", "\\ud800"],'
                        ' "edges": [{"child": "\\ud800", "parent": "A", "f": 0.5}]}')
    profiles.write_text('{"classifiers": {"\\ud800": %s}}' % json.dumps(GAMMA))
    files = ["--taxonomy", str(taxonomy)] + ([] if argv == ["pipelines"]
                                             else ["--profiles", str(profiles)])
    code, out, err = run([argv[0], *files, *argv[1:]], capsys)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == ("pfmodel: error: category name '\\ud800' may not contain"
                   " control characters or line breaks\n")


class BrokenPipeBuffer(io.BytesIO):
    """A byte buffer whose reader has gone, as a closed pipe's is."""

    def write(self, data):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("case", [
    "taxonomy-missing", "taxonomy-directory", "out-under-missing-directory", "out-directory",
    "out-dev-full", "stdout-broken-pipe",
])
def test_exit_1_is_bad_input_and_a_failed_write_is_exit_3(case, l2_files, tmp_path,
                                                          monkeypatch, capsys):
    # an input or --out path that cannot be opened is bad input, named with
    # its path; a write the environment refuses is a run that could not finish
    taxonomy, profiles = l2_files
    out = None
    if case == "taxonomy-missing":
        taxonomy, reason = str(tmp_path / "missing.json"), os.strerror(errno.ENOENT)
    elif case == "taxonomy-directory":
        taxonomy, reason = str(tmp_path), os.strerror(errno.EISDIR)
    elif case == "out-under-missing-directory":
        out, reason = tmp_path / "missing" / "report.json", os.strerror(errno.ENOENT)
    elif case == "out-directory":
        out, reason = tmp_path / "report", os.strerror(errno.EISDIR)
        out.mkdir()
    elif case == "out-dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full here")
        out = Path("/dev/full")
    else:
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(BrokenPipeBuffer()))
    argv = ["analyze", "--taxonomy", taxonomy, "--profiles", profiles]
    code, stdout, err = run(argv + ([] if out is None else ["--out", str(out)]), capsys)
    assert stdout == "" and err.count("\n") == 1 and "Traceback" not in err
    if case == "out-dev-full":
        assert (code, err) == (EXIT_INTERNAL, "pfmodel: internal error: OSError: "
                               f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    elif case == "stdout-broken-pipe":
        assert (code, err) == (EXIT_INTERNAL, "pfmodel: internal error: BrokenPipeError: "
                               f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n")
    else:
        assert (code, err) == (EXIT_INVALID,
                               f"pfmodel: error: {taxonomy if out is None else out}: {reason}\n")
    if case == "out-under-missing-directory":
        assert not out.parent.exists()
    if case == "out-directory":
        assert list(out.iterdir()) == []


def test_unexpected_exception_is_an_internal_error(dag_files, monkeypatch, capsys):
    def broken(args):
        raise ValueError("a fault of pfmodel")

    monkeypatch.setattr(cli, "_cmd_pipelines", broken)
    taxonomy, _ = dag_files
    code, out, err = run(["pipelines", "--taxonomy", taxonomy], capsys)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "pfmodel: internal error: ValueError: a fault of pfmodel\n"


@pytest.mark.parametrize("argv", [
    ["pipelines"],
    ["analyze"],
    ["analyze", "--format", "tsv"],
    ["verify"],
    ["simulate", "--m", "100"],
    ["sweep", "--pipeline", "A/X", "--target", "0.1"],
], ids=["pipelines", "analyze-json", "analyze-tsv", "verify", "simulate", "sweep"])
def test_invalid_input_leaves_an_existing_out_file_untouched(argv, tmp_path, capsys):
    # the edge into C lacks f, which the library call finds after parsing;
    # pipelines needs no f, so its C hangs under a category that is not
    # there, and sweep names a pipeline that is not there
    pipelines = argv[0] == "pipelines"
    taxonomy, profiles = write_inputs(tmp_path, [("B", "A", 0.5),
                                                 ("C", "D" if pipelines else "B", None)])
    out = tmp_path / "out"
    out.write_bytes(b"kept\n")
    files = ["--taxonomy", taxonomy] + ([] if pipelines else ["--profiles", profiles])
    code, stdout, err = run([argv[0], *files, *argv[1:], "--out", str(out)], capsys)
    assert (code, stdout, err.count("\n")) == (EXIT_INVALID, "", 1)
    assert err.startswith("pfmodel: error: ")
    assert out.read_bytes() == b"kept\n"


def fail_on_second_row(monkeypatch):
    """Make the report writer raise as it renders its second depth row."""
    row_json, rendered = pfio._row_json, []

    def broken(row):
        rendered.append(row)
        if len(rendered) == 2:
            raise ValueError("a fault of pfmodel")
        return row_json(row)

    monkeypatch.setattr(pfio, "_row_json", broken)


def test_a_failed_write_removes_its_partial_out_file(l2_files, tmp_path, monkeypatch, capsys):
    taxonomy, profiles = l2_files
    out = tmp_path / "report.json"
    out.write_bytes(b"old report\n")
    fail_on_second_row(monkeypatch)
    code, stdout, err = run(["analyze", "--taxonomy", taxonomy, "--profiles", profiles,
                             "--out", str(out)], capsys)
    assert (code, stdout) == (EXIT_INTERNAL, "")
    assert err == "pfmodel: internal error: ValueError: a fault of pfmodel\n"
    assert not out.exists()


def test_a_failed_write_to_stdout_keeps_what_it_wrote(l2_files, monkeypatch, capsys):
    # bytes already on stdout cannot be taken back; the exit code says the
    # text is cut short
    taxonomy, profiles = l2_files
    fail_on_second_row(monkeypatch)
    code, stdout, err = run(["analyze", "--taxonomy", taxonomy, "--profiles", profiles], capsys)
    assert (code, err) == (EXIT_INTERNAL, "pfmodel: internal error: ValueError: a fault of pfmodel\n")
    assert stdout.startswith('{\n  "taxonomy": {')


def test_writing_to_stdout_leaves_it_open(l2_files, monkeypatch):
    # the UTF-8 layer over stdout's buffer is detached, not closed, after use
    taxonomy, profiles = l2_files
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["pipelines", "--taxonomy", taxonomy]) == EXIT_OK
    assert not stdout.closed
    stdout.write("after\n")
    stdout.flush()
    assert stdout.buffer.getvalue() == b"A\nA/B\nA/B/C\nafter\n"


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


def falsified_line(argv, out, err, tmp_path, capsys):
    """The one stderr line of a falsified run, after checking that stdout
    holds the same bytes ``--out`` writes, and that ``--out`` leaves the
    line on stderr."""
    path = tmp_path / "out"
    code, to_stdout, to_stderr = run([*argv, "--out", str(path)], capsys)
    assert code == EXIT_FALSIFIED and to_stdout == ""
    assert path.read_bytes() == out.encode("utf-8")
    assert to_stderr == err and err.count("\n") == 1
    assert err.startswith("pfmodel: falsified: ")
    return err.rstrip("\n")


def test_verify_gate_trips_at_zero_tolerance(dag_files, tmp_path, capsys):
    taxonomy, profiles = dag_files
    argv = ["verify", "--taxonomy", taxonomy, "--profiles", profiles, "--tol", "0"]
    code, out, err = run(argv, capsys)
    assert code == EXIT_FALSIFIED
    payload = json.loads(out)
    assert payload["passed"] is False
    line = falsified_line(argv, out, err, tmp_path, capsys)
    failed = [c for c in payload["checks"] if not c["passed"]]
    worst = max(failed, key=lambda c: c["discrepancy"])
    assert line.startswith(
        f"pfmodel: falsified: {len(failed)} of {len(payload['checks'])} checks above --tol 0;"
    )
    assert f" worst: {worst['source']} {worst['pipeline']} {worst['check']}," in line


def shifted(w, rel=1e-9):
    """``w`` with a relative ``rel`` of its fp mass moved into tn, so the
    joint mass still sums to one."""
    d = rel * w.fp
    return type(w)(tn=w.tn + d, fp=w.fp - d, fn=w.fn, tp=w.tp)


def shift_fp_into_tn(oracle, path):
    """``oracle``, except that on pipeline ``path`` its value is shifted."""
    def planted(pipeline, *args):
        w = oracle(pipeline, *args)
        return shifted(w) if pipeline.path == path else w
    return planted


#: the function through which verify takes each oracle's value of one pipeline
ORACLE_VALUE = {"omega_closed": "_closed_matrix", "enumerate_exact": "_exact_matrix"}


def shift_step_into_tn(step, value):
    """``step``, except that the step which yields ``value`` yields it shifted."""
    def planted(*args):
        w = step(*args)
        return shifted(w) if w == value else w
    return planted


@pytest.mark.parametrize("oracle, failing", [
    ("omega_closed", {"closed_vs_recursive", "exact_vs_closed"}),
    ("omega_recursive", {"closed_vs_recursive", "exact_vs_recursive"}),
    ("enumerate_exact", {"exact_vs_recursive", "exact_vs_closed"}),
])
def test_verify_catches_a_planted_fault(oracle, failing, monkeypatch, capsys):
    # an oracle that came to agree with a wrong model would pass every
    # agreement test; a 1e-9 relative fault in one pipeline must not pass
    if oracle == "omega_recursive":
        # verify steps A/B/D's recurrence value on from A/B's, so the fault
        # goes into the one step that yields it, and A/B/D/E steps on from it
        bundle = parse_inputs((GOLDEN / "taxonomy.json").read_text(),
                              (GOLDEN / "profiles.json").read_text())
        value = oracles.omega_recursive(find_pipeline(bundle.taxonomy, "A/B/D"), bundle.profiles)
        monkeypatch.setattr(oracles, "omega_step", shift_step_into_tn(oracles.omega_step, value))
        reached = ("A/B/D", "A/B/D/E")
    else:
        value = ORACLE_VALUE[oracle]
        monkeypatch.setattr(oracles, value, shift_fp_into_tn(getattr(oracles, value), "A/B/D"))
        reached = ("A/B/D",)
    code, out, err = run(["verify", "--taxonomy", str(GOLDEN / "taxonomy.json"),
                          "--profiles", str(GOLDEN / "profiles.json"), "--samples", "0"],
                         capsys)
    assert code == EXIT_FALSIFIED
    assert err.count("\n") == 1 and " A/B/D " in err
    failed = {(c["pipeline"], c["check"]) for c in json.loads(out)["checks"]
              if not c["passed"]}
    assert failed == {(path, check) for path in reached for check in failing}


@pytest.mark.parametrize("k", [1, 30])
@pytest.mark.parametrize("lacks", ["f", "profile"])
def test_verify_names_what_a_chain_lacks_at_depth_k(lacks, k, tmp_path, capsys):
    # verify steps each pipeline on from its parent, so the first pipeline
    # that lacks something is still the one whose error is reported
    taxonomy, profiles = (json.loads(text) for text in chain_json(41))
    if lacks == "f":
        del taxonomy["edges"][k - 1]["f"]  # the edge into c<k>
        path = "/".join(f"c{i}" for i in range(k + 1))
        message = f"pipeline {path}: edge into 'c{k}' has no f"
    else:
        del profiles["classifiers"][f"c{k}"]
        message = f"categories without a classifier profile: ['c{k}']"
    (tmp_path / "t.json").write_text(json.dumps(taxonomy))
    (tmp_path / "p.json").write_text(json.dumps(profiles))
    code, out, err = run(["verify", "--taxonomy", str(tmp_path / "t.json"),
                          "--profiles", str(tmp_path / "p.json")], capsys)
    assert (code, out, err) == (EXIT_INVALID, "", f"pfmodel: error: {message}\n")


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
    (["simulate", "--m", "10", "--replications", str(2**65)],
     f"--replications must be at most {2**64}, got {2**65}"),
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
        "simulate-seed-neg", "simulate-seed-last-replication", "replications-2**65",
        "sweep-seed-neg", "m-0", "n-0", "target-1.5", "target-nan", "m-1e20", "max-len-2**63"])
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
    omega_closed = simulate.omega_closed
    calls = []

    def counting_omega_closed(pipeline, profile_set):
        calls.append(pipeline.path)
        return omega_closed(pipeline, profile_set)

    monkeypatch.setattr(simulate, "omega_closed", counting_omega_closed)
    code, _, _ = run(
        ["simulate", "--taxonomy", taxonomy, "--profiles", profiles,
         "--pipeline", "A/B/C", "--m", "2000", "--replications", "3"],
        capsys,
    )
    assert code == EXIT_OK
    assert calls == ["A/B/C"]


@pytest.mark.parametrize("replications", ["1", "3"])
def test_simulate_taxonomy_builds_each_model_once(replications, monkeypatch, capsys):
    closed_form = simulate._closed_form
    calls = []

    def counting_closed_form(fs, gammas):
        calls.append(len(fs))
        return closed_form(fs, gammas)

    monkeypatch.setattr(simulate, "_closed_form", counting_closed_form)
    code, out, _ = run(
        ["simulate", "--taxonomy", str(GOLDEN / "taxonomy.json"),
         "--profiles", str(GOLDEN / "profiles.json"), "--m", "2000",
         "--replications", replications, "--format", "tsv"],
        capsys,
    )
    assert code == EXIT_OK
    assert len(out.splitlines()) == 1 + 8 * int(replications)
    assert len(calls) == 8  # one per pipeline of the golden DAG


@pytest.mark.parametrize("n", ["1", "20"])
def test_sweep_evaluates_the_closed_form_once(n, monkeypatch, capsys):
    closed_form = simulate._closed_form
    calls = []

    def counting_closed_form(fs, gammas):
        calls.append(len(fs))
        return closed_form(fs, gammas)

    monkeypatch.setattr(simulate, "_closed_form", counting_closed_form)
    code, out, _ = run(
        ["sweep", "--taxonomy", str(GOLDEN / "taxonomy.json"),
         "--profiles", str(GOLDEN / "profiles.json"), "--pipeline", "A/B/D/E",
         "--target", "0.05", "--n", n, "--format", "tsv"],
        capsys,
    )
    assert code == EXIT_OK
    rows = [line.split("\t")[0] for line in out.splitlines()[1:]]
    assert rows[:int(n)] == [str(i) for i in range(int(n))]
    assert calls == [4]  # one call, over a column per step of the 3-deep pipeline


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


def test_simulate_gate_trips_at_tiny_threshold(l2_files, tmp_path, capsys):
    taxonomy, profiles = l2_files
    argv = ["simulate", "--taxonomy", taxonomy, "--profiles", profiles,
            "--m", "20000", "--z-threshold", "0.0001"]
    code, out, err = run(argv, capsys)
    assert code == EXIT_FALSIFIED
    line = falsified_line(argv, out, err, tmp_path, capsys)
    runs = json.loads(out)["runs"]
    failed = [r for r in runs if not r["passed"]]
    worst = max(failed, key=lambda r: r["max_z"])
    head = (f"pfmodel: falsified: {len(failed)} of {len(runs)} runs above --z-threshold"
            f" 0.0001; worst: replication {worst['replication']} {worst['pipeline']} cell ")
    assert line.startswith(head)
    cell, observed = line[len(head):].split(", ")[:2]
    assert observed == f"observed {worst['counts'][cell]}"


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


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("pipeline", [[], ["--pipeline", "A/B/C"]], ids=["taxonomy", "pipeline"])
def test_simulate_closed_form_rounded_below_zero(pipeline, fmt, tmp_path, capsys):
    # B and C accept everything, so (1 - F) - w01 rounds to -1.1e-16; the
    # closed form writes that cell, and phi's tn, as 0
    accept_all = {"tn": 0, "fp": 1, "fn": 0, "tp": 1}
    taxonomy, profiles = write_inputs(
        tmp_path, [("B", "A", 0.1), ("C", "B", 0.5)], {"B": accept_all, "C": accept_all}
    )
    commands = [["simulate", "--m", "1000"], ["analyze"]]
    if pipeline:
        commands.append(["sweep", "--target", "0.1", "--n", "5"])
    for command in commands:
        code, out, err = run([*command, "--taxonomy", taxonomy, "--profiles", profiles,
                              "--format", fmt, *pipeline], capsys)
        assert (code, err) == (EXIT_OK, "")
        if fmt == "json":
            assert not [x for x in _numbers(json.loads(out)) if x < 0]


def _numbers(payload):
    """Every number in a decoded JSON payload."""
    if isinstance(payload, dict):
        payload = list(payload.values())
    if isinstance(payload, list):
        for item in payload:
            yield from _numbers(item)
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        yield payload


@pytest.mark.parametrize("f_d_b, code, message", [
    (0.0, EXIT_OK, ""),
    (0.5, EXIT_INVALID, "pfmodel: error: edge 'D'<'B': f=0.5 conditions on an event of "
                        "probability zero\n"),
], ids=["f-zero", "f-positive"])
def test_simulate_coin_behind_a_parent_of_probability_zero(f_d_b, code, message,
                                                           tmp_path, capsys):
    # D's coin is calibrated on the edge from B and divides out C's coin, which is 0
    taxonomy, profiles = write_inputs(
        tmp_path, [("B", "A", 0.5), ("C", "A", 0.0), ("D", "B", f_d_b), ("D", "C", 0.5)]
    )
    result = run(["simulate", "--taxonomy", taxonomy, "--profiles", profiles, "--m", "1000"],
                 capsys)
    assert (result[0], result[2]) == (code, message)


def inconsistent_dag_inputs(tmp_path):
    """Files of the DAG of :func:`conftest.inconsistent_dag_json`."""
    taxonomy, profiles = tmp_path / "taxonomy.json", tmp_path / "profiles.json"
    for path, text in zip((taxonomy, profiles), inconsistent_dag_json()):
        path.write_text(text)
    return str(taxonomy), str(profiles)


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_simulate_infinite_z_is_falsified_in_either_format(fmt, tmp_path, capsys):
    # A/C/D predicts no positives, so its fn and tp cells have zero variance
    # and the counts they get score z = inf
    taxonomy, profiles = inconsistent_dag_inputs(tmp_path)
    code, out, err = run(["simulate", "--taxonomy", taxonomy, "--profiles", profiles,
                          "--m", "1000", "--format", fmt], capsys)
    assert code == EXIT_FALSIFIED
    assert err.count("\n") == 1 and " A/C/D cell " in err and err.endswith(", z inf\n")
    if fmt == "json":
        max_z = {r["pipeline"]: r["max_z"] for r in json.loads(out)["runs"]}
        assert max_z["A/C/D"] is None
        assert all(z is not None for path, z in max_z.items() if path != "A/C/D")
    else:
        rows = {r.split("\t")[2]: r for r in out.splitlines()[1:]}
        assert rows["A/C/D"].endswith("\tinf\tfalse")


@pytest.mark.parametrize("inputs", ["golden", "inconsistent-dag"])
@pytest.mark.parametrize("command", [
    ["analyze"], ["verify"], ["simulate", "--m", "1000"],
    ["sweep", "--pipeline", "A/B/D", "--target", "0.05", "--n", "20"],
], ids=["analyze", "verify", "simulate", "sweep"])
def test_json_and_tsv_exit_alike(command, inputs, tmp_path, capsys):
    if inputs == "golden":
        golden = Path(__file__).parent / "golden"
        taxonomy, profiles = str(golden / "taxonomy.json"), str(golden / "profiles.json")
    else:
        taxonomy, profiles = inconsistent_dag_inputs(tmp_path)
    argv = [*command, "--taxonomy", taxonomy, "--profiles", profiles, "--format"]
    json_code, _, json_err = run([*argv, "json"], capsys)
    tsv_code, _, tsv_err = run([*argv, "tsv"], capsys)
    assert (json_code, json_err) == (tsv_code, tsv_err)
    assert json_code in (EXIT_OK, EXIT_FALSIFIED)


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
    (["analyze", "--pipeline", ""], ""),
    (["simulate", "--m", "100", "--pipeline", ""], ""),
    (["sweep", "--target", "0.1", "--pipeline", ""], ""),
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


# --- valid inputs never crash -------------------------------------------------------

#: probabilities where floating point is most fragile
EXTREMES = (0.0, 1.0, 5e-324, 1e-300, 1.0 - 1e-16)
_unit = st.one_of(st.sampled_from(EXTREMES), st.floats(0.0, 1.0))


def confusion_row(draw) -> dict:
    """A tn/fp/fn/tp object with a drawn fp-rate and tp-rate."""
    fp, tp = draw(_unit), draw(_unit)
    return {"tn": 1.0 - fp, "fp": fp, "fn": 1.0 - tp, "tp": tp}


@st.composite
def valid_tree_inputs(draw):
    """Taxonomy and profiles JSON of a random tree c0 > c1 > c2 > ... (each
    later node under a random earlier one), and a pipeline of depth >= 2
    whose classifier is overridden at a non-final step, keyed by the path
    that ends there."""
    n = draw(st.integers(3, 14))
    parent = [None, 0, 1] + [draw(st.integers(0, i - 1)) for i in range(3, n)]
    names = [f"c{i}" for i in range(n)]

    def path_to(i):
        return path_to(parent[i]) + [names[i]] if i else [names[0]]

    nodes = path_to(draw(st.sampled_from([i for i in range(2, n) if len(path_to(i)) > 2])))
    step = draw(st.integers(1, len(nodes) - 2))
    taxonomy = {"root": names[0], "categories": names,
                "edges": [{"child": names[i], "parent": names[parent[i]], "f": draw(_unit)}
                          for i in range(1, n)]}
    profiles = {"classifiers": {c: confusion_row(draw) for c in names[1:]},
                "overrides": [{"pipeline": "/".join(nodes[:step + 1]), "category": nodes[step],
                               **confusion_row(draw)}]}
    return json.dumps(taxonomy), json.dumps(profiles), "/".join(nodes)


@st.composite
def valid_dag_inputs(draw):
    """Taxonomy and profiles JSON of a random DAG whose edge probabilities
    are coin-consistent, built as ``bench/gen.py``'s ``dag`` builds one: a
    random tree c0 > c1 > c2 > ..., a second, earlier parent on some nodes,
    one coin per node, and each edge's f the child's coin times the coins
    of its ancestors outside the parent's closure; then an override of the
    last classifier on some pipelines.  Also names a pipeline of depth >= 2."""
    n = draw(st.integers(4, 12))
    parents = [(), (0,), (1,)] + [(draw(st.integers(0, i - 1)),) for i in range(3, n)]
    for i in range(3, n):
        if draw(st.booleans()):
            second = draw(st.integers(0, i - 1))
            if second != parents[i][0]:
                parents[i] += (second,)
    closures: list[frozenset[int]] = []
    for ps in parents:
        closures.append(frozenset(ps).union(*(closures[p] for p in ps)))
    coins = [1.0] + [draw(_unit) for _ in range(1, n)]

    def consistent_f(child, parent):
        f = coins[child]
        for a in sorted(closures[child] - closures[parent] - {parent}):
            f *= coins[a]
        return f

    names = [f"c{i}" for i in range(n)]
    taxonomy = {"root": names[0], "categories": names,
                "edges": [{"child": names[i], "parent": names[p], "f": consistent_f(i, p)}
                          for i in range(1, n) for p in parents[i]]}
    paths = [p.nodes for p in enumerate_pipelines(parse_taxonomy(json.dumps(taxonomy)))]
    overridden = draw(st.lists(st.sampled_from(paths[1:]), max_size=3, unique=True))
    profiles = {"classifiers": {c: confusion_row(draw) for c in names[1:]},
                "overrides": [{"pipeline": "/".join(path), "category": path[-1],
                               **confusion_row(draw)} for path in overridden]}
    pipeline = draw(st.sampled_from([path for path in paths if len(path) > 2]))
    return json.dumps(taxonomy), json.dumps(profiles), "/".join(pipeline)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(valid_tree_inputs(), valid_dag_inputs()))
def test_valid_inputs_never_crash(inputs):
    taxonomy_json, profiles_json, pipeline = inputs
    with tempfile.TemporaryDirectory() as tmp:
        taxonomy, profiles = Path(tmp, "taxonomy.json"), Path(tmp, "profiles.json")
        taxonomy.write_text(taxonomy_json)
        profiles.write_text(profiles_json)
        files = ["--taxonomy", str(taxonomy), "--profiles", str(profiles)]
        for argv, codes in [
            (["pipelines", "--taxonomy", str(taxonomy)], {EXIT_OK}),
            (["analyze", *files], {EXIT_OK}),
            (["analyze", *files, "--format", "tsv"], {EXIT_OK}),
            (["verify", *files, "--samples", "2"], {EXIT_OK}),
            (["simulate", *files, "--m", "200"], {EXIT_OK, EXIT_FALSIFIED}),
            (["simulate", *files, "--m", "200", "--pipeline", pipeline],
             {EXIT_OK, EXIT_FALSIFIED}),
            (["sweep", *files, "--pipeline", pipeline, "--target", "0.05", "--n", "5"],
             {EXIT_OK}),
        ]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in codes, (argv[0], code, err.getvalue())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(valid_dag_inputs())
def test_simulated_models_are_omega_closed_on_valid_dags(inputs):
    taxonomy_json, profiles_json, _ = inputs
    assert_simulated_models_are_omega_closed(parse_inputs(taxonomy_json, profiles_json))
