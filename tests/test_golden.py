"""Byte-for-byte output on a small DAG, pinned against committed files,
through the CLI and through the library calls and writers behind it.

The DAG in ``golden/`` has a category with two parents (D under B and C)
and a classifier override on a step that is not the pipeline's last one
(D inside A/B/D/E), next to one on a last step (D inside A/C/D): the cases
where whole-taxonomy evaluation and per-pipeline profile resolution could
drift apart.  The expected files are reference outputs; change them only
with a deliberate change of the output format or of the numbers.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import pfmodel as pf
from pfmodel.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

#: expected output file -> subcommand and its options
CASES = {
    "pipelines.txt": ["pipelines"],
    "pipelines-leaf-only.txt": ["pipelines", "--leaf-only"],
    "analyze.json": ["analyze"],
    "analyze.tsv": ["analyze", "--format", "tsv"],
    "analyze-leaf-only.tsv": ["analyze", "--leaf-only", "--format", "tsv"],
    "analyze-pipeline.json": ["analyze", "--pipeline", "A/C/D/E"],
    "verify.json": ["verify", "--samples", "5"],
    "verify.tsv": ["verify", "--samples", "5", "--format", "tsv"],
    "simulate.json": ["simulate", "--m", "20000"],
    "simulate.tsv": ["simulate", "--m", "20000", "--format", "tsv"],
    "simulate-pipeline.json": ["simulate", "--pipeline", "A/B/D/E", "--m", "20000",
                               "--replications", "2"],
    "simulate-pipeline.tsv": ["simulate", "--pipeline", "A/B/D/E", "--m", "20000",
                              "--replications", "2", "--format", "tsv"],
    "sweep.json": ["sweep", "--pipeline", "A/B/D/E", "--target", "0.05", "--n", "20"],
    "sweep.tsv": ["sweep", "--pipeline", "A/B/D/E", "--target", "0.05", "--n", "20",
                  "--format", "tsv"],
}


def golden_argv(name: str) -> list[str]:
    command, *options = CASES[name]
    inputs = ["--taxonomy", str(GOLDEN / "taxonomy.json")]
    if command != "pipelines":  # the one subcommand that reads no profiles
        inputs += ["--profiles", str(GOLDEN / "profiles.json")]
    return [command, *inputs, *options]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    code = main(golden_argv(name))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


#: golden file stem -> the library call behind that case, and its writer
LIBRARY = {
    "verify": (lambda b: pf.verify_oracles(b.taxonomy, b.profiles, 1e-12, 6, 5, 42),
               pf.write_verification),
    "simulate": (lambda b: pf.run_simulation(b.taxonomy, b.profiles, 20000, 42, 1, 4.0),
                 pf.write_simulation),
    "simulate-pipeline": (lambda b: pf.run_simulation(b.taxonomy, b.profiles, 20000, 42, 2, 4.0,
                                                      pf.find_pipeline(b.taxonomy, "A/B/D/E")),
                          pf.write_simulation),
    "sweep": (lambda b: pf.imbalance_sweep(pf.find_pipeline(b.taxonomy, "A/B/D/E"),
                                           b.profiles, 0.05, 20, 42),
              pf.write_sweep),
}


@pytest.mark.parametrize("name", [f"{stem}.{fmt}" for stem in LIBRARY for fmt in ("json", "tsv")])
def test_library_writes_golden_output(name):
    stem, fmt = name.rsplit(".", 1)
    call, write = LIBRARY[stem]
    bundle = pf.parse_inputs((GOLDEN / "taxonomy.json").read_text(),
                             (GOLDEN / "profiles.json").read_text())
    assert write(call(bundle), fmt).encode("utf-8") == (GOLDEN / name).read_bytes()
