"""The benchmark's workloads: generated inputs and the pfmodel subcommands
run on them.

Every workload runs every subcommand behind an end-to-end metric, so each
reports all of them.  The subcommands a workload is about (its headline)
run on its main input.  Where the others would take a large share of a
run on that input, they run on a smaller input of the same shape instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import gen

#: final positive rate shared by the distributions ``sweep`` samples
SWEEP_TARGET = 0.1
#: stands for the deepest pipeline of an operation's input
PATH = object()


@dataclass(frozen=True)
class Op:
    """One distinct pfmodel invocation."""

    key: str
    argv: tuple[str, ...]  # pfmodel arguments, input and output files included
    check: str  # name of the function in checks.py that judges the output
    tag: str  # the input it reads: "main", "small" or "probe"
    headline: bool = False  # one of the subcommands the workload is about
    params: dict = field(default_factory=dict)  # keyword arguments of its check

    @property
    def probe(self) -> bool:
        """Untimed, on the probe input, kept to show a known defect."""
        return self.tag == "probe"

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Callable[[int], gen.Inputs]
    headline: tuple[str, ...]  # the operations the workload is about
    sim_m: int  # documents of the whole-taxonomy `simulate`
    one_m: int  # documents of `simulate --pipeline`
    sweep_n: int  # distributions of `sweep`
    small: Callable[[int], gen.Inputs] | None = None  # input of the other operations
    probe: Callable[[int], gen.Inputs] | None = None  # input of the `pipelines` probe

    def inputs(self, seed: int) -> dict[str, gen.Inputs]:
        out = {"main": self.shape(seed)}
        for tag, shape in (("small", self.small), ("probe", self.probe)):
            if shape is not None:
                out[tag] = shape(seed)
        return out

    def ops(self, inputs: dict[str, gen.Inputs], work: Path) -> list[Op]:
        """The operations, headline first, reading the inputs
        :func:`write_inputs` wrote to ``work``."""

        def op(key, argv, check, **params):
            headline = key in self.headline
            tag = "main" if headline or self.small is None else "small"
            path = gen.deepest_path(inputs[tag].parents)
            taxonomy, profiles = input_files(work, tag)
            argv = [path if a is PATH else a for a in argv]
            params = {k: path if v is PATH else v for k, v in params.items()}
            return Op(key, (argv[0], "--taxonomy", str(taxonomy), "--profiles", str(profiles),
                            *argv[1:], "--out", str(work / f"out-{key}")),
                      check, tag, headline, params)

        ops = [
            op("analyze_json", ("analyze",), "analyze_json"),
            op("analyze_tsv", ("analyze", "--format", "tsv"), "analyze_tsv"),
            op("verify", ("verify",), "verify"),
            op("simulate", ("simulate", "--m", str(self.sim_m)), "simulate", m=self.sim_m),
            op("simulate_one", ("simulate", "--pipeline", PATH, "--m", str(self.one_m)),
               "simulate_one", m=self.one_m, path=PATH),
            op("sweep", ("sweep", "--pipeline", PATH, "--target", str(SWEEP_TARGET),
                         "--n", str(self.sweep_n)),
               "sweep", n=self.sweep_n, path=PATH, target=SWEEP_TARGET),
        ]
        ops.sort(key=lambda o: not o.headline)
        if self.probe is not None:
            probe = input_files(work, "probe")[0]
            ops.append(Op("pipelines", ("pipelines", "--taxonomy", str(probe),
                                        "--out", str(work / "out-pipelines")),
                          "pipelines", "probe"))
        return ops


def input_files(work: Path, tag: str = "main") -> tuple[Path, Path]:
    """Where :func:`write_inputs` puts a taxonomy and its profiles."""
    return work / f"{tag}.taxonomy.json", work / f"{tag}.profiles.json"


def write_inputs(inputs: dict[str, gen.Inputs], work: Path) -> None:
    for tag, inp in inputs.items():
        taxonomy, profiles = input_files(work, tag)
        taxonomy.write_text(inp.taxonomy, encoding="utf-8")
        profiles.write_text(inp.profiles, encoding="utf-8")


def prepare(workload: Workload, seed: int, work: Path) -> tuple[dict[str, gen.Inputs], list[Op]]:
    """Generate a workload's inputs into ``work``; return them and its operations."""
    inputs = workload.inputs(seed)
    write_inputs(inputs, work)
    return inputs, workload.ops(inputs, work)


WORKLOADS = {w.name: w for w in (
    # serialization-bound: the JSON report is several times the TSV one,
    # and prefix reuse is low (sum of depths / pipelines = 3.7).  The
    # non-headline operations use a 1,000-node tree of the same shape:
    # whole-taxonomy simulate costs per node, not per document.  Sizes are
    # chosen so that every operation runs about eight times in a run.
    Workload("wide-tree", partial(gen.tree, 2_000, 8), ("analyze_json", "analyze_tsv", "verify"),
             sim_m=100, one_m=200_000, sweep_n=2_000, small=partial(gen.tree, 1_000, 8)),
    # about the same sum of depths as wide-tree (7,381 against 7,332) with
    # 16x the prefix reuse (60.5); the probe is a chain deeper than the
    # recursive pipeline enumeration reaches
    Workload("deep-chain", partial(gen.tree, 122, 1),
             ("analyze_json", "analyze_tsv", "verify", "simulate", "sweep"),
             sim_m=1_000, one_m=20_000, sweep_n=1_000, probe=partial(gen.tree, 1_500, 1)),
)}
