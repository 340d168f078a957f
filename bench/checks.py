"""Correctness checks on pfmodel outputs.

Each check takes the reference for the generated inputs and the output
text of one operation, and raises :class:`CheckError` naming the first
thing that is wrong.  The pipeline set is compared against the generator's
own iterative enumeration, not against pfmodel's; sampled joint matrices
are compared against :func:`pfmodel.omega_recursive`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import gen
from workloads import Op

#: every omega must sum to 1 and match the recurrence within this
OMEGA_TOL = 1e-9
#: pipelines per output whose omega is recomputed with the recurrence
SAMPLE = 48


class CheckError(Exception):
    """An output is missing, malformed or numerically wrong."""


@dataclass
class Reference:
    """What every output of one workload must agree with."""

    paths: list[str]  # every pipeline, in pfmodel's order
    bundle: object  # pfmodel.io.InputBundle parsed in-process
    seed: int  # picks the sampled pipelines

    @classmethod
    def build(cls, inputs: gen.Inputs, seed: int) -> "Reference":
        from pfmodel.io import parse_inputs

        paths = ["/".join(f"c{i}" for i in p) for p in gen.pipeline_paths(inputs.parents)]
        return cls(paths, parse_inputs(inputs.taxonomy, inputs.profiles), seed)

    def sample(self, paths, what: str) -> list[str]:
        paths = sorted(paths)
        rng = random.Random(f"{what}:{self.seed}")
        return paths if len(paths) <= SAMPLE else rng.sample(paths, SAMPLE)

    def pipeline(self, path: str):
        from pfmodel import Pipeline

        nodes = tuple(path.split("/"))
        t = self.bundle.taxonomy
        fs = (1.0,) + tuple(t.edge(c, p).f for p, c in zip(nodes, nodes[1:]))
        return Pipeline(nodes, fs)

    def recursive(self, path: str, prefix_resolved: bool = False) -> tuple[float, ...]:
        """omega_recursive of a pipeline.  With ``prefix_resolved`` step k
        uses the override of the prefix ending at k, as whole-taxonomy
        simulation resolves classifiers."""
        from pfmodel import ClassifierProfileSet, omega_recursive

        p = self.pipeline(path)
        profiles = self.bundle.profiles
        if prefix_resolved:
            profiles = ClassifierProfileSet(
                base={p.nodes[k]: profiles.resolve(p.prefix(k), k) for k in range(1, p.depth + 1)},
                root=p.nodes[0])
        return omega_recursive(p, profiles).as_tuple()


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _cells(d: dict) -> tuple[float, ...]:
    return (d["w00"], d["w01"], d["w10"], d["w11"])


def _check_mass(cells, where: str) -> None:
    _require(all(math.isfinite(x) and -OMEGA_TOL <= x for x in cells),
             f"{where}: omega has a negative or non-finite cell {cells}")
    _require(abs(sum(cells) - 1.0) <= OMEGA_TOL, f"{where}: omega sums to {sum(cells)!r}")


def _check_close(got, want, where: str) -> None:
    diff = max(abs(a - b) for a, b in zip(got, want))
    _require(diff <= OMEGA_TOL, f"{where}: omega off the recurrence by {diff:.3g}")


def _check_paths(ref: Reference, got: list[str], what: str) -> None:
    if got != ref.paths:
        missing = sorted(set(ref.paths) - set(got))[:3]
        extra = sorted(set(got) - set(ref.paths))[:3]
        raise CheckError(f"{what}: pipeline set differs from the taxonomy's "
                         f"({len(got)} vs {len(ref.paths)}; missing {missing}, extra {extra})")


def _load(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CheckError(f"output is not JSON: {e}") from None


def analyze_json(ref: Reference, text: str, exit_code: int) -> None:
    data = _load(text)
    blocks = data["pipelines"]
    _check_paths(ref, [b["pipeline"] for b in blocks], "analyze")
    _require(data["taxonomy"]["pipeline_count"] == len(blocks), "analyze: pipeline_count")
    by_path = {}
    for b in blocks:
        where = f"analyze {b['pipeline']}"
        _check_mass(_cells(b["omega"]), where)
        rows = b["depth_profile"]
        _require([r["k"] for r in rows] == list(range(b["depth"] + 1)),
                 f"{where}: depth profile rows")
        for r in rows:
            _check_mass(_cells(r["omega"]), f"{where} k={r['k']}")
        _require(_cells(rows[-1]["omega"]) == _cells(b["omega"]), f"{where}: last row")
        by_path[b["pipeline"]] = _cells(b["omega"])
    for path in ref.sample(by_path, "analyze"):
        _check_close(by_path[path], ref.recursive(path), f"analyze {path}")


def analyze_tsv(ref: Reference, text: str, exit_code: int) -> None:
    lines = text.split("\n")
    _require(lines[-1] == "", "analyze tsv: no trailing newline")
    header = lines[0].split("\t")
    _require(header[:7] == ["pipeline", "k", "f_k", "w00", "w01", "w10", "w11"],
             f"analyze tsv: header {header[:7]}")
    groups: list[tuple[str, list[list[str]]]] = []
    for line in lines[1:-1]:
        row = line.split("\t")
        if not groups or groups[-1][0] != row[0]:
            groups.append((row[0], []))
        groups[-1][1].append(row)
    _check_paths(ref, [path for path, _ in groups], "analyze tsv")
    last = {}
    for path, rows in groups:
        _require([int(r[1]) for r in rows] == list(range(path.count("/") + 1)),
                 f"analyze tsv {path}: depth rows")
        for r in rows:
            cells = tuple(float(x) for x in r[3:7])
            _check_mass(cells, f"analyze tsv {path} k={r[1]}")
        last[path] = cells
    for path in ref.sample(last, "analyze-tsv"):
        _check_close(last[path], ref.recursive(path), f"analyze tsv {path}")


def verify(ref: Reference, text: str, exit_code: int) -> None:
    data = _load(text)
    checks = data["checks"]
    mine = [c for c in checks if c["source"] == "taxonomy"]
    seen = []
    for c in mine:
        if not seen or seen[-1] != c["pipeline"]:
            seen.append(c["pipeline"])
    _check_paths(ref, seen, "verify")
    kinds = {}
    for c in mine:
        kinds.setdefault(c["pipeline"], set()).add(c["check"])
    for path, got in kinds.items():
        want = {"closed_vs_recursive", "mass_sums_to_one"}
        if path.count("/") <= data["max_len"]:
            want |= {"exact_vs_recursive", "exact_vs_closed"}
        _require(got == want, f"verify {path}: checks {sorted(got)}")
    randoms = {c["source"] for c in checks if c["source"].startswith("random[")}
    _require(len(randoms) == data["samples"], "verify: random sample count")
    worst = max(c["discrepancy"] for c in checks)
    _require(worst <= data["tolerance"], f"verify: discrepancy {worst} over tolerance")
    _require(data["passed"] == (exit_code == 0), "verify: verdict disagrees with exit code")


def _check_runs(ref: Reference, runs: list[dict], m: int, what: str,
                prefix_resolved: bool) -> None:
    for r in runs:
        where = f"{what} {r['pipeline']}"
        _require(r["m"] == m, f"{where}: m={r['m']}")
        _require(sum(r["counts"].values()) == m, f"{where}: counts do not sum to m")
        _require(all(v >= 0 for v in r["counts"].values()), f"{where}: negative count")
        _check_mass(_cells(r["model"]), where)
    by_path = {r["pipeline"]: _cells(r["model"]) for r in runs}
    for path in ref.sample(by_path, what):
        _check_close(by_path[path], ref.recursive(path, prefix_resolved), f"{what} {path}")


def _check_verdict(data: dict, exit_code: int, what: str) -> None:
    passed = all(r["passed"] for r in data["runs"])
    _require(data["passed"] == passed, f"{what}: overall verdict disagrees with its runs")
    _require(passed == (exit_code == 0), f"{what}: verdict disagrees with exit code")


def simulate(ref: Reference, text: str, exit_code: int, m: int) -> None:
    data = _load(text)
    runs = data["runs"]
    _check_paths(ref, [r["pipeline"] for r in runs], "simulate")
    _check_runs(ref, runs, m, "simulate", prefix_resolved=True)
    _check_verdict(data, exit_code, "simulate")


def simulate_one(ref: Reference, text: str, exit_code: int, m: int, path: str) -> None:
    data = _load(text)
    runs = data["runs"]
    _require([r["pipeline"] for r in runs] == [path], "simulate --pipeline: wrong pipeline")
    _check_runs(ref, runs, m, "simulate --pipeline", prefix_resolved=False)
    _check_verdict(data, exit_code, "simulate --pipeline")


def sweep(ref: Reference, text: str, exit_code: int, n: int, path: str, target: float) -> None:
    from pfmodel import Pipeline, omega_recursive

    data = _load(text)
    rows = data["rows"]
    _require(data["pipeline"] == path and len(rows) == n, "sweep: pipeline or row count")
    nodes = tuple(path.split("/"))
    for i, row in enumerate(rows):
        _check_mass(_cells(row["omega"]), f"sweep row {i}")
        _require(len(row["fs"]) == len(nodes), f"sweep row {i}: chain length")
        product = math.prod(row["fs"])
        _require(abs(product - target) <= OMEGA_TOL * target,
                 f"sweep row {i}: f chain multiplies to {product!r}, not {target}")
    rng = random.Random(f"sweep:{ref.seed}")
    for i in sorted(rng.sample(range(n), min(n, SAMPLE))):
        variant = Pipeline(nodes, (1.0,) + tuple(rows[i]["fs"][1:]))
        want = omega_recursive(variant, ref.bundle.profiles).as_tuple()
        _check_close(_cells(rows[i]["omega"]), want, f"sweep row {i}")


def pipelines(ref: Reference, text: str, exit_code: int) -> None:
    _require(text.endswith("\n"), "pipelines: no trailing newline")
    _check_paths(ref, text[:-1].split("\n"), "pipelines")


CHECKS = {f.__name__: f for f in (analyze_json, analyze_tsv, verify, simulate, simulate_one,
                                  sweep, pipelines)}


class Checker:
    """Judges the outputs of a workload's operations on its generated inputs."""

    def __init__(self, inputs: dict[str, gen.Inputs], ops: list[Op], seed: int):
        self.ops = {op.key: op for op in ops}
        self.refs = {tag: Reference.build(inp, seed) for tag, inp in inputs.items()}

    def check(self, key: str, exit_code: int, out: Path | None = None) -> str | None:
        """Why the output of operation ``key`` (read from ``out``, by
        default where the operation writes it) is wrong, or None."""
        op = self.ops[key]
        try:
            text = Path(out or op.out).read_text(encoding="utf-8")
        except FileNotFoundError:
            return "no output"
        try:
            CHECKS[op.check](self.refs[op.tag], text, exit_code, **op.params)
        except Exception as e:  # any malformed output is a failed check, reported by name
            return f"{type(e).__name__}: {e}"
        return None
