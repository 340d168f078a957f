"""pfmodel benchmark: end-to-end CLI timings plus a traced per-layer run.

Run from the root of a pfmodel checkout:

    python3 bench/run.py --workload wide-tree --seed 1 --seconds 60 --trace 0

With ``--trace 0`` each pfmodel subcommand of the workload runs as a fresh
child process, one at a time, in rounds: each round times one fresh
interpreter's ``import pfmodel.cli`` (``setup_s``) and then every
subcommand once, the workload's headline subcommands first, and rounds
repeat until ``--seconds`` of child time have passed.  Right before and
right after each subcommand, the fixed program ``reference.py`` runs as a
child too; a subcommand's time metric (``*_rel``) is the median over the
rounds of its wall time divided by the mean wall time of the two
reference runs around it, so swings of the machine's speed cancel.  Peak RSS (``os.wait4`` rusage) and
``setup_s`` are medians over the rounds.  Outputs are checked after the
last timed child.  With ``--trace 1`` the same subcommands run once
in-process through ``pfmodel.cli.main``, then the layers they call are
replayed under spans (``layers.py``); the spans are written to
``.bench_out/``.

An operation is one distinct invocation.  It fails when any repeat exits
with another code than 0, prints a traceback, fails its output check
(``checks.py``), or differs from the output of the first repeat.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``correct`` is false when an output a metric
is measured on is missing or wrong.  A probe (an untimed operation kept to
show a known defect) and a ``simulate`` false alarm (exit 2 although the
generated model is exact) are failed operations whose outputs are not
wrong, so they leave ``correct`` true.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import gen
from checks import Checker
from workloads import SWEEP_TARGET, WORKLOADS, Op, Workload, input_files, prepare

#: a child still running after this many seconds is killed
CHILD_TIMEOUT = 150.0

#: end-to-end metrics of each timed operation: its wall time over the mean
#: wall time of the reference program (``reference.py``) run right before
#: and right after it
TIME_METRIC = {"analyze_json": "analyze_json_rel", "analyze_tsv": "analyze_tsv_rel",
               "verify": "verify_rel", "simulate": "simulate_rel",
               "simulate_one": "simulate_one_rel", "sweep": "sweep_rel"}
RSS_METRIC = {"analyze_json": "analyze_peak_rss_mb", "simulate": "simulate_peak_rss_mb"}


class BenchError(Exception):
    """The benchmark itself cannot run here."""


@dataclass
class Outcome:
    """What the repeats of one operation did."""

    op: Op
    walls: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # mean reference wall time around each
    rss_mb: list[float] = field(default_factory=list)
    code: int | None = None  # exit code of the first repeat
    kept: Path | None = None  # output of the first repeat, checked after timing
    digest: str | None = None
    failure: str | None = None  # the first reason the operation failed
    wrong: bool = False  # an output a metric is measured on was missing or wrong

    def fail(self, reason: str, wrong: bool = False) -> None:
        self.failure = self.failure or reason
        self.wrong = self.wrong or (wrong and not self.op.probe)

    def record(self, code: int, error: str, keep: Path) -> None:
        """Record one repeat: its exit code, its stderr, and its output,
        which is kept at ``keep`` the first time and must be byte-identical
        every later time."""
        last = error.strip().splitlines()[-1:]
        if "Traceback" in error:
            self.fail(f"traceback: {last[0]}")
        elif code != 0:
            self.fail(": ".join([f"exit {code}", *last]))
        out = Path(self.op.out)
        if not out.is_file():
            self.fail("no output", wrong=True)
            return
        digest = _sha256(out)
        if self.digest is None:
            self.digest, self.code, self.kept = digest, code, out.rename(keep)
            return
        if digest != self.digest:
            self.fail("output differs between identical runs", wrong=True)
        out.unlink()

    def check(self, checker) -> None:
        """Judge the kept output."""
        if self.kept is not None:
            problem = checker.check(self.op.key, self.code, self.kept)
            if problem:
                self.fail(f"check: {problem}", wrong=True)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _run_child(argv: list[str], env: dict, err_path: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code)."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode


def run_untraced(workload: Workload, seed: int, work: Path, env: dict,
                 seconds: float) -> tuple[list[Outcome], dict]:
    # Only the standard-library generator runs in this process before the
    # timed children: a child's peak RSS counts the pages of the process it
    # was forked from, so pfmodel and the checks load after the last one.
    inputs, ops = prepare(workload, seed, work)
    err = work / "stderr.txt"
    importer = [sys.executable, "-c", "import pfmodel.cli"]
    _run_child(importer, env, err)  # a fresh checkout compiles its bytecode here
    reference = [sys.executable, str(Path(__file__).with_name("reference.py"))]
    setup: list[float] = []
    outcomes = [Outcome(op) for op in ops]
    spent = 0.0  # seconds inside timed children; the bookkeeping between them is free

    def child(argv: list[str]) -> tuple[float, float, int]:
        nonlocal spent
        wall, rss, code = _run_child(argv, env, err)
        spent += wall
        return wall, rss, code

    def sample(o: Outcome, before: float) -> float:
        """One repeat of an operation between two runs of the reference
        program; returns the wall time of the second."""
        wall, rss, code = child([sys.executable, "-m", "pfmodel.cli", *o.op.argv])
        after = child(reference)[0]
        o.walls.append(wall)
        o.refs.append((before + after) / 2)
        o.rss_mb.append(rss)
        o.record(code, err.read_text(errors="replace"), work / f"kept-{o.op.key}")
        return after

    # The probe runs once, untimed.  Then rounds repeat while the mean
    # round still fits in the time left: each round is one set-up sample
    # and every timed operation once, headline first, with the reference
    # program run before the first operation and after each.  So every
    # operation gets the same number of samples, spread evenly over the run.
    for o in outcomes:
        if o.op.probe:
            sample(o, child(reference)[0])
    spent = 0.0
    rounds = 0
    while rounds == 0 or spent + spent / rounds <= seconds:
        setup.append(child(importer)[0])
        ref = child(reference)[0]
        for o in outcomes:
            if not o.op.probe:
                ref = sample(o, ref)
        rounds += 1

    checker = Checker(inputs, ops, seed)
    for o in outcomes:
        o.check(checker)
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for o in outcomes:
        if o.op.key in TIME_METRIC:
            metrics[TIME_METRIC[o.op.key]] = (statistics.median(
                wall / ref for wall, ref in zip(o.walls, o.refs)), "ratio")
        if o.op.key in RSS_METRIC:
            metrics[RSS_METRIC[o.op.key]] = (statistics.median(o.rss_mb), "MB")
    return outcomes, metrics


def run_traced(workload: Workload, seed: int, work: Path, spans: Path
               ) -> tuple[list[Outcome], dict]:
    import layers
    import pfmodel
    from pfmodel import cli

    package = Path.cwd() / "src" / "pfmodel"
    if Path(pfmodel.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported pfmodel from {pfmodel.__file__}, not {package}")
    inputs, ops = prepare(workload, seed, work)
    checker = Checker(inputs, ops, seed)
    tracer = layers.Tracer(workload.name)
    outcomes = []
    for op in ops:
        o = Outcome(op)
        error, code = "", 1
        with tracer.span(f"cli.{op.key}", op.key):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as e:  # argparse exits on usage errors
                code = e.code if isinstance(e.code, int) else 1
            except Exception:  # a traceback out of the CLI fails the operation
                error = traceback.format_exc(limit=2)
        o.walls.append(tracer.seconds(f"cli.{op.key}"))
        o.record(code, error, work / f"kept-{op.key}")
        o.check(checker)
        outcomes.append(o)

    # the layers replay on the main input, at the workload's sizes
    path = gen.deepest_path(inputs["main"].parents)
    taxonomy, profiles = input_files(work)
    bundle, pipelines = layers.analyze_layers(tracer, taxonomy, profiles, work / "replay")
    layers.verify_layers(tracer, bundle, pipelines)
    layers.simulate_layers(tracer, bundle, pipelines, workload.sim_m)
    layers.simulate_one_layers(tracer, bundle, pipelines, workload.one_m, path)
    layers.sweep_layers(tracer, bundle, pipelines, workload.sweep_n, path, SWEEP_TARGET)
    tracer.write(spans)
    return outcomes, layers.layer_metrics(tracer)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "pfmodel" / "cli.py").is_file():
        print(f"bench: no {src / 'pfmodel'}; run from the root of a pfmodel checkout",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    # a fixed hash seed gives every child the same set and dict layouts
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))

    workload = WORKLOADS[args.workload]
    stem = root / ".bench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = root / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    stem.parent.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            outcomes, metrics = run_traced(workload, args.seed, work,
                                           stem.with_suffix(".spans.jsonl"))
        else:
            outcomes, metrics = run_untraced(workload, args.seed, work, env, args.seconds)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "numpy": importlib.metadata.version("numpy")},
              "ops": {o.op.key: {"input": o.op.tag, "headline": o.op.headline,
                                 "walls_s": o.walls, "refs_s": o.refs, "rss_mb": o.rss_mb,
                                 "failure": o.failure}
                      for o in outcomes}}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for o in outcomes:
        if o.failure:
            print(f"bench: {workload.name} {o.op.key} failed: {o.failure}", file=sys.stderr)
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "samples": {o.op.key: len(o.walls) for o in outcomes},
                      "median_s": {o.op.key: statistics.median(o.walls) for o in outcomes},
                      "failures": {o.op.key: o.failure for o in outcomes if o.failure}}))
    print(json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failure is not None for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
