"""Command-line front end.

Subcommands map onto the library one to one:

* ``pipelines`` -- list the rooted paths of a taxonomy.
* ``analyze``   -- predicted joint matrices, factorizations, and metrics
                   for every pipeline, as JSON or TSV.
* ``verify``    -- cross-check the closed form, the recurrence, and the
                   exact event-tree enumeration against each other, on the
                   taxonomy's pipelines and on random synthetic ones.
* ``simulate``  -- run the seeded document simulator and compare tallies
                   against the model cell by cell.
* ``sweep``     -- evaluate one pipeline under many input distributions
                   with the same final positive rate.

Exit codes: 0 success; 1 bad input (parse/validation/usage); 2 model
falsified (oracle disagreement or simulation deviation beyond threshold);
3 internal error (a fault of pfmodel, reported in one line).  Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING, Sequence

from . import io as pfio
from .errors import ParseError, PFModelError
from .metrics import DEFAULT_Z_THRESHOLD
from .model import (
    ClassifierProfileSet,
    NormalizedConfusionMatrix,
    omega_closed,
    omega_recursive,
)
from .taxonomy import Pipeline, enumerate_pipelines, find_pipeline

# numpy, and with it the simulator and the random streams, is imported by
# the handlers that draw random numbers, so ``pipelines`` and ``analyze``
# never load it.
if TYPE_CHECKING:
    from numpy.random import Generator

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FALSIFIED = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; reserve 2 for
    verification failures and report usage problems as invalid input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pfmodel", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, profiles=True, formats=True):
        p.add_argument("--taxonomy", required=True, help="taxonomy JSON file")
        if profiles:
            p.add_argument("--profiles", required=True, help="classifier profiles JSON file")
        if formats:
            p.add_argument("--format", choices=("json", "tsv"), default="json")
            p.add_argument("--out", help="output file (default: standard output)")

    p = sub.add_parser("pipelines", help="list rooted paths")
    common(p, profiles=False, formats=False)
    p.add_argument("--leaf-only", action="store_true", help="only leaf-terminated pipelines")
    p.add_argument("--out", help="output file (default: standard output)")

    p = sub.add_parser("analyze", help="predicted matrices and metrics per pipeline")
    common(p)
    p.add_argument("--leaf-only", action="store_true", help="only leaf-terminated pipelines")
    p.add_argument("--pipeline", help="restrict to one slash-joined pipeline")

    p = sub.add_parser("verify", help="cross-check the three model evaluations")
    common(p)
    p.add_argument("--tol", type=float, default=1e-12, help="max allowed discrepancy")
    p.add_argument("--max-len", type=int, default=6,
                   help="exact enumeration depth limit (default 6)")
    p.add_argument("--samples", type=int, default=50,
                   help="random synthetic pipelines to add (default 50)")
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("simulate", help="seeded simulation vs model prediction")
    common(p)
    p.add_argument("--m", type=int, default=100000, help="documents per run (default 100000)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--z-threshold", type=float, default=DEFAULT_Z_THRESHOLD,
                   help="per-cell deviation limit in standard errors (default 4.0)")
    p.add_argument("--pipeline", help="simulate one pipeline in isolation")

    p = sub.add_parser("sweep", help="metrics under many same-imbalance distributions")
    common(p)
    p.add_argument("--pipeline", required=True, help="slash-joined pipeline to sweep")
    p.add_argument("--target", type=float, required=True,
                   help="final positive rate shared by all sampled distributions")
    p.add_argument("--n", type=int, default=100, help="number of distributions (default 100)")
    p.add_argument("--seed", type=int, default=42)

    return parser


def _require_finite_nonnegative(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise PFModelError(f"{flag} must be finite and at least 0, got {value}")


def _require_seed(seed: int, streams: int = 1) -> None:
    """Seeds ``seed`` .. ``seed + streams - 1`` must all fit in 64 bits."""
    if not 0 <= seed <= 2**64 - streams:
        raise PFModelError(
            f"--seed must be at least 0 and at most {2**64 - streams}, got {seed}"
        )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason} at byte {e.start}",
                         location=path) from None


def _cmd_pipelines(args) -> int:
    taxonomy = pfio.parse_taxonomy(_read(args.taxonomy))
    lines = [p.path for p in enumerate_pipelines(taxonomy, leaf_only=args.leaf_only)]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    bundle = pfio.parse_inputs(_read(args.taxonomy), _read(args.profiles))
    report = pfio.build_report(bundle, leaf_only=args.leaf_only,
                               pipeline_path=args.pipeline)
    _emit(pfio.write_report(report, args.format), args.out)
    return EXIT_OK


def _random_gamma(rng: Generator) -> NormalizedConfusionMatrix:
    fp = float(rng.random())
    tp = float(rng.random())
    return NormalizedConfusionMatrix(tn=1.0 - fp, fp=fp, fn=1.0 - tp, tp=tp)


def _random_pipeline(rng: Generator, max_len: int) -> tuple[Pipeline, ClassifierProfileSet]:
    depth = int(rng.integers(1, max_len + 1))
    nodes = tuple(f"n{i}" for i in range(depth + 1))
    fs = (1.0,) + tuple(float(rng.random()) for _ in range(depth))
    base = {nodes[k]: _random_gamma(rng) for k in range(1, depth + 1)}
    return Pipeline(nodes, fs), ClassifierProfileSet(base=base, root=nodes[0])


def _verify_checks(bundle: pfio.InputBundle, tol: float, max_len: int,
                   samples: int, seed: int) -> list[dict]:
    from numpy.random import Generator, Philox

    from .rng import stream_key
    from .simulate import enumerate_exact

    checks = []

    def run_one(label: str, pipeline: Pipeline, profiles: ClassifierProfileSet) -> None:
        recursive = omega_recursive(pipeline, profiles)
        closed = omega_closed(pipeline, profiles)
        rows = [
            ("closed_vs_recursive", closed.max_abs_diff(recursive)),
            ("mass_sums_to_one", abs(recursive.total - 1.0)),
        ]
        if pipeline.depth <= max_len:
            exact = enumerate_exact(pipeline, profiles)
            rows.append(("exact_vs_recursive", exact.max_abs_diff(recursive)))
            rows.append(("exact_vs_closed", exact.max_abs_diff(closed)))
        for check, diff in rows:
            checks.append({
                "source": label,
                "pipeline": pipeline.path,
                "depth": pipeline.depth,
                "check": check,
                "discrepancy": diff,
                "passed": diff <= tol,
            })

    for p in enumerate_pipelines(bundle.taxonomy):
        run_one("taxonomy", p, bundle.profiles)
    rng = Generator(Philox(key=stream_key(seed, "verify")))
    for i in range(samples):
        pipeline, profiles = _random_pipeline(rng, max_len)
        run_one(f"random[{i}]", pipeline, profiles)
    return checks


def _cmd_verify(args) -> int:
    _require_finite_nonnegative("--tol", args.tol)
    if args.samples < 0:
        raise PFModelError(f"--samples must be at least 0, got {args.samples}")
    if args.samples > 0 and args.max_len < 1:
        raise PFModelError(
            f"--max-len must be at least 1 when --samples is above 0, got {args.max_len}"
        )
    if args.samples > 0 and args.max_len > 2**63 - 1:  # numpy draws depths as int64
        raise PFModelError(
            f"--max-len must be at most {2**63 - 1} when --samples is above 0,"
            f" got {args.max_len}"
        )
    _require_seed(args.seed)
    bundle = pfio.parse_inputs(_read(args.taxonomy), _read(args.profiles))
    checks = _verify_checks(bundle, args.tol, args.max_len, args.samples, args.seed)
    passed = all(c["passed"] for c in checks)
    worst = max(c["discrepancy"] for c in checks)
    if args.format == "json":
        text = pfio.dump_json({
            "tolerance": args.tol,
            "max_len": args.max_len,
            "samples": args.samples,
            "seed": args.seed,
            "checks": checks,
            "max_discrepancy": worst,
            "passed": passed,
        })
    else:
        cols = ["source", "pipeline", "depth", "check", "discrepancy", "passed"]
        text = pfio.tsv(cols, (
            [c["source"], c["pipeline"], str(c["depth"]), c["check"],
             pfio.fmt12(c["discrepancy"]), str(c["passed"]).lower()]
            for c in checks
        ))
    _emit(text, args.out)
    return EXIT_OK if passed else EXIT_FALSIFIED


def _cmd_simulate(args) -> int:
    from .simulate import SimConfig, compare, simulate_pipeline, simulate_taxonomy

    if args.m < 1:
        raise PFModelError(f"--m must be at least 1, got {args.m}")
    if args.m > sys.maxsize // 8:  # numpy addresses sys.maxsize bytes, m float64s per stream
        raise PFModelError(f"--m must be at most {sys.maxsize // 8}, got {args.m}")
    if args.replications < 1:
        raise PFModelError(f"--replications must be at least 1, got {args.replications}")
    _require_finite_nonnegative("--z-threshold", args.z_threshold)
    _require_seed(args.seed, streams=args.replications)
    bundle = pfio.parse_inputs(_read(args.taxonomy), _read(args.profiles))
    pipeline = find_pipeline(bundle.taxonomy, args.pipeline) if args.pipeline else None
    predicted = omega_closed(pipeline, bundle.profiles) if pipeline is not None else None
    rows = []
    for r in range(args.replications):
        cfg = SimConfig(m=args.m, seed=args.seed + r)
        if pipeline is not None:
            outcome = simulate_pipeline(pipeline, bundle.profiles, cfg)
            reports = {pipeline.path: (predicted, outcome)}
        else:
            result = simulate_taxonomy(bundle.taxonomy, bundle.profiles, cfg)
            reports = {path: (result.models[path], result.per_pipeline[path])
                       for path in sorted(result.per_pipeline)}
        for path, (model, outcome) in reports.items():
            deviation = compare(model, outcome, z_threshold=args.z_threshold)
            rows.append({
                "replication": r,
                "seed": cfg.seed,
                "pipeline": path,
                "m": outcome.m,
                "counts": {"tn": outcome.counts[0], "fp": outcome.counts[1],
                           "fn": outcome.counts[2], "tp": outcome.counts[3]},
                "model": pfio.omega_payload(model),
                "max_z": deviation.max_z,
                "passed": deviation.passed,
            })
    passed = all(row["passed"] for row in rows)
    if args.format == "json":
        text = pfio.dump_json({
            "m": args.m,
            "seed": args.seed,
            "replications": args.replications,
            "z_threshold": args.z_threshold,
            "runs": rows,
            "passed": passed,
        })
    else:
        cols = ["replication", "seed", "pipeline", "m",
                "tn", "fp", "fn", "tp", "max_z", "passed"]
        text = pfio.tsv(cols, (
            [str(row["replication"]), str(row["seed"]), row["pipeline"], str(row["m"]),
             *(str(n) for n in row["counts"].values()),
             pfio.fmt12(row["max_z"]), str(row["passed"]).lower()]
            for row in rows
        ))
    _emit(text, args.out)
    return EXIT_OK if passed else EXIT_FALSIFIED


def _cmd_sweep(args) -> int:
    from .simulate import imbalance_sweep

    if not 0.0 < args.target < 1.0:
        raise PFModelError(f"--target must be strictly between 0 and 1, got {args.target}")
    if args.n < 1:
        raise PFModelError(f"--n must be at least 1, got {args.n}")
    _require_seed(args.seed)
    bundle = pfio.parse_inputs(_read(args.taxonomy), _read(args.profiles))
    pipeline = find_pipeline(bundle.taxonomy, args.pipeline)
    result = imbalance_sweep(pipeline, bundle.profiles, args.target, args.n, args.seed)

    if args.format == "json":
        text = pfio.dump_json({
            "pipeline": result.pipeline,
            "target": result.target,
            "n": len(result.rows),
            "seed": args.seed,
            "rows": [
                {
                    "fs": row.fs,
                    "omega": pfio.omega_payload(row.omega),
                    "metrics": pfio.metrics_payload(row.report),
                }
                for row in result.rows
            ],
            "spread": [
                {"metric": s.metric, "min": s.minimum, "max": s.maximum, "mean": s.mean,
                 "undefined": s.undefined}
                for s in result.spreads
            ],
        })
    else:
        depth = pipeline.depth
        cols = (["index"] + [f"f_{k}" for k in range(1, depth + 1)]
                + ["tP", "tR", "tF1", "tA"])
        rows = [[str(i)] + [pfio.fmt12(f) for f in row.fs[1:]] + pfio.metric_cells(row.report)
                for i, row in enumerate(result.rows)]
        spread_names = {"precision": "tP", "f1": "tF1"}
        rows += [[f"{spread_names[s.metric]}_spread"] + ["-"] * depth
                 + [pfio.cell12(s.minimum), pfio.cell12(s.maximum), pfio.cell12(s.mean), "-"]
                 for s in result.spreads if s.metric in spread_names]
        text = pfio.tsv(cols, rows)
    _emit(text, args.out)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "pipelines": _cmd_pipelines,
        "analyze": _cmd_analyze,
        "verify": _cmd_verify,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (PFModelError, OSError) as e:
        print(f"pfmodel: error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as e:  # a fault of pfmodel, not of its input
        print(f"pfmodel: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
