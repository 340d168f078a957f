"""Command-line front end.

Each subcommand checks its flags, makes one library call and writes the
record it returns with :mod:`.io`:

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

Exit codes: 0 success; 1 bad input (a rejected flag or input file, or an
``--out`` that cannot be opened, with its location); 2 model falsified
(oracle disagreement or simulation deviation beyond threshold, named in one
line on stderr); 3 a run that could not finish through a fault of pfmodel
or of its environment (out of memory, a failed write), in one line.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import stat
import sys
from typing import Any, Callable, Sequence

from . import io as pfio
from .errors import ParseError, PFModelError
from .metrics import DEFAULT_Z_THRESHOLD
from .taxonomy import enumerate_pipelines, find_pipeline

# numpy, and with it the simulator, is imported by the handlers that
# simulate or sweep, so ``pipelines``, ``analyze`` and ``verify`` never load it.

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

    def common(p, handler, profiles=True):
        p.set_defaults(handler=handler)
        p.add_argument("--taxonomy", required=True, help="taxonomy JSON file")
        if profiles:
            p.add_argument("--profiles", required=True, help="classifier profiles JSON file")
            p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--out", help="output file (default: standard output)")

    p = sub.add_parser("pipelines", help="list rooted paths")
    common(p, _cmd_pipelines, profiles=False)
    p.add_argument("--leaf-only", action="store_true", help="only leaf-terminated pipelines")

    p = sub.add_parser("analyze", help="predicted matrices and metrics per pipeline")
    common(p, _cmd_analyze)
    p.add_argument("--leaf-only", action="store_true", help="only leaf-terminated pipelines")
    p.add_argument("--pipeline", help="restrict to one slash-joined pipeline")

    p = sub.add_parser("verify", help="cross-check the three model evaluations")
    common(p, _cmd_verify)
    p.add_argument("--tol", type=float, default=1e-12, help="max allowed discrepancy")
    p.add_argument("--max-len", type=int, default=6,
                   help="depth limit of exact enumeration and of random samples (default 6)")
    p.add_argument("--samples", type=int, default=50,
                   help="random synthetic pipelines to add (default 50)")
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("simulate", help="seeded simulation vs model prediction")
    common(p, _cmd_simulate)
    p.add_argument("--m", type=int, default=100000, help="documents per run (default 100000)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--z-threshold", type=float, default=DEFAULT_Z_THRESHOLD,
                   help="per-cell deviation limit in standard errors (default 4.0)")
    p.add_argument("--pipeline", help="simulate one pipeline in isolation")

    p = sub.add_parser("sweep", help="metrics under many same-imbalance distributions")
    common(p, _cmd_sweep)
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


def _emit(out: str | None, write: Callable[..., object], *record: Any) -> None:
    """Write a record with ``write(*record, sink)`` as UTF-8 into the file
    ``out``, or into stdout whatever the locale, as the writer renders it.

    The handler calls this only once its library call has returned, so bad
    input exits before any file is opened; an ``out`` that cannot be opened
    is a :class:`ParseError` located at ``out``.  If writing fails, a partial
    ``out`` file (a regular file, not ``/dev/null`` or a pipe) is removed;
    text already written to stdout cannot be taken back.  Stdout is wrapped
    in a UTF-8 text layer over its byte buffer, detached afterwards so the
    real stdout stays open, or closed if it refuses the text (a full disk, a
    closed pipe), so the interpreter does not retry the write at exit; a
    text-only stdout, such as ``io.StringIO``, is written to directly.
    """
    if out is not None:
        try:
            fh = open(out, "w", encoding="utf-8", newline="\n")
        except OSError as e:
            raise ParseError(e.strerror, location=out) from None
        with fh:
            try:
                write(*record, fh)
                fh.flush()  # a failure to write the last text removes the file too
            except BaseException:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    os.unlink(out)
                raise
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        write(*record, sys.stdout)
        return
    sys.stdout.flush()
    sink = io.TextIOWrapper(buffer, encoding="utf-8", newline="\n")
    try:
        write(*record, sink)
    finally:
        try:
            sink.detach()  # flushes, and leaves the buffer open
        except OSError:
            with contextlib.suppress(OSError):
                sink.close()
            raise


def _falsified(line: str) -> int:
    """Name what failed on stderr, so stdout stays the record alone."""
    print(f"pfmodel: falsified: {line}", file=sys.stderr)
    return EXIT_FALSIFIED


def _read(path: str) -> str:
    """The text of the UTF-8 file ``path``; a file that cannot be opened,
    read or decoded is a :class:`ParseError` located at ``path``."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except OSError as e:
        raise ParseError(e.strerror, location=path) from None
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason} at byte {e.start}",
                         location=path) from None


def _cmd_pipelines(args) -> int:
    taxonomy = pfio.parse_taxonomy(_read(args.taxonomy))
    pipelines = enumerate_pipelines(taxonomy, leaf_only=args.leaf_only)
    _emit(args.out, pfio.write_pipelines, pipelines)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    bundle = pfio.parse_inputs(_read(args.taxonomy), _read(args.profiles))
    report = pfio.build_report(bundle, leaf_only=args.leaf_only,
                               pipeline_path=args.pipeline)
    _emit(args.out, pfio.write_report, report, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .oracles import verify_oracles

    _require_finite_nonnegative("--tol", args.tol)
    if args.samples < 0:
        raise PFModelError(f"--samples must be at least 0, got {args.samples}")
    if args.samples > 0 and args.max_len < 1:
        raise PFModelError(
            f"--max-len must be at least 1 when --samples is above 0, got {args.max_len}"
        )
    # the int64 bound of the depths numpy once drew, kept so that exit codes do not change
    if args.samples > 0 and args.max_len > 2**63 - 1:
        raise PFModelError(
            f"--max-len must be at most {2**63 - 1} when --samples is above 0,"
            f" got {args.max_len}"
        )
    _require_seed(args.seed)
    bundle = pfio.parse_inputs(_read(args.taxonomy), _read(args.profiles))
    result = verify_oracles(bundle.taxonomy, bundle.profiles, args.tol, args.max_len,
                            args.samples, args.seed)
    _emit(args.out, pfio.write_verification, result, args.format)
    return EXIT_OK if result.passed else _falsified(pfio.verification_failure(result))


def _cmd_simulate(args) -> int:
    from .simulate import run_simulation

    if args.m < 1:
        raise PFModelError(f"--m must be at least 1, got {args.m}")
    if args.m > sys.maxsize // 8:  # numpy addresses sys.maxsize bytes, m float64s per stream
        raise PFModelError(f"--m must be at most {sys.maxsize // 8}, got {args.m}")
    if args.replications < 1:
        raise PFModelError(f"--replications must be at least 1, got {args.replications}")
    if args.replications > 2**64:  # every replication takes its own 64-bit seed
        raise PFModelError(f"--replications must be at most {2**64}, got {args.replications}")
    _require_finite_nonnegative("--z-threshold", args.z_threshold)
    _require_seed(args.seed, streams=args.replications)
    bundle = pfio.parse_inputs(_read(args.taxonomy), _read(args.profiles))
    pipeline = None if args.pipeline is None else find_pipeline(bundle.taxonomy, args.pipeline)
    result = run_simulation(bundle.taxonomy, bundle.profiles, args.m, args.seed,
                            args.replications, args.z_threshold, pipeline)
    _emit(args.out, pfio.write_simulation, result, args.format)
    return EXIT_OK if result.passed else _falsified(pfio.simulation_failure(result))


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
    _emit(args.out, pfio.write_sweep, result, args.format)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except PFModelError as e:
        print(f"pfmodel: error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as e:  # a fault of pfmodel or of its environment, not of its input
        print(f"pfmodel: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
