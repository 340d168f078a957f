"""In-memory spans and the traced, in-process run of pfmodel's layers.

A span records a name, its start and end, the span that caused it and the
operation it belongs to, plus the counts measured at the same boundary.
Spans are kept in memory and written out as JSON lines when the run ends.
They are taken only here, around calls into pfmodel's public functions;
nothing inside the package is instrumented.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Nested spans with counts, kept in memory until :meth:`write`."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, op: str, **counts):
        """Time the body; the yielded dict takes counts measured inside it."""
        record = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                  "workload": self.workload, "op": op, "name": name,
                  "start": time.perf_counter() - self._t0, "end": None, "counts": counts}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Durations of the spans called ``name``, in the order they started."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def seconds(self, name: str) -> float:
        """Median duration of the spans called ``name`` (one per repeated pass)."""
        return statistics.median(self.durations(name))

    def count(self, name: str, key: str) -> float:
        """Median of the count ``key`` over the spans called ``name``."""
        return statistics.median(s["counts"][key] for s in self.spans if s["name"] == name)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


#: ``pfmodel verify``'s default --max-len: deeper pipelines skip exact enumeration
VERIFY_MAX_LEN = 6
#: whole-taxonomy cells whose expected count is below this are "small"
SMALL_COUNT = 10.0
#: untraced/traced pairs of ``analyze`` passes behind ``trace.overhead_ratio``
OVERHEAD_PAIRS = 5


def analyze_layers(tr: Tracer, taxonomy: Path, profiles: Path, out: Path):
    """``analyze`` as the CLI does it (parse, report, render, write), in
    pairs of passes: one under a single span, one with a span around each
    call, in alternating order.  Then each per-pipeline model function runs
    over every pipeline on its own.  Returns the parsed inputs and their
    pipelines."""
    from pfmodel import depth_profile, enumerate_pipelines, factorize, psi
    from pfmodel.io import build_report, parse_inputs, write_report

    def parse():
        return parse_inputs(taxonomy.read_text(encoding="utf-8"),
                            profiles.read_text(encoding="utf-8"))

    def untraced():
        with tr.span("analyze.untraced", "analyze_json"):
            out.write_text(write_report(build_report(parse()), "json"), encoding="utf-8")

    def traced():
        with tr.span("analyze.traced", "analyze_json"):
            with tr.span("io.parse", "analyze_json"):
                bundle = parse()
            with tr.span("io.build_report", "analyze_json"):
                report = build_report(bundle)
            with tr.span("io.write_json", "analyze_json") as c:
                text = write_report(report, "json")
                c["mb"] = len(text) / 1e6
            with tr.span("io.emit", "analyze_json"):
                out.write_text(text, encoding="utf-8")
        return bundle, report

    for i in range(OVERHEAD_PAIRS):
        if i % 2:
            bundle, report = traced()
            untraced()
        else:
            untraced()
            bundle, report = traced()
    with tr.span("io.write_tsv", "analyze_tsv") as c:
        c["mb"] = len(write_report(report, "tsv")) / 1e6
    del report

    with tr.span("taxonomy.enumerate", "analyze_json") as c:
        pipelines = enumerate_pipelines(bundle.taxonomy)
        c["pipelines"] = len(pipelines)
        c["prefix_steps"] = sum(p.depth for p in pipelines)
    for name, fn in (("metrics.depth_profile", depth_profile), ("model.factorize", factorize),
                     ("model.psi", psi)):
        with tr.span(name, "analyze_json", calls=len(pipelines)):
            for p in pipelines:
                fn(p, bundle.profiles)
    return bundle, pipelines


def verify_layers(tr: Tracer, bundle, pipelines) -> None:
    """The three evaluations ``verify`` cross-checks, each over every pipeline."""
    from pfmodel import enumerate_exact, omega_closed, omega_recursive

    shallow = [p for p in pipelines if p.depth <= VERIFY_MAX_LEN]
    for name, fn, ps in (("model.omega_recursive", omega_recursive, pipelines),
                         ("model.omega_closed", omega_closed, pipelines),
                         ("simulate.enumerate_exact", enumerate_exact, shallow)):
        with tr.span(name, "verify", calls=len(ps)):
            for p in ps:
                fn(p, bundle.profiles)


def simulate_layers(tr: Tracer, bundle, pipelines, m: int) -> None:
    """Whole-taxonomy simulation and its comparison; then the same random
    streams drawn through ``rng.uniforms`` alone; then the simulation again
    under tracemalloc, for its allocation peak."""
    from pfmodel import SimConfig, compare, simulate_taxonomy
    from pfmodel.rng import uniforms

    t, profiles, cfg = bundle.taxonomy, bundle.profiles, SimConfig(m=m)
    with tr.span("simulate.taxonomy", "simulate"):
        result = simulate_taxonomy(t, profiles, cfg)
    with tr.span("simulate.compare", "simulate") as c:
        cells = over = small = 0
        for path, outcome in result.per_pipeline.items():
            report = compare(result.models[path], outcome)
            cells += len(report.cells)
            over += sum(cell.z > report.threshold for cell in report.cells)
            small += sum(cell.model * m < SMALL_COUNT for cell in report.cells)
        c.update(cells=cells, over_threshold=over, small=small)
    del result

    # the streams simulate_taxonomy keys: one membership stream per category
    # below the root, one decision stream per rooted prefix below the root
    streams = [("taxonomy-membership", node) for node in sorted(t.categories - {t.root})]
    streams += [("taxonomy-decision", p.path) for p in pipelines if p.depth]
    with tr.span("rng.uniforms", "simulate", streams=len(streams), draws=len(streams) * m):
        for tags in streams:
            uniforms(cfg.seed, tags, m)

    with tr.span("simulate.taxonomy_alloc", "simulate") as c:
        tracemalloc.start()
        try:
            simulate_taxonomy(t, profiles, cfg)
            c["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()


def simulate_one_layers(tr: Tracer, bundle, pipelines, m: int, path: str) -> None:
    from pfmodel import SimConfig, simulate_pipeline

    pipeline = next(p for p in pipelines if p.path == path)
    with tr.span("simulate.pipeline", "simulate_one"):
        simulate_pipeline(pipeline, bundle.profiles, SimConfig(m=m))


def sweep_layers(tr: Tracer, bundle, pipelines, n: int, path: str, target: float) -> None:
    from pfmodel import SimConfig, imbalance_sweep

    pipeline = next(p for p in pipelines if p.path == path)
    with tr.span("simulate.sweep", "sweep"):
        imbalance_sweep(pipeline, bundle.profiles, target, n, SimConfig(m=1))


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, by name, as (value, unit)."""
    pipelines = tr.count("taxonomy.enumerate", "pipelines")
    steps = tr.count("taxonomy.enumerate", "prefix_steps")
    cells = tr.count("simulate.compare", "cells")
    out = {
        "io.parse_s": (tr.seconds("io.parse"), "s"),
        "taxonomy.enumerate_s": (tr.seconds("taxonomy.enumerate"), "s"),
        "taxonomy.pipelines": (pipelines, "count"),
        "taxonomy.prefix_steps": (steps, "count"),
        "taxonomy.prefix_reuse": (steps / pipelines, "steps/pipeline"),
        "io.build_report_s": (tr.seconds("io.build_report"), "s"),
        "metrics.depth_profile_s": (tr.seconds("metrics.depth_profile"), "s"),
        "model.factorize_s": (tr.seconds("model.factorize"), "s"),
        "model.psi_s": (tr.seconds("model.psi"), "s"),
        "io.write_json_s": (tr.seconds("io.write_json"), "s"),
        "io.json_mb": (tr.count("io.write_json", "mb"), "MB"),
        "io.write_tsv_s": (tr.seconds("io.write_tsv"), "s"),
        "io.tsv_mb": (tr.count("io.write_tsv", "mb"), "MB"),
        "model.omega_closed_s": (tr.seconds("model.omega_closed"), "s"),
        "model.omega_recursive_s": (tr.seconds("model.omega_recursive"), "s"),
        "simulate.enumerate_exact_s": (tr.seconds("simulate.enumerate_exact"), "s"),
        "simulate.taxonomy_s": (tr.seconds("simulate.taxonomy"), "s"),
        "simulate.taxonomy_alloc_peak_mb": (tr.count("simulate.taxonomy_alloc", "peak_mb"), "MB"),
        "rng.uniforms_s": (tr.seconds("rng.uniforms"), "s"),
        "rng.draws": (tr.count("rng.uniforms", "draws"), "count"),
        "simulate.pipeline_s": (tr.seconds("simulate.pipeline"), "s"),
        "simulate.sweep_s": (tr.seconds("simulate.sweep"), "s"),
        "simulate.compare_s": (tr.seconds("simulate.compare"), "s"),
        "simulate.cells_tested": (cells, "count"),
        "simulate.cells_over_threshold": (tr.count("simulate.compare", "over_threshold"), "count"),
        "simulate.small_count_share": (tr.count("simulate.compare", "small") / cells, "ratio"),
    }
    for key in ("analyze_json", "analyze_tsv", "verify", "simulate", "simulate_one", "sweep"):
        out[f"cli.{key}_inproc_s"] = (tr.seconds(f"cli.{key}"), "s")
    # the same public calls with and without a span around each, in pairs
    ratios = [t / u for t, u in zip(tr.durations("analyze.traced"),
                                    tr.durations("analyze.untraced"))]
    out["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    out["trace.spans"] = (len(tr.spans), "count")
    return out
