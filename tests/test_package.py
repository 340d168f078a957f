"""The package surface: what ``import pfmodel`` exports and what it loads."""

from __future__ import annotations

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pfmodel

#: every public name of ``pfmodel``, those it resolves on first use included
EXPORTED = (
    "Cells2x2", "ClassifierProfileSet", "ConstraintCheck", "CycleDetectedError",
    "DEFAULT_Z_THRESHOLD", "DepthProfile", "DepthRow", "DeviationReport", "DuplicateEdgeError",
    "Edge", "Factorization", "InfeasibleTargetError", "InputBundle", "IntrinsicMatrix",
    "JointMatrix", "MU", "MetricReport", "MissingEdgeProbabilityError", "MissingGammaError",
    "MultipleRootsError", "NormalizedConfusionMatrix", "OMEGA_BASE", "OracleCheck",
    "OutOfRangeProbabilityError", "PFModelError", "ParseError", "Pipeline", "PrefixState",
    "Report", "RootProfileForbiddenError", "SimConfig", "SimOutcome", "SimRun", "Simulation",
    "SweepResult", "Taxonomy", "TaxonomySimOutcome", "UnknownCategoryError", "Verdict",
    "Verification", "build_report", "check_label_consistency", "compare", "context_switch",
    "depth_profile", "enumerate_exact", "enumerate_pipelines", "errors", "factorize",
    "find_pipeline", "homomorphism_map", "imbalance_sweep", "io", "metrics", "model",
    "omega_closed", "omega_recursive", "omega_step", "oplus", "oracles", "parse_inputs",
    "parse_profiles", "parse_taxonomy", "pipeline_metrics", "psi", "relative_sets", "rng",
    "run_simulation", "simulate", "simulate_pipeline", "simulate_taxonomy", "taxonomy",
    "taxonomy_memberships", "validate_taxonomy", "verify_oracles", "write_pipelines",
    "write_report", "write_simulation", "write_sweep", "write_verification",
)

# Runs in a fresh interpreter: first listing, then resolving every name.
_EXPORTS_SCRIPT = """
import sys
import pfmodel
names = sys.argv[1:]
missing = [n for n in names if n not in dir(pfmodel)]
assert not missing, f"not in dir(pfmodel): {missing}"
for n in names:
    getattr(pfmodel, n)
from pfmodel import SimConfig, simulate_taxonomy
assert pfmodel.simulate.DEFAULT_Z_THRESHOLD == pfmodel.DEFAULT_Z_THRESHOLD
"""

# Runs the CLI in a fresh interpreter and fails if it loaded numpy.
_NUMPY_FREE_SCRIPT = """
import sys
from pfmodel import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
if "numpy" in sys.modules:
    sys.exit("numpy was imported")
sys.exit(code)
"""


def _python(script: str, *argv: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(pfmodel.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_every_exported_name_resolves_in_a_fresh_interpreter():
    proc = _python(_EXPORTS_SCRIPT, *EXPORTED)
    assert proc.returncode == 0, proc.stderr


def test_dir_lists_every_exported_name():
    # in a fresh interpreter, where no test has imported ``pfmodel.cli``
    proc = _python("import pfmodel; print(*dir(pfmodel))")
    assert proc.returncode == 0, proc.stderr
    listed = proc.stdout.split()
    assert listed == sorted(listed)
    assert [name for name in listed if not name.startswith("_")] == sorted(EXPORTED)


def _unused_imports(path: Path) -> list[str]:
    """Names that the module at ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports its names to export them
    modules = sorted(Path(pfmodel.__file__).parent.glob("*.py"))
    unused = {path.name: _unused_imports(path) for path in modules
              if path.name != "__init__.py"}
    assert len(unused) > 5
    assert {name: names for name, names in unused.items() if names} == {}


@pytest.mark.parametrize("argv", [
    [],
    ["pipelines"],
    ["analyze", "--format", "json"],
    ["analyze", "--format", "tsv"],
    ["verify", "--format", "json"],
    ["verify", "--format", "tsv"],
    ["verify", "--samples", "0"],
    ["verify", "--max-len", "1"],
], ids=["import", "pipelines", "analyze-json", "analyze-tsv", "verify-json", "verify-tsv",
        "verify-no-samples", "verify-max-len-1"])
def test_cli_without_simulation_does_not_import_numpy(dag_files, argv):
    taxonomy, profiles = dag_files
    if argv:
        argv = [argv[0], "--taxonomy", taxonomy, *argv[1:]]
        if argv[0] != "pipelines":
            argv += ["--profiles", profiles]
    proc = _python(_NUMPY_FREE_SCRIPT, *argv)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", [
    # what ``import pfmodel.cli`` loads is what every subcommand pays to start
    """
import sys
import pfmodel.cli
loaded = sorted(m for m in sys.modules if m.startswith("pfmodel"))
assert loaded == ["pfmodel", "pfmodel.cli", "pfmodel.errors", "pfmodel.io", "pfmodel.metrics",
                  "pfmodel.model", "pfmodel.taxonomy"], loaded
""",
    """
import sys
import pfmodel
pfmodel.verify_oracles, pfmodel.enumerate_exact
assert "numpy" not in sys.modules, "numpy was imported"
""",
], ids=["cli-loads-no-oracles", "oracles-load-no-numpy"])
def test_lazy_names_load_only_their_own_modules(script):
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr


# Runs the CLI in a fresh interpreter and fails if it loaded any module named
# in the first argument (comma-separated).
_MODULES_SCRIPT = """
import sys
from pfmodel import cli
code = cli.main(sys.argv[2:])
loaded = [name for name in sys.argv[1].split(",") if name in sys.modules]
sys.exit(f"loaded {loaded}" if loaded else code)
"""


@pytest.mark.parametrize("argv, unloaded", [
    (["pipelines"], "dataclasses,inspect"),
    (["analyze", "--format", "json"], "dataclasses,inspect"),
    (["analyze", "--format", "tsv"], "dataclasses,inspect"),
    # verify draws its random pipelines from a pure-Python Philox
    (["verify"], "dataclasses,inspect,numpy"),
    # numpy itself loads inspect
    (["simulate", "--m", "1000"], "dataclasses"),
    (["simulate", "--pipeline", "A/B/D", "--m", "1000"], "dataclasses"),
    (["sweep", "--pipeline", "A/B/D", "--target", "0.1", "--n", "20"], "dataclasses"),
], ids=["pipelines", "analyze-json", "analyze-tsv", "verify", "simulate", "simulate-pipeline",
        "sweep"])
def test_no_subcommand_loads_dataclasses(dag_files, tmp_path, argv, unloaded):
    taxonomy, profiles = dag_files
    argv = [argv[0], "--taxonomy", taxonomy, *argv[1:], "--out", str(tmp_path / "out")]
    if argv[0] != "pipelines":
        argv += ["--profiles", profiles]
    proc = _python(_MODULES_SCRIPT, unloaded, *argv)
    assert proc.returncode == 0, proc.stderr


def test_records_are_immutable_tuples_that_validate_their_fields():
    pf = pfmodel
    joint = pf.JointMatrix(0, 0, 0, 1)
    assert joint == pf.OMEGA_BASE and [type(c) for c in joint] == [float] * 4
    gamma = pf.NormalizedConfusionMatrix(0.9, 0.1, 0.2, 0.8)
    assert type(pf.oplus(joint, gamma)) is pf.JointMatrix
    assert type(pf.oplus(gamma, gamma)) is pf.NormalizedConfusionMatrix
    pipeline = pf.Pipeline(("A", "B"), (1.0, 0.5))
    records = [joint, gamma, pipeline, pf.SimConfig(m=3), pf.Edge("B", "A", 0.5),
               pf.validate_taxonomy(["A", "B"], [pf.Edge("B", "A", 0.5)])]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])
        with pytest.raises(AttributeError):
            record.extra = 1
        twin = type(record)(*record)
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
    # records that cache derived values keep a __dict__ for them, but no
    # attribute can be set or deleted from outside, a cached one included
    taxonomy = records[-1]
    profiles = pf.ClassifierProfileSet({"B": gamma}, root="A")
    assert pipeline.path == "A/B" and taxonomy.topological_order == ("A", "B")
    assert profiles.resolve(pipeline, 1) == gamma
    for record, cached in [(pipeline, "path"), (taxonomy, "topological_order"),
                           (profiles, "_overridden")]:
        value = getattr(record, cached)
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(record, cached, value)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(record, cached)
        with pytest.raises(AttributeError, match="is immutable"):
            record.extra = 1
        assert getattr(record, cached) is value
    out_of_range = pf.OutOfRangeProbabilityError
    bad = [
        (lambda: pf.JointMatrix(0.5, 0.5, 0.5, 0.5), out_of_range, "joint mass sums to 2.0"),
        (lambda: pf.JointMatrix(-0.5, 0.5, 0.0, 1.0), out_of_range, r"tn=-0.5 outside \[0, 1\]"),
        (lambda: pf.JointMatrix(math.nan, 0, 0, 1), out_of_range, "tn=nan is not a finite number"),
        (lambda: pf.NormalizedConfusionMatrix(0.9, 0.2, 0.2, 0.8), out_of_range,
         "negative row sums to"),
        # a copy with a changed field is checked as a new record is
        (lambda: gamma._replace(tp=0.9), out_of_range, "positive row sums to"),
        (lambda: joint._replace(tn=0.5), out_of_range, "joint mass sums to"),
        (lambda: pipeline._replace(fs=(1.0, 2.0)), out_of_range, "edge probability 2.0"),
        (lambda: pf.Pipeline((), ()), ValueError, "at least the root"),
        (lambda: pf.ClassifierProfileSet({"A": gamma}, root="A"), pf.RootProfileForbiddenError,
         "fixed neutral behavior"),
        (lambda: pf.SimConfig(m=0), ValueError, "m must be >= 1"),
        (lambda: pf.SimOutcome("A", 2, (1, 0, 0, 0)), ValueError, "counts must sum to m"),
    ]
    for make, error, message in bad:
        with pytest.raises(error, match=message):
            make()
    # each profile set left without overrides gets a dict of its own
    assert profiles.overrides == {}
    assert profiles.overrides is not pf.ClassifierProfileSet({"B": gamma}, root="A").overrides
