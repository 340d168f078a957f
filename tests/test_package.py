"""The package surface: what ``import pfmodel`` exports and what it loads."""

from __future__ import annotations

import ast
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
