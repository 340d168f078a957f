"""The package surface: what ``import pfmodel`` exports and what it loads."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import pfmodel

#: every public name of ``pfmodel``, those it resolves on first use included
EXPORTED = (
    "Cells2x2", "ClassifierProfileSet", "ConstraintCheck", "CycleDetectedError",
    "DEFAULT_Z_THRESHOLD", "DegenerateBoundError", "DepthProfile", "DepthRow",
    "DeviationReport", "DuplicateEdgeError", "Edge", "Factorization", "InfeasibleTargetError",
    "InputBundle", "InstanceLabeling", "IntrinsicMatrix", "JointMatrix", "MU", "MetricReport",
    "MissingEdgeProbabilityError", "MissingGammaError", "MultipleRootsError",
    "NormalizedConfusionMatrix", "OMEGA_BASE", "OracleCheck", "OutOfRangeProbabilityError",
    "PFModelError", "ParseError", "Pipeline", "PrefixState", "Report",
    "RootProfileForbiddenError", "SimConfig", "SimOutcome", "SimRun", "Simulation",
    "SweepResult", "Taxonomy", "TaxonomySimOutcome", "UnknownCategoryError",
    "UnknownInstanceError", "Verdict", "Verification",
    "build_report", "category_domain", "check_label_consistency", "compare",
    "context_switch", "covering_char", "depth_profile", "enumerate_exact",
    "enumerate_pipelines", "errors", "expected_confusion", "factorize", "find_pipeline",
    "homomorphism_map", "imbalance_sweep", "io", "metrics", "model", "omega_closed",
    "omega_recursive", "omega_step", "oplus", "oracles", "parse_inputs", "parse_profiles",
    "parse_taxonomy", "pipeline_leq", "pipeline_metrics", "precision_constraint_check",
    "psi", "relative_sets", "relevance", "rng", "run_simulation", "serialize_profiles",
    "serialize_taxonomy", "simulate", "simulate_pipeline", "simulate_taxonomy", "taxonomy",
    "taxonomy_memberships", "validate_taxonomy", "verify_oracles", "wfs_char", "write_pipelines", "write_report",
    "write_simulation", "write_sweep", "write_verification",
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
    listed = dir(pfmodel)
    assert listed == sorted(listed)
    assert not set(EXPORTED) - set(listed)


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
