"""pfmodel: probabilistic modeling of progressive-filtering classifier cascades.

Predicts the joint outcome matrix of any pipeline extracted from a category
taxonomy, factorizes it into input-distribution and intrinsic-classifier
parts, derives taxonomic metrics, and verifies every prediction against
exact-enumeration and Monte-Carlo oracles.
"""

from .errors import (
    CycleDetectedError,
    DuplicateEdgeError,
    InfeasibleTargetError,
    MissingEdgeProbabilityError,
    MissingGammaError,
    MultipleRootsError,
    OutOfRangeProbabilityError,
    ParseError,
    PFModelError,
    RootProfileForbiddenError,
    UnknownCategoryError,
)
from .io import (
    InputBundle,
    Report,
    build_report,
    parse_inputs,
    parse_profiles,
    parse_taxonomy,
    write_pipelines,
    write_report,
    write_simulation,
    write_sweep,
    write_verification,
)
from .metrics import (
    DEFAULT_Z_THRESHOLD,
    ConstraintCheck,
    DepthProfile,
    DepthRow,
    MetricReport,
    Verdict,
    depth_profile,
    factorize,
    pipeline_metrics,
)
from .model import (
    MU,
    OMEGA_BASE,
    Cells2x2,
    ClassifierProfileSet,
    Factorization,
    IntrinsicMatrix,
    JointMatrix,
    NormalizedConfusionMatrix,
    PrefixState,
    context_switch,
    homomorphism_map,
    omega_closed,
    omega_recursive,
    omega_step,
    oplus,
    psi,
)
from .taxonomy import (
    Edge,
    Pipeline,
    Taxonomy,
    check_label_consistency,
    enumerate_pipelines,
    find_pipeline,
    relative_sets,
    validate_taxonomy,
)

__version__ = "0.1.0"

# Names resolved on first use, each from the submodule that defines it, so
# that ``import pfmodel.cli`` loads neither ``simulate`` nor ``oracles``.
# ``simulate`` needs numpy, and only the ``simulate`` and ``sweep``
# subcommands load it; ``verify`` loads ``oracles``, which needs no numpy.
_LAZY_NAMES = {
    **dict.fromkeys(("DeviationReport", "SimConfig", "SimOutcome", "SimRun", "Simulation",
                     "SweepResult", "TaxonomySimOutcome", "compare", "imbalance_sweep",
                     "run_simulation", "simulate_pipeline", "simulate_taxonomy",
                     "taxonomy_memberships"), "simulate"),
    **dict.fromkeys(("OracleCheck", "Verification", "enumerate_exact", "verify_oracles"),
                    "oracles"),
}
#: the submodules resolved on first use
_LAZY_MODULES = frozenset({"oracles", "rng", "simulate"})


def __getattr__(name: str):
    if name in _LAZY_NAMES or name in _LAZY_MODULES:
        import importlib

        module = importlib.import_module("." + _LAZY_NAMES.get(name, name), __name__)
        return getattr(module, name) if name in _LAZY_NAMES else module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_NAMES) | _LAZY_MODULES)
