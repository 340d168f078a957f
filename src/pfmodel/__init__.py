"""pfmodel: probabilistic modeling of progressive-filtering classifier cascades.

Predicts the joint outcome matrix of any pipeline extracted from a category
taxonomy, factorizes it into input-distribution and intrinsic-classifier
parts, derives taxonomic metrics, and verifies every prediction against
exact-enumeration and Monte-Carlo oracles.
"""

from .errors import (
    CycleDetectedError,
    DegenerateBoundError,
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
    UnknownInstanceError,
    UnreachableCategoryError,
)
from .io import (
    InputBundle,
    Report,
    build_report,
    parse_inputs,
    parse_profiles,
    parse_taxonomy,
    serialize_profiles,
    serialize_taxonomy,
    write_report,
)
from .metrics import (
    DEFAULT_Z_THRESHOLD,
    ConstraintCheck,
    DepthProfile,
    MetricReport,
    StepCheck,
    Verdict,
    depth_profile,
    pipeline_metrics,
    precision_constraint_check,
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
    expected_confusion,
    factorize,
    homomorphism_map,
    omega_closed,
    omega_recursive,
    omega_step,
    oplus,
    psi,
)
from .taxonomy import (
    Edge,
    InstanceLabeling,
    Pipeline,
    Taxonomy,
    category_domain,
    check_label_consistency,
    covering_char,
    enumerate_pipelines,
    find_pipeline,
    pipeline_leq,
    relative_sets,
    relevance,
    validate_taxonomy,
    wfs_char,
)

__version__ = "0.1.0"

# The simulator needs numpy; resolving its names on first use keeps numpy
# out of the commands that never simulate (``pipelines``, ``analyze``).
_SIMULATE_NAMES = frozenset({
    "DeviationReport",
    "SimConfig",
    "SimOutcome",
    "SweepResult",
    "TaxonomySimOutcome",
    "compare",
    "enumerate_exact",
    "imbalance_sweep",
    "simulate_pipeline",
    "simulate_taxonomy",
})
#: the submodules that import numpy; loading ``simulate`` binds both
_NUMPY_MODULES = frozenset({"rng", "simulate"})


def __getattr__(name: str):
    if name in _SIMULATE_NAMES or name in _NUMPY_MODULES:
        import importlib

        simulate = importlib.import_module(".simulate", __name__)
        return getattr(simulate, name) if name in _SIMULATE_NAMES else globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SIMULATE_NAMES | _NUMPY_MODULES)
