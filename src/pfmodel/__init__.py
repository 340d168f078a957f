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
from .simulate import (
    DEFAULT_Z_THRESHOLD,
    DeviationReport,
    SimConfig,
    SimOutcome,
    SweepResult,
    TaxonomySimOutcome,
    compare,
    enumerate_exact,
    imbalance_sweep,
    simulate_pipeline,
    simulate_taxonomy,
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
