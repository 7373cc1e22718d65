"""Bounds and uniform inference for diagnostic test performance measured
against an imperfect reference test."""

from .probability import (
    CellCounts,
    JointTR,
    RefPerf,
    SRegion,
    DerivedRY,
    ValidationReport,
    RefutationError,
    estimate_joint,
    validate_assumptions,
    derived_prevalence,
    derived_joint_ry,
    apparent_measures,
)
from .identification import (
    DependenceAssumption,
    Interval,
    IdentifiedSet,
    sharp_segment,
    sharp_union,
    frechet_comparator,
)
from .derived import (
    PretestRange,
    PrevalenceCurve,
    predictive_value_bounds,
    prevalence_width_curve,
)
from .moments import (
    ThetaPoint,
    MomentSystem,
    MomentStats,
    build_moment_system,
    param_space_box,
    moment_stats,
    variance_floor,
)
from .exactci import clopper_pearson
from .inference import (
    TestConfig,
    TestResult,
    ConfidenceSet,
    rsw2_test,
    confidence_set,
    coverage_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "CellCounts",
    "JointTR",
    "RefPerf",
    "SRegion",
    "DerivedRY",
    "ValidationReport",
    "RefutationError",
    "estimate_joint",
    "validate_assumptions",
    "derived_prevalence",
    "derived_joint_ry",
    "apparent_measures",
    "DependenceAssumption",
    "Interval",
    "IdentifiedSet",
    "sharp_segment",
    "sharp_union",
    "frechet_comparator",
    "PretestRange",
    "PrevalenceCurve",
    "predictive_value_bounds",
    "prevalence_width_curve",
    "ThetaPoint",
    "MomentSystem",
    "MomentStats",
    "build_moment_system",
    "param_space_box",
    "moment_stats",
    "variance_floor",
    "clopper_pearson",
    "TestConfig",
    "TestResult",
    "ConfidenceSet",
    "rsw2_test",
    "confidence_set",
    "coverage_simulation",
    "__version__",
]
