"""Non-probabilistic convex uncertainty models for correlated interval
variables: a multidimensional ellipsoid and five parallelepiped variants,
fitted from small samples, with assessment indices, uniform domain
sampling, unbiasedness verification, and reliability-index computation.
"""

from . import errors
from .correlation import (
    CorrelationMatrix,
    ModelVariant,
    RepairReport,
    ensure_positive_definite,
    fit_correlation_matrix,
)
from .dataio import read_intervals_csv, read_samples_csv, write_samples_csv
from .domain import (
    Interval,
    MarginalSpec,
    RegularizedSamples,
    SampleSet,
    deregularize,
    make_marginal_spec,
    regularize,
)
from .expr import LimitState, parse_limit_state
from .factorization import ShapeMatrix, core_shape_matrix, shape_matrix
from .models import (
    MEMBERSHIP_TOL,
    AssessmentReport,
    ConvexModel,
    Membership,
    build_model,
    contains,
    deserialize,
    fitness,
    from_delta,
    load_model,
    membership_values,
    project_2d,
    save_model,
    serialize,
    to_delta,
    volume_ratio,
)
from .reliability import (
    ReliabilityOptions,
    ReliabilityResult,
    StartRecord,
    reliability_index,
)
from .sampling import (
    VERDICT_BIASED,
    VERDICT_UNBIASED,
    CCCRecoveryReport,
    UnbiasednessReport,
    ccc_recovery_report,
    mc_volume,
    sample_uniform,
    verdict_tolerance,
    verify_unbiasedness,
)
from .svg import render_projection

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Interval",
    "MarginalSpec",
    "SampleSet",
    "RegularizedSamples",
    "make_marginal_spec",
    "regularize",
    "deregularize",
    "read_samples_csv",
    "write_samples_csv",
    "read_intervals_csv",
    "ModelVariant",
    "CorrelationMatrix",
    "RepairReport",
    "ensure_positive_definite",
    "fit_correlation_matrix",
    "ShapeMatrix",
    "core_shape_matrix",
    "shape_matrix",
    "ConvexModel",
    "Membership",
    "MEMBERSHIP_TOL",
    "AssessmentReport",
    "build_model",
    "membership_values",
    "contains",
    "volume_ratio",
    "fitness",
    "project_2d",
    "serialize",
    "deserialize",
    "save_model",
    "load_model",
    "UnbiasednessReport",
    "CCCRecoveryReport",
    "VERDICT_UNBIASED",
    "VERDICT_BIASED",
    "verdict_tolerance",
    "sample_uniform",
    "mc_volume",
    "verify_unbiasedness",
    "ccc_recovery_report",
    "LimitState",
    "parse_limit_state",
    "ReliabilityOptions",
    "ReliabilityResult",
    "StartRecord",
    "to_delta",
    "from_delta",
    "reliability_index",
    "render_projection",
    "__version__",
]
