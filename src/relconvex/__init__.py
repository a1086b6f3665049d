"""Relative convex sequences: classification, witnesses, extensions, and inequality bounds."""

__version__ = "0.1.0"

from .errors import (
    DegenerateWitness,
    IndexOutOfRange,
    InfeasibleShape,
    IntervalError,
    LengthError,
    LengthMismatch,
    MonotoneError,
    NonFiniteArithmetic,
    NotStrictlyIncreasing,
    OutOfDomain,
    PreconditionViolation,
    RelConvexError,
    ShapeError,
    SignError,
    WitnessLostConvexity,
    WitnessNotIncreasing,
    ZeroTotalWeight,
)
from .seqcore import (
    DEFAULT_TOL,
    CheckReport,
    RealSeq,
    ShapeClass,
    ShapeKind,
    Tolerance,
    Witness,
    classify_shape,
    construct_witness,
    construct_witness_on_interval,
    forward_diff,
    is_convex,
    is_convex_wrt,
    is_relative_convex,
)
from .polyext import PolygonalExtension, build_extension, floor_wrt, frac_wrt, sample
from .functionals import WeightVec, cov_functional, lupas_constant, majorizes, weighted_mean
from .inequalities import (
    BoundReport,
    ConvexMap,
    ConvexMapWarning,
    LupasReport,
    convex_hhf_bounds,
    hhf_bounds,
    integer_majorization_check,
    lupas_check,
    majorization_inequality_check,
    make_relu,
    niezgoda_bound,
    parse_psi,
    pecaric_check,
    psi_identity,
    psi_square,
    spot_check_map,
)
from .diagnostics import (
    RateReport,
    anchored_slope_check,
    anchored_slope_check_all,
    bounded_monotone_diagnostic,
    collinearity_determinant_check,
    increment_growth_check,
    neighbor_chord_check,
    psi_preservation_check,
    rate_diagnostic,
)
from .oracles import Seeded, brute_reeval, gen_majorized_pair, gen_relative_convex_pair, gen_shape

__all__ = [
    "__version__",
    # errors
    "RelConvexError", "LengthError", "LengthMismatch", "WitnessNotIncreasing",
    "ShapeError", "SignError", "MonotoneError", "IntervalError", "OutOfDomain",
    "ZeroTotalWeight", "DegenerateWitness", "PreconditionViolation",
    "IndexOutOfRange", "NotStrictlyIncreasing", "InfeasibleShape", "NonFiniteArithmetic",
    "WitnessLostConvexity",
    # seqcore
    "Tolerance", "DEFAULT_TOL", "RealSeq", "Witness", "ShapeKind", "ShapeClass",
    "CheckReport", "forward_diff", "is_convex", "is_convex_wrt", "classify_shape",
    "is_relative_convex", "construct_witness", "construct_witness_on_interval",
    # polyext
    "PolygonalExtension", "build_extension", "floor_wrt", "frac_wrt", "sample",
    # functionals
    "WeightVec", "weighted_mean", "cov_functional", "lupas_constant", "majorizes",
    # inequalities
    "LupasReport", "BoundReport", "ConvexMap", "ConvexMapWarning", "spot_check_map",
    "lupas_check", "pecaric_check", "hhf_bounds", "niezgoda_bound",
    "convex_hhf_bounds", "majorization_inequality_check", "integer_majorization_check",
    "psi_identity", "psi_square", "make_relu", "parse_psi",
    # diagnostics
    "RateReport", "neighbor_chord_check", "increment_growth_check",
    "collinearity_determinant_check", "anchored_slope_check",
    "anchored_slope_check_all", "psi_preservation_check",
    "bounded_monotone_diagnostic", "rate_diagnostic",
    # oracles
    "Seeded", "gen_shape", "gen_relative_convex_pair", "gen_majorized_pair",
    "brute_reeval",
]
