"""Relative convex sequences: classification, witnesses, extensions, and inequality bounds.

``import relconvex`` loads none of the submodules.  Each public name loads the
submodule that defines it on first use (PEP 562) and is then a plain attribute;
``from relconvex import *`` loads them all.
"""

from importlib import import_module as _import

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "errors": (
        "RelConvexError", "LengthError", "LengthMismatch", "WitnessNotIncreasing",
        "ShapeError", "SignError", "MonotoneError", "IntervalError", "OutOfDomain",
        "ZeroTotalWeight", "DegenerateWitness", "PreconditionViolation",
        "IndexOutOfRange", "NotStrictlyIncreasing", "InfeasibleShape", "NonFiniteArithmetic",
        "WitnessLostConvexity",
    ),
    "seqcore": (
        "Tolerance", "DEFAULT_TOL", "RealSeq", "Witness", "ShapeKind", "ShapeClass",
        "CheckReport", "forward_diff", "is_convex", "is_convex_wrt", "classify_shape",
        "is_relative_convex", "construct_witness", "construct_witness_on_interval",
    ),
    "polyext": ("PolygonalExtension", "build_extension", "floor_wrt", "frac_wrt", "sample"),
    "functionals": ("WeightVec", "weighted_mean", "cov_functional", "lupas_constant", "majorizes"),
    "inequalities": (
        "LupasReport", "BoundReport", "ConvexMap", "ConvexMapWarning", "spot_check_map",
        "lupas_check", "pecaric_check", "hhf_bounds", "niezgoda_bound",
        "convex_hhf_bounds", "majorization_inequality_check", "integer_majorization_check",
        "psi_identity", "psi_square", "make_relu", "parse_psi",
    ),
    "diagnostics": (
        "RateReport", "neighbor_chord_check", "increment_growth_check",
        "collinearity_determinant_check", "anchored_slope_check",
        "anchored_slope_check_all", "psi_preservation_check",
        "bounded_monotone_diagnostic", "rate_diagnostic",
    ),
    "oracles": ("Seeded", "gen_shape", "gen_relative_convex_pair", "gen_majorized_pair", "brute_reeval"),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    if name in _PUBLIC:
        return _import(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # stored, so that later reads do not come back here
    value = globals()[name] = getattr(_import(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_PUBLIC})
