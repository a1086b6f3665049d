"""Compute-and-verify engines for the discrete inequalities.

Each engine evaluates both sides of its inequality, reports the slack, and
verifies the documented preconditions up front (pass ``skip_verify=True``
to probe converse directions); the engines at t = 1..n leave that to the
witnessed engine they call.  Verdicts use one-sided tolerance: a bound
"holds" when its slack is at least ``-tol.allowed(sides)``, judged by
:func:`relconvex.seqcore.scan_margin` at the scale of the compared sides.
Sides that overflow to inf or NaN raise
:class:`relconvex.errors.NonFiniteArithmetic` instead of giving a verdict.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from bisect import bisect_right
from itertools import groupby
from typing import Callable, NamedTuple, Sequence

from .errors import DegenerateWitness, PreconditionViolation
from .functionals import (
    WeightLike, WeightVec, _cov, _fsum, _mean, _require_spread, majorizes, unit_weights,
)
from .polyext import _value_at
from .seqcore import (
    DEFAULT_TOL,
    CheckReport,
    RealSeq,
    SeqLike,
    Tolerance,
    Witness,
    WitnessLike,
    _Floats,
    _index,
    _ordered,
    _reals,
    _remembered,
    _same_length,
    is_convex_wrt,
    paired,
    scan_margin,
    unit_witness,
)

#: A non-decreasing convex map.  The builtin maps below are proven so on the
#: interval they declare (see :func:`_proven_interval`); any other callable is
#: spot-checked, never proven.
ConvexMap = Callable[[float], float]

_REALS = (-math.inf, math.inf)
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


class ConvexMapWarning(UserWarning):
    """The supplied map failed a monotone-convexity spot check."""


def _proven_interval(psi: ConvexMap) -> tuple[float, float] | None:
    """The interval on which a builtin map is non-decreasing and convex; None for any other map."""
    if psi is math.exp:
        return _REALS
    domain = getattr(psi, "_convex_on", None)
    # an object that answers every attribute name (a mock, a proxy) declares nothing
    return domain if type(domain) is tuple else None


def _outside_stacklevel() -> int:
    """The ``stacklevel`` that attributes a warning, issued by the caller of this
    function, to the first frame outside the package (the 3.10 floor has no
    ``skip_file_prefixes``)."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


def spot_check_map(psi: ConvexMap, values: SeqLike, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Check the map on the observed values and warn on contract violations.

    ``values`` may be any sequence of reals, or a validated vector (a
    :class:`RealSeq`, say): one is read as given, neither converted nor
    screened for finiteness again, and its smallest and largest value are
    those it remembers (:attr:`RealSeq.extremes`).  The result, the warnings
    and the calls of ψ are the same either way.

    For a builtin map whose declared interval holds every value (all
    finite), the contract is proven and the check is a range check: ψ is
    called at the smallest and largest value only, so that an overflow
    raises as the sampled check would, and True is returned.

    Any other map, or values outside the interval, is sampled by two loops
    over the sorted distinct values: monotonicity on adjacent pairs, then
    midpoint convexity on consecutive triples u < v < w.  ψ is called once
    per distinct value, then once per midpoint.  Each failed sample warns,
    attributed to the first caller outside the package, and False is
    returned.  The hypothesis remains the caller's responsibility; a failed
    spot check warns instead of raising.
    """
    validated = isinstance(values, _Floats)  # finite floats already
    pts = values.values if validated else _reals(values)
    domain = _proven_interval(psi)
    # a finite sum proves every value finite; an overflowing one falls back to the scan
    if domain is not None and pts and (validated or math.isfinite(sum(pts)) or all(map(math.isfinite, pts))):
        lo, hi = values.extremes if validated else (min(pts), max(pts))
        if domain[0] <= lo and hi <= domain[1]:
            # non-decreasing: the extreme values carry the largest |psi| the samples would
            tol.allowed((psi(lo), psi(hi)))
            return True
    # groupby keeps the first of equal values: 0.0 or -0.0, whichever came first
    pts = [v for v, _ in groupby(sorted(pts))]
    mapped = [float(psi(v)) for v in pts]
    allowed = tol.allowed(mapped)
    level = _outside_stacklevel()
    ok = True
    for k, (u, w) in enumerate(zip(pts, pts[1:])):
        if mapped[k] > mapped[k + 1] + allowed:
            warnings.warn(f"map not non-decreasing on [{u!r}, {w!r}]", ConvexMapWarning, stacklevel=level)
            ok = False
    mids = [psi((u + w) / 2.0) for u, w in zip(pts, pts[2:])]
    for k, (u, w) in enumerate(zip(pts, pts[2:])):
        if mids[k] > (mapped[k] + mapped[k + 2]) / 2.0 + allowed:
            warnings.warn(f"map not midpoint-convex on [{u!r}, {w!r}]", ConvexMapWarning, stacklevel=level)
            ok = False
    return ok


class LupasReport(NamedTuple):
    """Two sides of a covariance-product bound; holds when lhs >= rhs - tol."""

    lhs: float
    rhs: float
    holds: bool
    slack: float
    tolerance: Tolerance


class BoundReport(NamedTuple):
    """A (possibly one-sided) sandwich around a weighted value.

    ``lower`` and the interpolation coefficients are None for one-sided
    bounds.  ``m`` is the 1-based index of the segment carrying the lower
    bound.  Slacks are signed distances into the feasible side.
    """

    value: float
    upper: float
    holds: bool
    slack_upper: float
    lower: float | None = None
    slack_lower: float | None = None
    m: int | None = None
    gamma_t: float | None = None
    lambda_t: float | None = None
    tolerance: Tolerance = DEFAULT_TOL


def _require_convex_wrt(name: str, a: RealSeq, t: Witness, tol: Tolerance) -> None:
    rep = is_convex_wrt(a, t, tol)
    if not rep.holds:
        # at t = 1..n, however built, worded as is_convex reports it
        if t._unit:
            raise PreconditionViolation(
                f"{name} is not convex: interior index {rep.first_violation + 1} "
                f"sits above its neighbour midpoint (margin {rep.margin / 2!r})"
            )
        raise PreconditionViolation(
            f"{name} is not convex w.r.t. t: slope pair {rep.first_violation} "
            f"decreases (margin {rep.margin!r})"
        )


def _at_least(big: float, small: float, tol: Tolerance) -> tuple[float, int | None]:
    """``(big - small, first)``: a one-gap scan at the scale of the two sides.

    ``first`` is 1 when ``big`` falls short of ``small`` beyond tolerance, else None.
    """
    slack = big - small
    return slack, scan_margin([slack], tol, (big, small))[0]


def lupas_check(
    a: SeqLike,
    b: SeqLike,
    t: WitnessLike,
    p: WeightLike,
    tol: Tolerance = DEFAULT_TOL,
    skip_verify: bool = False,
) -> LupasReport:
    """Covariance bound for two sequences sharing a witness.

    Verifies S(a,b) >= S(a,t) S(b,t) / S(t,t) in the weighted functionals
    of :func:`relconvex.functionals.cov_functional`, each mean taken once;
    equality is attained when either sequence is affine in t.  The means
    and sums are remembered on p, as there.
    """
    seq_a, seq_b = RealSeq.of(a, "a"), RealSeq.of(b, "b")
    wit, pv = Witness.of(t, tol, "t"), WeightVec.of(p, "p")
    _same_length("a b t p", seq_a, seq_b, wit, pv)
    if not skip_verify:
        _require_convex_wrt("a", seq_a, wit, tol)
        _require_convex_wrt("b", seq_b, wit, tol)
    ma, mb, mt = (_mean(v, pv) for v in (seq_a, seq_b, wit))
    stt = _cov(wit, mt, wit, mt, pv)
    _require_spread(stt, wit, tol,
                    "S(t,t) is not positive: need positive weight on at least two indices")
    lhs = _cov(seq_a, ma, seq_b, mb, pv)
    rhs = _cov(seq_a, ma, wit, mt, pv) * _cov(seq_b, mb, wit, mt, pv) / stt
    slack, first = _at_least(lhs, rhs, tol)
    return LupasReport(lhs, rhs, first is None, slack, tol)


def pecaric_check(
    a: SeqLike,
    b: SeqLike,
    tol: Tolerance = DEFAULT_TOL,
    skip_verify: bool = False,
) -> LupasReport:
    """Raw-sum covariance bound for two convex sequences against indices 1..n.

    Both sides are n times those of :func:`lupas_check` at the unit witness
    t = (1..n) with uniform weights, both cached per n (raw sums here, means
    there).  Equality when either sequence is arithmetic.
    """
    seq_a, seq_b = RealSeq.of(a, "a"), RealSeq.of(b, "b")
    _same_length("a b", seq_a, seq_b)
    n = len(seq_a)
    rep = lupas_check(seq_a, seq_b, unit_witness(n), unit_weights(n), tol, skip_verify)
    lhs, rhs = n * rep.lhs, n * rep.rhs
    slack, first = _at_least(lhs, rhs, tol)
    return LupasReport(lhs, rhs, first is None, slack, tol)


def hhf_bounds(
    a: SeqLike,
    t: WitnessLike,
    p: WeightLike,
    psi: ConvexMap,
    tol: Tolerance = DEFAULT_TOL,
    skip_verify: bool = False,
) -> BoundReport:
    """Hermite-Hadamard-Fejér sandwich for a witnessed sequence.

    With M the weighted mean of the witness and m its generalized floor
    (clamped to n-1 so the bracketing segment exists), the normalized value
    sum(p_i psi(a_i)) / P is squeezed between the segment interpolation at M
    and the endpoint interpolation:

        gamma psi(a_{m+1}) + (1-gamma) psi(a_m)  <=  value
        value  <=  lambda psi(a_1) + (1-lambda) psi(a_n)

    The value is remembered on p per (sequence, map) for a builtin map only
    (pure, and declaring its interval); any other callable is called anew.
    M, m, gamma and lambda are measured from t_1 (M - t_1 is
    sum(p_i (t_i - t_1)) / P, remembered on p), so an exact translation of t
    keeps every difference and the report bit for bit.  A witness whose span
    overflows is first replaced by its copy scaled by a power of two (exact
    barring underflow), which keeps that span and sum finite.
    """
    seq, wit, pv = RealSeq.of(a, "a"), Witness.of(t, tol, "t"), WeightVec.of(p, "p")
    _same_length("a t p", seq, wit, pv)
    if not skip_verify:
        _require_convex_wrt("a", seq, wit, tol)
        spot_check_map(psi, seq, tol)
    if wit[-1] - wit[0] <= tol.abs:
        raise DegenerateWitness("witness endpoints coincide")

    def psi_sum() -> float:
        return _fsum([w * psi(x) for w, x in zip(pv, seq)]) / pv.total

    pure = _proven_interval(psi) is not None  # a builtin map; any other callable is called anew
    value = _remembered(pv, "_moments", "psi", psi_sum, seq, psi) if pure else psi_sum()
    if not math.isfinite(wit[-1] - wit[0]):
        # |t_n - t_1| < 2**1025 and P < 2**e, so in t times 2**-(2 + e) the span and
        # sum(p_i (t_i - t_1)) <= P * span stay below the largest float
        scale = math.ldexp(1.0, -2 - max(math.frexp(pv.total)[1], 0))
        wit = _Floats([x * scale for x in wit])
    tv = wit.values
    dm = _mean(wit, pv, tv[0])  # M - t_1
    m = min(max(bisect_right(tv, dm, key=lambda x: x - tv[0]), 1), len(seq) - 1)
    # over the gap itself, positive even where the differences from t_1 absorb it
    gamma = min(max((dm - (tv[m - 1] - tv[0])) / (tv[m] - tv[m - 1]), 0.0), 1.0)
    lam = min(max((tv[-1] - tv[0] - dm) / (tv[-1] - tv[0]), 0.0), 1.0)
    lower = gamma * psi(seq[m]) + (1.0 - gamma) * psi(seq[m - 1])
    upper = lam * psi(seq[0]) + (1.0 - lam) * psi(seq[-1])
    return _sandwich(lower, value, upper, tol, m=m, gamma_t=gamma, lambda_t=lam)


def _sandwich(lower: float, value: float, upper: float, tol: Tolerance, **fields) -> BoundReport:
    """Two-sided verdict: both slacks judged at the scale of the three quantities."""
    slack_lower = value - lower
    slack_upper = upper - value
    first, _ = scan_margin([slack_lower, slack_upper], tol, (value, lower, upper))
    return BoundReport(value=value, upper=upper, holds=first is None, slack_upper=slack_upper,
                       lower=lower, slack_lower=slack_lower, tolerance=tol, **fields)


def _unit_hhf(a: SeqLike, p: WeightLike, psi: ConvexMap, tol: Tolerance,
              skip_verify: bool) -> tuple[float, BoundReport]:
    """(P_n, :func:`hhf_bounds` at t = (1..n)) for a sequence that must be convex."""
    seq, pv = RealSeq.of(a, "a"), WeightVec.of(p, "p")
    _same_length("a p", seq, pv)
    return pv.total, hhf_bounds(seq, unit_witness(len(seq)), pv, psi, tol, skip_verify)


def niezgoda_bound(
    a: SeqLike,
    p: WeightLike,
    psi: ConvexMap,
    tol: Tolerance = DEFAULT_TOL,
    skip_verify: bool = False,
) -> BoundReport:
    """One-sided endpoint bound for a convex sequence, arbitrary weights.

    Raw sums (no normalization):

        sum p_i psi(a_i)  <=  sum((n-i)/(n-1) p_i) psi(a_1)
                              + sum((i-1)/(n-1) p_i) psi(a_n)

    Both sides are P_n times the value and upper bound of :func:`hhf_bounds`
    at t = (1..n); only the upper side is judged.
    """
    total, rep = _unit_hhf(a, p, psi, tol, skip_verify)
    value = total * rep.value
    upper = total * rep.upper
    slack_upper, first = _at_least(upper, value, tol)
    return BoundReport(value=value, upper=upper, holds=first is None, slack_upper=slack_upper, tolerance=tol)


def convex_hhf_bounds(
    a: SeqLike,
    p: WeightLike,
    psi: ConvexMap,
    tol: Tolerance = DEFAULT_TOL,
    skip_verify: bool = False,
) -> BoundReport:
    """Two-sided endpoint/segment sandwich for a convex sequence, raw sums.

    With m the ordinary floor of the weighted mean index (clamped to n-1)
    and Phi(u, v) the two-point interpolation functional

        Phi(u, v) = sum((i-u)/(v-u) p_i) psi(a_v) + sum((v-i)/(v-u) p_i) psi(a_u),

    the weighted sum lies between Phi(m, m+1) and Phi(1, n).  These are P_n
    times the lower and upper bounds of :func:`hhf_bounds` at t = (1..n).
    """
    total, rep = _unit_hhf(a, p, psi, tol, skip_verify)
    return _sandwich(total * rep.lower, total * rep.value, total * rep.upper, tol, m=rep.m)


def majorization_inequality_check(
    a: SeqLike,
    t: WitnessLike,
    pvec: Sequence[float],
    qvec: Sequence[float],
    tol: Tolerance = DEFAULT_TOL,
    skip_verify: bool = False,
) -> CheckReport:
    """Majorization inequality for a witnessed sequence.

    For pvec majorized by qvec inside [t_1, t_n], the compared sides are the
    polygonal extension sums: sum ext(p_i) <= sum ext(q_i), and ``margin``
    is RHS - LHS.  As ext(x) = a_floor(x) + frac(x) slope_floor(x), this is

        sum(a_floor(p) - a_floor(q))
            <= sum(frac(q) slope_floor(q) - frac(p) slope_floor(p)).

    Each point costs a binary search and the one slope of its segment, as in
    :meth:`PolygonalExtension.eval`; the n slopes of the extension are not built.

    ``skip_verify`` disables the convexity precondition only; the
    majorization relation between pvec and qvec is always enforced.
    """
    seq, wit = paired(a, t, tol)
    pv, qv = _reals(pvec, "pvec"), _reals(qvec, "qvec")
    _same_length("pvec qvec", pv, qv)
    lo, hi = wit[0], wit[-1]
    for name, vec in (("pvec", pv), ("qvec", qv)):
        for k, x in enumerate(vec):
            # chained, so that a NaN fails it the way an infinity does
            if not lo - tol.abs <= x <= hi + tol.abs:
                raise PreconditionViolation(
                    f"{name}[{k + 1}] = {x!r} lies outside the witness range [{lo!r}, {hi!r}]"
                )
    if not majorizes(pv, qv, tol):
        raise PreconditionViolation("pvec is not majorized by qvec")
    if not skip_verify:
        _require_convex_wrt("a", seq, wit, tol)
    lhs, rhs = (_fsum(_value_at(wit.values, seq.values, x, tol) for x in v) for v in (pv, qv))
    margin, first = _at_least(rhs, lhs, tol)
    return CheckReport(first is None, first, margin, tol)


def integer_majorization_check(
    a: SeqLike,
    pidx: Sequence[int],
    qidx: Sequence[int],
    tol: Tolerance = DEFAULT_TOL,
    skip_verify: bool = False,
) -> CheckReport:
    """Index-form majorization inequality for a convex sequence.

    For 1-based index vectors with pidx majorized by qidx,
    sum a[pidx] <= sum a[qidx].  The smallest instance, (2,2) vs (1,3),
    is the defining convexity inequality 2 a_2 <= a_1 + a_3.  An index is read as
    the anchor of ``anchored_slope_check`` is (2, 2.0 and "2" alike; ``seqcore._index``).
    Computed as :func:`majorization_inequality_check` at t = (1..n), which
    verifies the preconditions and whose extension is a_i at i exactly.
    """
    return _at_indices(a, pidx, qidx, tol, skip_verify, "pidx qidx")


def _at_indices(a, pidx, qidx, tol: Tolerance, skip_verify: bool, names: str) -> CheckReport:
    """:func:`integer_majorization_check`, its index and length errors naming the index vectors
    by the words of ``names``: the CLI reads them from its input as ``pvec`` and ``qvec``."""
    seq = RealSeq.of(a, "a")
    n = len(seq)
    pi, qi = ([_index(i, n, name, k) for k, i in enumerate(_ordered(vec, name), 1)]
              for name, vec in zip(names.split(), (pidx, qidx)))
    _same_length(names, pi, qi)
    return majorization_inequality_check(seq, unit_witness(n), pi, qi, tol, skip_verify=skip_verify)


# Builtin maps for the CLI and the test suites; library callers can pass any
# re-entrant callable.  Each declares, as ``_convex_on``, the interval where it
# is non-decreasing and convex (``exp``, a C function, is listed in :func:`_proven_interval`).
def psi_identity(x: float) -> float:
    return x


def make_relu(c: float) -> ConvexMap:
    """x -> max(x, c): non-decreasing and convex everywhere; an inf or NaN c is a ValueError."""
    if not math.isfinite(c):
        raise ValueError(f"relu threshold must be finite, got {c!r}")

    def relu(x: float) -> float:
        return x if x > c else c

    relu._convex_on = _REALS
    return relu


def psi_square(x: float) -> float:
    """x -> x^2: convex everywhere, non-decreasing only on x >= 0."""
    return x * x


psi_identity._convex_on = _REALS
psi_square._convex_on = (0.0, math.inf)


def parse_psi(name: str) -> ConvexMap:
    """Resolve a builtin map name, e.g. "identity", "exp", "relu@1.5", "square"."""
    base, _, param = name.partition("@")
    base = base.strip().lower()
    if base == "identity":
        return psi_identity
    if base == "exp":
        return math.exp
    if base == "square":
        return psi_square
    if base == "relu":
        return make_relu(float(param) if param else 0.0)
    raise ValueError(f"unknown map {name!r}; choose identity, exp, relu@c, or square")
