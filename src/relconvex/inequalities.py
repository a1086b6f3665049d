"""Compute-and-verify engines for the discrete inequalities.

Each engine evaluates both sides of its inequality, reports the slack, and
verifies the documented preconditions up front (pass ``skip_verify=True``
to probe converse directions).  Verdicts use one-sided tolerance: a bound
"holds" when its slack is at least ``-tol.allowed(sides)``, judged by
:func:`relconvex.seqcore.scan_margin` at the scale of the compared sides.
Sides that overflow to inf or NaN raise
:class:`relconvex.errors.NonFiniteArithmetic` instead of giving a verdict.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    DegenerateWitness,
    IndexOutOfRange,
    LengthMismatch,
    PreconditionViolation,
)
from .functionals import (
    WeightLike, WeightVec, _fsum, _require_spread, cov_functional, majorizes, weighted_mean,
)
from .polyext import floor_wrt
from .seqcore import (
    DEFAULT_TOL,
    CheckReport,
    RealSeq,
    SeqLike,
    Tolerance,
    Witness,
    WitnessLike,
    is_convex,
    is_convex_wrt,
    paired,
    scan_margin,
    unit_witness,
)

#: A caller-supplied non-decreasing convex map; spot-checked, never proven.
ConvexMap = Callable[[float], float]


class ConvexMapWarning(UserWarning):
    """The supplied map failed a monotone-convexity spot check."""


def spot_check_map(psi: ConvexMap, values: Sequence[float], tol: Tolerance = DEFAULT_TOL) -> bool:
    """Sample the map on the observed values and warn on contract violations.

    Checks midpoint convexity on consecutive value triples u < v < w and
    monotonicity on adjacent pairs.  Returns True when every sample passed.
    The hypothesis remains the caller's responsibility; a failed spot check
    warns instead of raising.
    """
    pts = sorted({float(v) for v in values})
    mapped = {v: float(psi(v)) for v in pts}
    allowed = tol.allowed(mapped.values())
    ok = True
    for u, w in zip(pts, pts[1:]):
        if mapped[u] > mapped[w] + allowed:
            warnings.warn(
                f"map not non-decreasing on [{u!r}, {w!r}]", ConvexMapWarning, stacklevel=2
            )
            ok = False
    for u, w in zip(pts, pts[2:]):
        if psi((u + w) / 2.0) > (mapped[u] + mapped[w]) / 2.0 + allowed:
            warnings.warn(
                f"map not midpoint-convex on [{u!r}, {w!r}]", ConvexMapWarning, stacklevel=2
            )
            ok = False
    return ok


@dataclass(frozen=True)
class LupasReport:
    """Two sides of a covariance-product bound; holds when lhs >= rhs - tol."""

    lhs: float
    rhs: float
    holds: bool
    slack: float
    tolerance: Tolerance


@dataclass(frozen=True)
class BoundReport:
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


def _require_convex_wrt(name: str, a: SeqLike, t: WitnessLike, tol: Tolerance) -> None:
    rep = is_convex_wrt(a, t, tol)
    if not rep.holds:
        raise PreconditionViolation(
            f"{name} is not convex w.r.t. t: slope pair {rep.first_violation} "
            f"decreases (margin {rep.margin!r})"
        )


def _require_convex(name: str, a: SeqLike, tol: Tolerance) -> None:
    rep = is_convex(a, tol)
    if not rep.holds:
        raise PreconditionViolation(
            f"{name} is not convex: interior index {rep.first_violation} "
            f"sits above its neighbour midpoint (margin {rep.margin!r})"
        )


def _at_least(big: float, small: float, tol: Tolerance) -> tuple[float, int | None]:
    """``(big - small, first)``: a one-gap scan at the scale of the two sides.

    ``first`` is 1 when ``big`` falls short of ``small`` beyond tolerance, else None.
    """
    slack = big - small
    return slack, scan_margin((slack,), tol.allowed((big, small)))[0]


def lupas_check(
    a: SeqLike,
    b: SeqLike,
    t: WitnessLike,
    p: WeightLike,
    tol: Tolerance = DEFAULT_TOL,
    skip_verify: bool = False,
) -> LupasReport:
    """Covariance bound for two sequences sharing a witness.

    Verifies S(a,b) >= S(a,t) S(b,t) / S(t,t) in the weighted functionals;
    equality is attained when either sequence is affine in t.
    """
    seq_a = RealSeq.of(a)
    seq_b = RealSeq.of(b)
    wit = Witness.of(t, tol)
    pv = WeightVec.of(p)
    if not len(seq_a) == len(seq_b) == len(wit) == len(pv):
        raise LengthMismatch(
            f"|a| = {len(seq_a)}, |b| = {len(seq_b)}, |t| = {len(wit)}, |p| = {len(pv)}"
        )
    if not skip_verify:
        _require_convex_wrt("a", seq_a, wit, tol)
        _require_convex_wrt("b", seq_b, wit, tol)
    stt = cov_functional(wit, wit, pv)
    _require_spread(stt, wit, tol,
                    "S(t,t) is not positive: need positive weight on at least two indices")
    lhs = cov_functional(seq_a, seq_b, pv)
    rhs = cov_functional(seq_a, wit, pv) * cov_functional(seq_b, wit, pv) / stt
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
    t = (1..n) with uniform weights (raw sums here, means there).  Equality
    when either sequence is arithmetic.
    """
    seq_a = RealSeq.of(a)
    seq_b = RealSeq.of(b)
    if len(seq_a) != len(seq_b):
        raise LengthMismatch(f"|a| = {len(seq_a)} but |b| = {len(seq_b)}")
    if not skip_verify:
        _require_convex("a", seq_a, tol)
        _require_convex("b", seq_b, tol)
    n = len(seq_a)
    rep = lupas_check(seq_a, seq_b, unit_witness(n), [1.0] * n, tol, skip_verify=True)
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
    """
    seq = RealSeq.of(a)
    wit = Witness.of(t, tol)
    pv = WeightVec.of(p)
    if not len(seq) == len(wit) == len(pv):
        raise LengthMismatch(f"|a| = {len(seq)}, |t| = {len(wit)}, |p| = {len(pv)}")
    if not skip_verify:
        _require_convex_wrt("a", seq, wit, tol)
        spot_check_map(psi, seq.values, tol)
    n = len(seq)
    if wit[-1] - wit[0] <= tol.abs:
        raise DegenerateWitness("witness endpoints coincide")
    total = pv.total
    value = _fsum([w * psi(x) for w, x in zip(pv, seq)]) / total
    mt = weighted_mean(wit.values, pv)
    m = min(floor_wrt(wit, mt, tol), n - 1)
    gamma = (mt - wit[m - 1]) / (wit[m] - wit[m - 1])
    gamma = min(max(gamma, 0.0), 1.0)
    lam = (wit[-1] - mt) / (wit[-1] - wit[0])
    lam = min(max(lam, 0.0), 1.0)
    lower = gamma * psi(seq[m]) + (1.0 - gamma) * psi(seq[m - 1])
    upper = lam * psi(seq[0]) + (1.0 - lam) * psi(seq[-1])
    return _sandwich(lower, value, upper, tol, m=m, gamma_t=gamma, lambda_t=lam)


def _sandwich(lower: float, value: float, upper: float, tol: Tolerance, **fields) -> BoundReport:
    """Two-sided verdict: both slacks judged at the scale of the three quantities."""
    slack_lower = value - lower
    slack_upper = upper - value
    first, _ = scan_margin((slack_lower, slack_upper), tol.allowed((value, lower, upper)))
    return BoundReport(value=value, upper=upper, holds=first is None, slack_upper=slack_upper,
                       lower=lower, slack_lower=slack_lower, tolerance=tol, **fields)


def _unit_hhf(
    a: SeqLike, p: WeightLike, psi: ConvexMap, tol: Tolerance, skip_verify: bool
) -> tuple[float, BoundReport]:
    """(P_n, :func:`hhf_bounds` at t = (1..n)) for a sequence that must be convex."""
    seq = RealSeq.of(a)
    pv = WeightVec.of(p)
    if len(seq) != len(pv):
        raise LengthMismatch(f"|a| = {len(seq)} but |p| = {len(pv)}")
    if not skip_verify:
        _require_convex("a", seq, tol)
        spot_check_map(psi, seq.values, tol)
    return pv.total, hhf_bounds(seq, unit_witness(len(seq)), pv, psi, tol, skip_verify=True)


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


def _floor_pieces(
    seq: RealSeq, wit: Witness, points: Sequence[float], tol: Tolerance
) -> tuple[float, float]:
    """Split sum of extension values into (floor-ordinate sum, frac-term sum)."""
    n = len(seq)
    floor_sum = 0.0
    frac_sum = 0.0
    for x in points:
        m = floor_wrt(wit, x, tol)
        floor_sum += seq[m - 1]
        if m < n:
            frac = x - wit[m - 1]
            frac_sum += frac * (seq[m] - seq[m - 1]) / (wit[m] - wit[m - 1])
    return floor_sum, frac_sum


def majorization_inequality_check(
    a: SeqLike,
    t: WitnessLike,
    pvec: Sequence[float],
    qvec: Sequence[float],
    tol: Tolerance = DEFAULT_TOL,
    skip_verify: bool = False,
) -> CheckReport:
    """Majorization inequality for a witnessed sequence.

    For pvec majorized by qvec inside [t_1, t_n], floor/frac expansion gives

        sum(a_floor(p) - a_floor(q))
            <= sum(frac(q) slope_floor(q) - frac(p) slope_floor(p)),

    equivalently: the polygonal extension sums satisfy
    sum ext(p_i) <= sum ext(q_i).  ``margin`` is RHS - LHS.

    ``skip_verify`` disables the convexity precondition only; the
    majorization relation between pvec and qvec is always enforced.
    """
    seq, wit = paired(a, t, tol)
    pv = tuple(float(v) for v in pvec)
    qv = tuple(float(v) for v in qvec)
    if len(pv) != len(qv):
        raise LengthMismatch(f"|pvec| = {len(pv)} but |qvec| = {len(qv)}")
    lo, hi = wit[0], wit[-1]
    for name, vec in (("pvec", pv), ("qvec", qv)):
        for k, x in enumerate(vec):
            if x < lo - tol.abs or x > hi + tol.abs:
                raise PreconditionViolation(
                    f"{name}[{k + 1}] = {x!r} lies outside the witness range [{lo!r}, {hi!r}]"
                )
    if not majorizes(pv, qv, tol):
        raise PreconditionViolation("pvec is not majorized by qvec")
    if not skip_verify:
        _require_convex_wrt("a", seq, wit, tol)
    p_floor, p_frac = _floor_pieces(seq, wit, pv, tol)
    q_floor, q_frac = _floor_pieces(seq, wit, qv, tol)
    lhs = p_floor - q_floor
    rhs = q_frac - p_frac
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
    is the defining convexity inequality 2 a_2 <= a_1 + a_3.  Indices may be
    integral floats such as 2.0; any other value raises IndexOutOfRange.
    """
    seq = RealSeq.of(a)
    n = len(seq)
    pi, qi = tuple(pidx), tuple(qidx)
    for name, vec in (("pidx", pi), ("qidx", qi)):
        for k, i in enumerate(vec):
            if not (float(i).is_integer() and 1 <= i <= n):
                raise IndexOutOfRange(f"{name}[{k + 1}] = {i!r} is not an integer index in 1..{n}")
    if len(pi) != len(qi):
        raise LengthMismatch(f"|pidx| = {len(pi)} but |qidx| = {len(qi)}")
    if not majorizes(pi, qi, tol):
        raise PreconditionViolation("pidx is not majorized by qidx")
    if not skip_verify:
        _require_convex("a", seq, tol)
    lhs = _fsum(seq[int(i) - 1] for i in pi)
    rhs = _fsum(seq[int(i) - 1] for i in qi)
    margin, first = _at_least(rhs, lhs, tol)
    return CheckReport(first is None, first, margin, tol)


# Builtin maps for the CLI and the test suites; library callers can pass any
# re-entrant callable.
def psi_identity(x: float) -> float:
    return x


def make_relu(c: float) -> ConvexMap:
    """x -> max(x, c): non-decreasing and convex everywhere."""

    def relu(x: float) -> float:
        return x if x > c else c

    return relu


def psi_square(x: float) -> float:
    """x -> x^2: convex everywhere, non-decreasing only on x >= 0."""
    return x * x


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
