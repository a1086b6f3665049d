"""Per-index characterization checks and finite-prefix decay diagnostics.

The first three checks are alternative characterizations of witnessed
convexity (neighbour chords, increment growth for increasing sequences,
collinearity determinants); they must agree with the slope test on every
input.  The remaining diagnostics probe finite-prefix consequences of the
boundedness results: they report data rather than asserting limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, count, starmap

from .errors import (
    IndexOutOfRange,
    NotStrictlyIncreasing,
    PreconditionViolation,
)
from .inequalities import ConvexMap, _require_convex_wrt, spot_check_map
from .seqcore import (
    DEFAULT_TOL,
    CheckReport,
    SeqLike,
    Tolerance,
    WitnessLike,
    forward_diff,
    is_convex_wrt,
    paired,
    scan_margin,
)


@dataclass(frozen=True)
class RateReport:
    """Decay data for a non-increasing witnessed prefix.

    ``terms[k-1]`` is k times the k-th slope; ``partial_sums`` accumulates
    k times the slope increments; ``max_tail`` is the largest |term| over
    the final quarter of the prefix.  Callers judge decay against their own
    threshold.
    """

    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    max_tail: float


def neighbor_chord_check(a: SeqLike, t: WitnessLike, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Each interior point must sit on or below the chord through its neighbours.

    The chord value at t_i weights the neighbours by the opposite gaps:
    (right_gap * a[i-1] + left_gap * a[i+1]) / (left_gap + right_gap).
    Agrees with :func:`relconvex.seqcore.is_convex_wrt` on every input;
    with an arithmetic witness this is the ordinary midpoint test.
    """
    seq, wit = paired(a, t, tol)
    av, tv = seq.values, wit.values

    def gap(i):
        left = tv[i] - tv[i - 1]
        right = tv[i + 1] - tv[i]
        return (right * av[i - 1] + left * av[i + 1]) / (left + right) - av[i]

    allowed = tol.allowed(av)
    first, margin = scan_margin(map(gap, range(1, len(av) - 1)), allowed, count(2))
    return CheckReport(first is None, first, margin, tol)


def increment_growth_check(a: SeqLike, t: WitnessLike, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Second-to-first difference ratios of a must dominate those of t.

    Only defined for strictly increasing a (the ratios divide by its
    increments).  Equivalent to the slope test on that domain.
    """
    seq, wit = paired(a, t, tol)
    da = forward_diff(seq)
    dt = forward_diff(wit.values)
    for k, d in enumerate(da):
        if not d > tol.abs:
            raise NotStrictlyIncreasing(
                f"a must be strictly increasing: step {k + 1} has gap {d!r}"
            )
    lhs = [(da[i + 1] - da[i]) / da[i] for i in range(len(da) - 1)]
    rhs = [(dt[i + 1] - dt[i]) / dt[i] for i in range(len(dt) - 1)]
    allowed = tol.allowed(lhs + rhs)
    first, margin = scan_margin((x - y for x, y in zip(lhs, rhs)), allowed)
    return CheckReport(first is None, first, margin, tol)


def collinearity_determinant_check(
    a: SeqLike,
    t: WitnessLike,
    tol: Tolerance = DEFAULT_TOL,
    all_triples: bool = False,
) -> CheckReport:
    """Orientation determinants of point triples on the graph must be non-negative.

    det(l, m, k) = (t_k - t_m) a_l - (t_k - t_l) a_m + (t_m - t_l) a_k for
    l < m < k; zero means collinear.  Consecutive triples (the default,
    O(n)) decide the same verdict as all C(n, 3) triples since the
    consecutive determinant factors into gap * gap * slope-increment.
    ``first_violation`` is the lexicographically first bad 1-based triple.
    The tolerance scale is the largest |term| over the scanned triples (at
    least 1: the floor is one more operand), so the verdict and the
    violation come from one threshold.
    """
    seq, wit = paired(a, t, tol)
    av, tv = seq.values, wit.values
    n = len(av)

    def terms(l, m, k):
        return (tv[k] - tv[m]) * av[l], (tv[k] - tv[l]) * av[m], (tv[m] - tv[l]) * av[k]

    def triples():
        return combinations(range(n), 3) if all_triples else ((i, i + 1, i + 2) for i in range(n - 2))

    if all_triples:
        # each term is largest at the widest witness span its position allows
        # (rounding is monotone, so these are the exact maxima of the scan)
        peaks = chain(
            ((tv[-1] - tv[l + 1]) * abs(av[l]) for l in range(n - 2)),
            ((tv[-1] - tv[0]) * abs(av[m]) for m in range(1, n - 1)),
            ((tv[k - 1] - tv[0]) * abs(av[k]) for k in range(2, n)),
        )
    else:
        peaks = map(abs, chain.from_iterable(starmap(terms, triples())))
    allowed = tol.allowed(chain(peaks, (1.0,)))
    dets = (p1 - p2 + p3 for p1, p2, p3 in starmap(terms, triples()))
    first, margin = scan_margin(dets, allowed, triples())
    if first is not None:
        first = tuple(i + 1 for i in first)
    return CheckReport(first is None, first, margin, tol)


def anchored_slope_check(
    a: SeqLike,
    t: WitnessLike,
    anchor: int,
    tol: Tolerance = DEFAULT_TOL,
) -> CheckReport:
    """Divided differences from a fixed 1-based anchor must be non-decreasing.

    ``first_violation`` is the 1-based index of the later point at which
    the divided-difference sequence first drops.
    """
    seq, wit = paired(a, t, tol)
    n = len(seq)
    if not 1 <= anchor < n:
        raise IndexOutOfRange(f"anchor {anchor} outside 1..{n - 1}")
    s0 = anchor - 1
    av, tv = seq.values, wit.values
    slopes = [(av[i] - av[s0]) / (tv[i] - tv[s0]) for i in range(s0 + 1, n)]
    allowed = tol.allowed(slopes)
    # label: 1-based index of the later point of each pair
    first, margin = scan_margin((y - x for x, y in zip(slopes, slopes[1:])), allowed, count(s0 + 3))
    return CheckReport(first is None, first, margin, tol)


def anchored_slope_check_all(a: SeqLike, t: WitnessLike, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Conjunction of :func:`anchored_slope_check` over every anchor."""
    seq, wit = paired(a, t, tol)
    reps = [anchored_slope_check(seq, wit, anchor, tol) for anchor in range(1, len(seq))]
    first = next((rep.first_violation for rep in reps if not rep.holds), None)
    return CheckReport(first is None, first, min(rep.margin for rep in reps), tol)


def psi_preservation_check(
    a: SeqLike,
    t: WitnessLike,
    psi: ConvexMap,
    tol: Tolerance = DEFAULT_TOL,
) -> CheckReport:
    """A non-decreasing convex map applied pointwise keeps the witness valid.

    Requires (a, t) witnessed to begin with; the verdict is the slope test
    on the mapped sequence against the same witness.
    """
    seq, wit = paired(a, t, tol)
    _require_convex_wrt("a", seq, wit, tol)
    spot_check_map(psi, seq.values, tol)
    mapped = tuple(float(psi(v)) for v in seq)
    return is_convex_wrt(mapped, wit, tol)


def bounded_monotone_diagnostic(
    a: SeqLike,
    t: WitnessLike,
    bound: float,
    alpha: float,
    tol: Tolerance = DEFAULT_TOL,
) -> CheckReport:
    """Finite-prefix dichotomy probe for bounded witnessed sequences.

    When the witness gaps stay at or above ``alpha`` (the finite surrogate
    for a divergent witness), a bounded witnessed sequence must be
    non-increasing over the prefix.  If the gap condition fails the
    dichotomy is uninformative here and the report comes back with
    ``applicable=False`` (a shrinking witness may converge instead).
    """
    seq, wit = paired(a, t, tol)
    _require_convex_wrt("a", seq, wit, tol)
    if max(seq.values) > bound + tol.abs:
        raise PreconditionViolation(
            f"max(a) = {max(seq.values)!r} exceeds the stated bound {bound!r}"
        )
    dt = forward_diff(wit.values)
    if any(g < alpha for g in dt):
        return CheckReport(False, None, math.nan, tol, applicable=False)
    da = forward_diff(seq)
    first, margin = scan_margin((-d for d in da), tol.allowed(da))
    return CheckReport(first is None, first, margin, tol)


def rate_diagnostic(
    a: SeqLike,
    t: WitnessLike,
    tol: Tolerance = DEFAULT_TOL,
    alpha: float | None = None,
) -> RateReport:
    """Decay data n * slope_n for a bounded non-increasing witnessed prefix.

    Preconditions: (a, t) witnessed and a non-increasing within tolerance;
    when ``alpha`` is given every witness gap must reach it.  Terms are
    non-positive under the preconditions; the partial sums accumulate
    n * (slope increments) and should be Cauchy-like on well-behaved input.
    """
    seq, wit = paired(a, t, tol)
    _require_convex_wrt("a", seq, wit, tol)
    da = forward_diff(seq)
    rise, _ = scan_margin((-d for d in da), tol.allowed(da))
    if rise is not None:
        raise PreconditionViolation(
            f"a must be non-increasing over the prefix: step {rise} rises by {da[rise - 1]!r}"
        )
    dt = forward_diff(wit.values)
    if alpha is not None:
        for k, g in enumerate(dt):
            if g < alpha:
                raise PreconditionViolation(
                    f"witness gap {k + 1} = {g!r} is below alpha = {alpha!r}"
                )
    ratios = [d / g for d, g in zip(da, dt)]
    terms = tuple(k * r for k, r in enumerate(ratios, start=1))
    increments = [
        k * (ratios[k] - ratios[k - 1]) for k in range(1, len(ratios))
    ]
    partial = []
    acc = 0.0
    for v in increments:
        acc += v
        partial.append(acc)
    tail = max(1, math.ceil(len(terms) / 4))
    max_tail = max(abs(v) for v in terms[-tail:])
    return RateReport(terms, tuple(partial), max_tail)
