"""Per-index characterization checks and finite-prefix decay diagnostics.

The first three checks are alternative characterizations of witnessed
convexity (neighbour chords, increment growth for increasing sequences,
collinearity determinants), as is the anchored scan; they must agree with
the slope test outside the tolerance band.  Inside it they may not: on
a = [0, 7.5e-10, 0], t = [0, 1, 2] the slope test is violated (margin
-1.5e-9 against ``tol.abs`` = 1e-9) while the chord and anchored checks hold
(margin -7.5e-10), and ``relconvex diagnose`` prints ``"agree": false``.
The remaining diagnostics probe finite-prefix consequences of the
boundedness results: they report data rather than asserting limits.

The two super-linear scans, :func:`anchored_slope_check_all` (O(n^2)) and
:func:`collinearity_determinant_check` with ``all_triples`` (O(n^3)), compute
their rows with numpy when it pays, and with stdlib loops otherwise: from
2**14 gaps when numpy is already imported, and from 2**19 gaps when the scan
would import it first (about 0.1 s), so a scan of fewer than 2**14 gaps
never loads numpy and a scan without numpy runs its loops at any size.
Measured on 2 shared vCPUs, numpy rows overtake the loops at about 4e3 gaps
(anchored, n ~ 90) and 4e2 (all triples, n ~ 14), and pay for numpy's import
from about 5e5 gaps (anchored, n ~ 1,000) and 3e5 (all triples, n ~ 120).
Each numpy row takes the IEEE operations of its loop in the same order, and
every row that does not plainly hold is judged by ``scan_margin``, so the
reports and errors are the same on either path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, count, repeat
from operator import mul, truediv

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
    ShapeKind,
    Tolerance,
    WitnessLike,
    _steps,
    classify_shape,
    forward_diff,
    is_convex_wrt,
    paired,
    scan_margin,
)

#: Judges a gap against zero itself: no slack at any scale.
_EXACT = Tolerance(abs=0.0, rel=0.0)

#: Gap counts from which the two super-linear scans take their rows from
#: numpy: when it is already imported, and when the scan would import it.
_NUMPY_LOADED_CUTOFF = 2**14
_NUMPY_IMPORT_CUTOFF = 2**19


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
    Agrees with :func:`relconvex.seqcore.is_convex_wrt` outside the tolerance
    band; with an arithmetic witness this is the ordinary midpoint test.
    """
    seq, wit = paired(a, t, tol)
    av, tv = seq.values, wit.values

    def gap(i):
        left = tv[i] - tv[i - 1]
        right = tv[i + 1] - tv[i]
        return (right * av[i - 1] + left * av[i + 1]) / (left + right) - av[i]

    first, margin = scan_margin(list(map(gap, range(1, len(av) - 1))), tol, av, count(2))
    return CheckReport(first is None, first, margin, tol)


def increment_growth_check(a: SeqLike, t: WitnessLike, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Second-to-first difference ratios of a must dominate those of t.

    Defined for a that :func:`relconvex.seqcore.classify_shape` calls
    ``strictly_increasing``; any other profile raises NotStrictlyIncreasing
    naming it (its ``breakpoints`` locate the minimal block).  Ratio gap k is
    (slope_{k+1} - slope_k) * dt_{k+1} / da_k, so it is judged in slope units
    at the slope test's scale; ``margin`` is the smallest ratio gap.
    """
    seq, wit = paired(a, t, tol)
    shape = classify_shape(seq, tol).variant
    if shape is not ShapeKind.STRICTLY_INCREASING:
        raise NotStrictlyIncreasing(f"a must be strictly increasing, but its profile is {shape.value}")
    da = forward_diff(seq)
    dt = forward_diff(wit)
    lhs, rhs = (list(map(truediv, _steps(d), d)) for d in (da, dt))
    gaps = [x - y for x, y in zip(lhs, rhs)]
    in_slope_units = [g * d / e for g, d, e in zip(gaps, da, dt[1:])]
    first, _ = scan_margin(in_slope_units, tol, list(_steps(seq.values, wit.values)))
    return CheckReport(first is None, first, min(gaps, default=math.inf), tol)


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
    violation come from one threshold.  All triples are scanned in blocks
    that share their first index, from numpy past the cutoffs of the module
    docstring (C(n, 3) >= 2**14 gaps when numpy is loaded, n >= 48; >= 2**19
    when it must be imported, n >= 148), with the same report either way.
    """
    seq, wit = paired(a, t, tol)
    av, tv = seq.values, wit.values
    n = len(av)
    if not all_triples:
        triples = [(i, i + 1, i + 2) for i in range(n - 2)]
        # each triple's three products, built once for both the scale and the determinant
        terms = [((tv[k] - tv[m]) * av[l], (tv[k] - tv[l]) * av[m], (tv[m] - tv[l]) * av[k])
                 for l, m, k in triples]
        peaks = map(abs, chain.from_iterable(terms))
        dets = [p1 - p2 + p3 for p1, p2, p3 in terms]
        first, margin = scan_margin(dets, tol, [*peaks, 1.0], triples)
        rep = CheckReport(first is None, first, margin, tol)
    else:
        # each term is largest at the widest witness span its position allows
        # (rounding is monotone, so these are the exact maxima of the scan)
        peaks = (
            *((tv[-1] - tv[l + 1]) * abs(av[l]) for l in range(n - 2)),
            *((tv[-1] - tv[0]) * abs(av[m]) for m in range(1, n - 1)),
            *((tv[k - 1] - tv[0]) * abs(av[k]) for k in range(2, n)),
            1.0,
        )
        # the scale first: an inf or NaN peak raises before any determinant is
        # judged; the peaks are non-negative, so the largest is the scale of all
        tol.allowed(peaks)
        scale = (max(peaks),)
        np = _numpy_for(n * (n - 1) * (n - 2) // 6)
        if np is None:
            rep = _fold([_triple_block(av, tv, tol, scale, l) for l in range(n - 2)], tol)
        else:
            with np.errstate(all="ignore"):
                rep = _fold(list(_triple_rows(np, av, tv, tol, scale)), tol)
    if rep.first_violation is None:
        return rep
    return CheckReport(False, tuple(i + 1 for i in rep.first_violation), rep.margin, tol)


def _triple_block(av, tv, tol: Tolerance, scale, l: int) -> CheckReport:
    """The determinants of the 0-based triples (l, m, k), m < k, in combinations order."""
    pairs = combinations(range(l + 1, len(av)), 2)
    dets = ((tv[k] - tv[m]) * av[l] - (tv[k] - tv[l]) * av[m] + (tv[m] - tv[l]) * av[k] for m, k in pairs)
    labels = ((l, m, k) for m, k in combinations(range(l + 1, len(av)), 2))
    first, margin = scan_margin(dets, tol, scale, labels)
    return CheckReport(first is None, first, margin, tol)


def _triple_rows(np, av, tv, tol: Tolerance, scale):
    """:func:`_triple_block` for every first index, each block a few numpy
    operations: the IEEE operations of the loop, in the same order.  Every
    block works in the same buffers: blocks of their own sizes would leave
    one freed buffer per size in numpy's cache of small allocations."""
    n = len(av)
    A, T = np.array(av), np.array(tv)
    # the pairs m < k in combinations order: those with m > l are a suffix
    M, K = np.triu_indices(n, 1)
    am, ak, tm, tk = A[M], A[K], T[M], T[K]
    span = tk - tm
    dets_buf, term_buf, work = np.empty(span.size), np.empty(span.size), np.empty(span.size, bool)
    start = 0
    for l in range(n - 2):
        start += n - 1 - l
        w = span.size - start
        dets, term = dets_buf[:w], term_buf[:w]
        np.multiply(span[start:], A[l], out=dets)
        np.multiply(np.subtract(tk[start:], T[l], out=term), am[start:], out=term)
        dets -= term
        np.multiply(np.subtract(tm[start:], T[l], out=term), ak[start:], out=term)
        dets += term
        yield _vector_report(np, dets, work[:w], tol, scale,
                             lambda at: zip(repeat(l), M[start + at].tolist(), K[start + at].tolist()))


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
    return _anchored(seq.values, wit.values, anchor - 1, tol)


def _anchored(av, tv, s0: int, tol: Tolerance) -> CheckReport:
    """:func:`anchored_slope_check` at the 0-based anchor ``s0`` of a validated pair."""
    slopes = [(av[i] - av[s0]) / (tv[i] - tv[s0]) for i in range(s0 + 1, len(av))]
    # label: 1-based index of the later point of each pair
    first, margin = scan_margin(list(_steps(slopes)), tol, slopes, count(s0 + 3))
    return CheckReport(first is None, first, margin, tol)


def _anchored_rows(np, av, tv, tol: Tolerance):
    """:func:`_anchored` at every anchor, each row a few numpy operations (the
    IEEE operations of the loop, in the same order) in buffers that every row
    shares, as :func:`_triple_rows` does."""
    n = len(av)
    A, T = np.array(av), np.array(tv)
    slopes_buf, runs_buf, gaps_buf, work = np.empty(n), np.empty(n), np.empty(n), np.empty(n, bool)
    for s0 in range(n - 1):
        w = n - 1 - s0
        slopes = np.subtract(A[s0 + 1:], A[s0], out=slopes_buf[:w])
        np.divide(slopes, np.subtract(T[s0 + 1:], T[s0], out=runs_buf[:w]), out=slopes)
        gaps = np.subtract(slopes[1:], slopes[:-1], out=gaps_buf[:w - 1])
        # the extremes give the scale of all slopes, a NaN among them included
        extremes = float(slopes.max()), float(slopes.min())
        yield _vector_report(np, gaps, work[:w - 1], tol, extremes, lambda at: (at + (s0 + 3)).tolist())


def anchored_slope_check_all(a: SeqLike, t: WitnessLike, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Conjunction of :func:`anchored_slope_check` over every anchor.

    The rows come from numpy past the cutoffs of the module docstring
    ((n - 1)(n - 2)/2 gaps >= 2**14 when numpy is loaded, n >= 183; >= 2**19
    when it must be imported, n >= 1,026), with the same report either way.
    Like the chord check, it may hold inside the tolerance band where the
    slope test is violated (see the module docstring).
    """
    seq, wit = paired(a, t, tol)
    av, tv = seq.values, wit.values
    n = len(av)
    np = _numpy_for((n - 1) * (n - 2) // 2)
    if np is None:
        return _fold([_anchored(av, tv, s0, tol) for s0 in range(n - 1)], tol)
    with np.errstate(all="ignore"):
        return _fold(list(_anchored_rows(np, av, tv, tol)), tol)


def _numpy_for(gaps: int):
    """numpy for a scan of ``gaps`` gaps when its rows pay for it, else None.

    A loaded numpy pays from ``_NUMPY_LOADED_CUTOFF`` gaps; importing it first
    (about 0.1 s) only from ``_NUMPY_IMPORT_CUTOFF``.  Without numpy the
    stdlib rows run at any size.
    """
    np = sys.modules.get("numpy")
    if np is None and gaps >= _NUMPY_IMPORT_CUTOFF:
        try:
            import numpy as np
        except ImportError:
            return None
    return np if gaps >= _NUMPY_LOADED_CUTOFF else None


def _vector_report(np, gaps, work, tol: Tolerance, operands, labels) -> CheckReport:
    """A numpy row of gaps judged as :func:`relconvex.seqcore.scan_margin` judges it as a list.

    ``work`` is a boolean buffer of the row's length and ``labels(at)`` labels
    the gaps at the positions ``at``.  With finite ``operands`` a row whose
    smallest gap is non-negative holds at any scale.  Any other row goes to
    ``scan_margin`` as its negative and NaN gaps only: they alone can be the
    margin, a violation or a NaN error, and a non-finite operand raises
    whatever the gaps are.
    """
    if gaps.size and all(map(math.isfinite, operands)):
        # argmin finds the first of equal minima, as min() keeps it (-0.0 ties included)
        margin = float(gaps[gaps.argmin()])
        if margin >= 0:
            return CheckReport(True, None, margin, tol)
    at = np.logical_not(np.greater_equal(gaps, 0.0, out=work), out=work).nonzero()[0]
    first, margin = scan_margin(gaps[at].tolist(), tol, operands, labels(at))
    return CheckReport(first is None, first, margin, tol)


def _fold(reports: list[CheckReport], tol: Tolerance) -> CheckReport:
    """The conjunction of a scan's row reports, one per row in scan order: the
    first row violation and the smallest margin (the first of equal ones)."""
    first = next((rep.first_violation for rep in reports if not rep.holds), None)
    return CheckReport(first is None, first, min((rep.margin for rep in reports), default=math.inf), tol)


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
    non-increasing over the prefix.  A gap below ``alpha`` makes the
    dichotomy uninformative (a shrinking witness may converge instead): the
    report has ``applicable=False``, the first such gap as ``first_violation``
    and the smallest gap minus ``alpha`` as ``margin``.
    """
    seq, wit = paired(a, t, tol)
    _require_convex_wrt("a", seq, wit, tol)
    if max(seq.values) > bound + tol.abs:
        raise PreconditionViolation(
            f"max(a) = {max(seq.values)!r} exceeds the stated bound {bound!r}"
        )
    short, gap = scan_margin([g - alpha for g in forward_diff(wit)], _EXACT, ())
    if short is not None:
        return CheckReport(False, short, gap, tol, applicable=False)
    da = forward_diff(seq)
    first, margin = scan_margin([-d for d in da], tol, da)
    return CheckReport(first is None, first, margin, tol)


def rate_diagnostic(
    a: SeqLike,
    t: WitnessLike,
    tol: Tolerance = DEFAULT_TOL,
    alpha: float | None = None,
) -> RateReport:
    """Decay data n * slope_n for a bounded non-increasing witnessed prefix.

    Preconditions: :func:`bounded_monotone_diagnostic` at bound max(a) and
    gap floor ``alpha`` (0 when None) is applicable, then holds.  Terms are
    non-positive under the preconditions; the partial sums accumulate
    n * (slope increments) and should be Cauchy-like on well-behaved input.
    """
    seq, wit = paired(a, t, tol)
    rep = bounded_monotone_diagnostic(seq, wit, max(seq.values), 0.0 if alpha is None else alpha, tol)
    k = rep.first_violation
    if not rep.applicable:
        raise PreconditionViolation(f"witness gap {k} = {wit[k] - wit[k - 1]!r} is below alpha = {alpha!r}")
    if not rep.holds:
        raise PreconditionViolation(
            f"a must be non-increasing over the prefix: step {k} rises by {seq[k] - seq[k - 1]!r}"
        )
    ratios = list(_steps(seq.values, wit.values))
    terms = tuple(k * r for k, r in enumerate(ratios, start=1))
    partial = tuple(accumulate(map(mul, count(1), _steps(ratios)), initial=0.0))[1:]
    tail = max(1, math.ceil(len(terms) / 4))
    max_tail = max(abs(v) for v in terms[-tail:])
    return RateReport(terms, partial, max_tail)
