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
:func:`collinearity_determinant_check` with ``all_triples`` (O(n^3)), run
through :func:`_scan`, the one place that holds the path rule: it computes
their rows with numpy whenever it is already imported, and with stdlib loops
otherwise; a scan of 2**19 gaps or more imports numpy first (about 0.1 s),
so a scan below that size never loads numpy and a scan without numpy runs
its loops at any size.
numpy computes a block of consecutive rows (anchors, or first indices) at a
time, as many as ``_BLOCK_ELEMENTS`` holds, in buffers that every block of
the scan shares.  Each element takes the IEEE operations of its loop in the
same order.  A block whose rows all plainly hold (finite operands, no
negative or NaN gap) is one report; in any other block, every row that does
not plainly hold is judged by ``scan_margin`` at its own scale, so the
reports and errors are the same on either path.  Measured on 2 shared vCPUs,
numpy's blocks pay for its import from about 4e5 gaps (anchored, n ~ 900)
and 3e5 (all triples, n ~ 125).
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate, chain, combinations, count, repeat
from operator import mul, truediv
from typing import NamedTuple

from .errors import NotStrictlyIncreasing, PreconditionViolation
from .inequalities import ConvexMap, _require_convex_wrt, spot_check_map
from .seqcore import (
    DEFAULT_TOL,
    CheckReport,
    SeqLike,
    ShapeKind,
    Tolerance,
    WitnessLike,
    _index,
    _steps,
    classify_shape,
    forward_diff,
    is_convex_wrt,
    paired,
    scan_margin,
)

#: Judges a gap against zero itself: no slack at any scale.
_EXACT = Tolerance(abs=0.0, rel=0.0)

#: Gap count from which the two super-linear scans import numpy for their rows.
_NUMPY_IMPORT_CUTOFF = 2**19

#: Elements in one block of consecutive rows of a numpy scan (one row at
#: least), and in each of the buffers that every block of a scan shares.
_BLOCK_ELEMENTS = 2**13


class RateReport(NamedTuple):
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

    first, margin = scan_margin(map(gap, range(1, len(av) - 1)), tol, av, count(2))
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
    violation come from one threshold.  All triples are scanned in rows
    that share their first index; by the path rule of :func:`_scan`
    (numpy loaded, or C(n, 3) >= 2**19 gaps, n >= 148) numpy computes
    blocks of consecutive rows, with the same report either way.
    """
    seq, wit = paired(a, t, tol)
    av, tv = seq.values, wit.values
    n = len(av)
    if not all_triples:
        # each triple's three products, built once for both the scale and the determinant
        terms = [((tv[k] - tv[m]) * av[l], (tv[k] - tv[l]) * av[m], (tv[m] - tv[l]) * av[k])
                 for l, m, k in zip(range(n), range(1, n), range(2, n))]
        peaks = map(abs, chain.from_iterable(terms))
        dets = [p1 - p2 + p3 for p1, p2, p3 in terms]
        first, margin = scan_margin(dets, tol, [*peaks, 1.0], ((i, i + 1, i + 2) for i in count(1)))
        return CheckReport(first is None, first, margin, tol)
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
    return _scan(n * (n - 1) * (n - 2) // 6, tol,
                 lambda: [_triple_block(av, tv, tol, scale, l) for l in range(n - 2)],
                 lambda np: _triple_blocks(np, av, tv, tol, scale))


def _triple_block(av, tv, tol: Tolerance, scale, l: int) -> CheckReport:
    """The determinants of the 0-based triples (l, m, k), m < k, in combinations order, labelled 1-based."""
    pairs = list(combinations(range(l + 1, len(av)), 2))
    dets = [(tv[k] - tv[m]) * av[l] - (tv[k] - tv[l]) * av[m] + (tv[m] - tv[l]) * av[k] for m, k in pairs]
    first, margin = scan_margin(dets, tol, scale, ((l + 1, m + 1, k + 1) for m, k in pairs))
    return CheckReport(first is None, first, margin, tol)


def _triple_blocks(np, av, tv, tol: Tolerance, scale):
    """:func:`_triple_block` for every first index l, in blocks of consecutive l.

    The pairs m < k in combinations order are precomputed once; those of row l
    (m > l) are a suffix of them, so a block's rows share the columns of its
    first row's suffix.  Row l computes each of these determinants with the
    IEEE operations of the loop in the same order, and the pairs m <= l before
    its own suffix are masked (see :func:`_block_reports`).
    """
    n = len(av)
    A, T = np.array(av), np.array(tv)
    M, K = np.triu_indices(n, 1)
    am, ak, tm, tk = A[M], A[K], T[M], T[K]
    span = tk - tm
    pairs = span.size
    # the suffix of row l starts after the n - 1 - j pairs of every first index j <= l
    starts = list(accumulate(range(n - 1, 1, -1)))
    size = max(_BLOCK_ELEMENTS, pairs - (n - 1))
    dets_buf, term_buf, work = np.empty(size), np.empty(size), np.empty(size, bool)
    # a block masks fewer columns than its first row has, and that row has at most all pairs
    cols = np.arange(min(pairs, _BLOCK_ELEMENTS))
    for l0, l1 in _spans(n - 2, lambda l: pairs - starts[l]):
        s = starts[l0]
        shape = (l1 - l0, pairs - s)
        a_l, t_l = _column(A, l0, l1), _column(T, l0, l1)
        dets = np.multiply(span[None, s:], a_l, out=_rows(dets_buf, shape))
        term = np.subtract(tk[None, s:], t_l, out=_rows(term_buf, shape))
        dets -= np.multiply(term, am[None, s:], out=term)
        np.subtract(tm[None, s:], t_l, out=term)
        dets += np.multiply(term, ak[None, s:], out=term)

        def labels(b, at):
            at = at + starts[l0 + b]
            return zip(repeat(l0 + b + 1), (M[at] + 1).tolist(), (K[at] + 1).tolist())

        offsets = [start - s for start in starts[l0:l1]]
        yield from _block_reports(np, dets, offsets, [True] * (l1 - l0), tol, lambda b: scale, labels,
                                  work, cols)


def anchored_slope_check(
    a: SeqLike,
    t: WitnessLike,
    anchor: int,
    tol: Tolerance = DEFAULT_TOL,
) -> CheckReport:
    """Divided differences from a fixed 1-based anchor must be non-decreasing.

    ``first_violation`` is the 1-based index of the later point at which
    the divided-difference sequence first drops.  The anchor is an index as
    ``seqcore._index`` reads it, 2, 2.0 and "2" alike; any other value, or one
    outside 1..n-1, raises IndexOutOfRange.
    """
    seq, wit = paired(a, t, tol)
    return _anchored(seq.values, wit.values, _index(anchor, len(seq) - 1, "anchor") - 1, tol)


def _anchored(av, tv, s0: int, tol: Tolerance) -> CheckReport:
    """:func:`anchored_slope_check` at the 0-based anchor ``s0`` of a validated pair."""
    slopes = [(av[i] - av[s0]) / (tv[i] - tv[s0]) for i in range(s0 + 1, len(av))]
    # label: 1-based index of the later point of each pair
    first, margin = scan_margin(_steps(slopes), tol, slopes, count(s0 + 3))
    return CheckReport(first is None, first, margin, tol)


def _anchored_blocks(np, av, tv, tol: Tolerance):
    """:func:`_anchored` at every anchor, in blocks of consecutive anchors.

    The anchors r0 <= s0 < r1 of a block share the columns i = r0+1 .. n-1:
    row s0 computes (a_i - a_s0) / (t_i - t_s0) and the gaps between its
    neighbouring slopes with the IEEE operations of the loop in the same
    order, and the gaps of i <= s0 + 1, which are not its own, are masked
    (see :func:`_block_reports`).
    """
    n = len(av)
    A, T = np.array(av), np.array(tv)
    # a row of gaps >= 0 (none NaN) has only finite slopes when its first and last
    # are finite: an inf or NaN slope between them makes a gap beside it negative or NaN
    firsts, lasts = np.diff(A) / np.diff(T), (A[-1] - A[:-1]) / (T[-1] - T[:-1])
    finite = (np.isfinite(firsts) & np.isfinite(lasts)).tolist()
    size = max(_BLOCK_ELEMENTS, n - 1)
    slopes_buf, gaps_buf, work = np.empty(size), np.empty(size), np.empty(size, bool)
    # a block masks fewer columns than it has rows, and it has fewer than n
    cols = np.arange(min(n, _BLOCK_ELEMENTS))
    for r0, r1 in _spans(n - 1, lambda r: n - 1 - r):
        rows, w = r1 - r0, n - 1 - r0
        slopes = np.subtract(A[None, r0 + 1:], _column(A, r0, r1), out=_rows(slopes_buf, (rows, w)))
        runs = np.subtract(T[None, r0 + 1:], _column(T, r0, r1), out=_rows(gaps_buf, (rows, w)))
        np.divide(slopes, runs, out=slopes)
        gaps = np.subtract(slopes[:, 1:], slopes[:, :-1], out=_rows(gaps_buf, (rows, w - 1)))
        # the extremes of row b's slopes give the scale of all of them, a NaN among them included
        yield from _block_reports(np, gaps, range(rows), finite[r0:r1], tol,
                                  lambda b: (float(slopes[b, b:].max()), float(slopes[b, b:].min())),
                                  lambda b, at: (at + (r0 + b + 3)).tolist(), work, cols)


def anchored_slope_check_all(a: SeqLike, t: WitnessLike, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Conjunction of :func:`anchored_slope_check` over every anchor.

    By the path rule of :func:`_scan` (numpy loaded, or (n - 1)(n - 2)/2
    >= 2**19 gaps, n >= 1,026) numpy computes blocks of consecutive anchors,
    with the same report either way.
    Like the chord check, it may hold inside the tolerance band where the
    slope test is violated (see the module docstring).
    """
    seq, wit = paired(a, t, tol)
    av, tv = seq.values, wit.values
    n = len(av)
    return _scan((n - 1) * (n - 2) // 2, tol,
                 lambda: [_anchored(av, tv, s0, tol) for s0 in range(n - 1)],
                 lambda np: _anchored_blocks(np, av, tv, tol))


def _scan(gaps: int, tol: Tolerance, loop_rows, numpy_blocks) -> CheckReport:
    """A super-linear scan of ``gaps`` gaps as the conjunction of its row reports:
    the first row violation and the smallest margin (the first of equal ones).

    The one path rule of the scans: ``numpy_blocks(np)`` yields the reports when numpy
    is loaded, or imports (about 0.1 s) from ``_NUMPY_IMPORT_CUTOFF`` gaps, and
    ``loop_rows()`` lists them otherwise, at any size.  The blocks run without
    floating-point warnings (the scans judge their inf and NaN) and with the smallest
    ufunc buffer, through which numpy would copy the operands of a broadcast 2-D
    operation with rows narrower than about a third of it (8,192 elements by
    default), at 3-4 times the cost of the operation in place.
    """
    np = sys.modules.get("numpy")
    if np is None and gaps >= _NUMPY_IMPORT_CUTOFF:
        try:
            import numpy as np
        except ImportError:
            pass
    if np is None:
        reports = loop_rows()
    else:
        with np.errstate(all="ignore"):
            size = np.setbufsize(16)
            try:
                reports = list(numpy_blocks(np))
            finally:
                np.setbufsize(size)
    first = next((rep.first_violation for rep in reports if not rep.holds), None)
    return CheckReport(first is None, first, min((rep.margin for rep in reports), default=math.inf), tol)


def _spans(rows: int, width):
    """``(start, stop)`` of consecutive blocks of ``rows`` rows: as many rows as
    ``_BLOCK_ELEMENTS`` holds at the width ``width(start)`` of the block's
    first (widest) row, and one row at least."""
    start = 0
    while start < rows:
        stop = min(rows, start + max(1, _BLOCK_ELEMENTS // width(start)))
        yield start, stop
        start = stop


def _column(X, start, stop):
    """``X[start:stop]`` as a column to broadcast along a block's rows; for one row a
    scalar, so that numpy runs a one-row block as a 1-D operation, without an iterator."""
    return X[start] if stop - start == 1 else X[start:stop, None]


def _rows(buf, shape):
    """The leading elements of the buffer ``buf`` as a C-contiguous array of ``shape``."""
    return buf[:shape[0] * shape[1]].reshape(shape)


def _block_reports(np, gaps, offsets, finite, tol: Tolerance, operands, labels, work, cols):
    """The reports of a block of rows, row b being ``gaps[b, offsets[b]:]``.

    The entries before a row's own are first set to +inf (through the boolean
    buffer ``work`` and ``cols``, an ``arange`` at least as long as the widest
    such prefix), so they are never a smallest gap.  A row plainly holds when its
    operands are finite (``finite[b]``) and its first smallest gap is
    non-negative (argmin finds the first of equal minima, ±0.0 ties included,
    as ``min()`` keeps it).  When every row does, the block is one report
    whose margin is the block's first smallest gap, as folding the rows would
    keep it.  Otherwise each row that plainly holds is one report, and each
    other row is judged, in scan order, as :func:`relconvex.seqcore.scan_margin`
    judges it as a list: at the scale of ``operands(b)``, its gaps at the
    positions ``at`` labelled ``labels(b, at)``.  The row goes to ``scan_margin``
    as its negative and NaN gaps only: they alone can be the margin, a violation
    or a NaN error, and a non-finite operand raises whatever the gaps are.
    A per-gap weight that judges each gap at the slope test's scale (ROADMAP.md,
    "One tolerance rule for every characterization") must enter this judge, the
    blocks and the stdlib rows together, as one more factor of each gap.
    """
    rows = len(gaps)
    cut = offsets[-1]
    if cut:
        foreign = np.less(cols[:cut], np.array(offsets)[:, None], out=_rows(work, (rows, cut)))
        np.copyto(gaps[:, :cut], math.inf, where=foreign)
    # a block without columns is the anchored scan's last row alone, with one slope
    margin = gaps.item(gaps.argmin()) if gaps.size else math.inf
    if all(finite) and margin >= 0:
        return [CheckReport(True, None, margin, tol)]
    margins = gaps[range(rows), gaps.argmin(axis=1)].tolist() if rows > 1 else [margin]
    reports = []
    for b, (ok, row_margin) in enumerate(zip(finite, margins)):
        first = None
        if not (ok and row_margin >= 0):
            row = gaps[b, offsets[b]:]
            bad = work[:row.size]
            at = np.logical_not(np.greater_equal(row, 0.0, out=bad), out=bad).nonzero()[0]
            first, row_margin = scan_margin(row[at].tolist(), tol, operands(b), labels(b, at))
        reports.append(CheckReport(first is None, first, row_margin, tol))
    return reports


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
    and the smallest gap minus ``alpha`` as ``margin``.  An infinite
    ``bound`` or ``alpha`` is a bound like any other; a NaN one is a
    ValueError.
    """
    for name, value in (("bound", bound), ("alpha", alpha)):
        if math.isnan(value):
            raise ValueError(f"{name} must not be NaN")
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
