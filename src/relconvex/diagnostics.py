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
time, as many as ``_BLOCK_ELEMENTS`` holds, in work arrays that every block of
the scan overwrites, so a scan holds one block of gaps at a time and allocates
its arrays once.  Each element takes the IEEE
operations of its loop in the same order.  The blocks run only on operands
proven finite first (a bound on the anchored slopes, the determinants'
scale check), so no gap is NaN and no block raises; other inputs take the
loops.  Every block gives its first smallest gap.  Until the first violation
is located, a block whose smallest gap is negative also gives its first gap
below its row's threshold at the row's own scale, in the operations of
``scan_margin``; every later block gives its smallest gap alone.  Reports and
errors match.  Measured on 2 shared vCPUs, with numpy's import at 0.08-0.12 s,
numpy's blocks pay for it from about 5e5-7e5 gaps (anchored, n ~ 1,000-1,200)
and 3.5e5-5e5 (all triples, n ~ 130-145).

The O(n) checks build their gaps in one comprehension over ``zip`` of shifted
views, with the IEEE operations of the formulas in their docstrings.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate, chain, combinations, count
from operator import mul
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
    _slopes,
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
#: least): the size of each of the scan's work arrays.  Timed on six
#: ``diagnose_mid`` instances (numpy 2.4, 2 shared vCPUs), 2**14 runs the
#: anchored scan at n = 1,000 in 1.6 ms and the all-triples scan at n = 100 in
#: 0.67 ms, against 1.9 and 0.77 ms at 2**13; 2**15 is at most 9% faster again,
#: but the anchored scan at n = 2,000 then peaks at 831 KiB instead of 436 KiB.
_BLOCK_ELEMENTS = 2**14


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
    gaps = [((right := t2 - t1) * a0 + (left := t1 - t0) * a2) / (left + right) - a1
            for a0, a1, a2, t0, t1, t2 in zip(av, av[1:], av[2:], tv, tv[1:], tv[2:])]
    first, margin = scan_margin(gaps, tol, av, count(2))
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
    gaps = [(a1 - a0) / a0 - (t1 - t0) / t0 for a0, a1, t0, t1 in zip(da, da[1:], dt, dt[1:])]
    in_slope_units = [g * d / e for g, d, e in zip(gaps, da, dt[1:])]
    first, _ = scan_margin(in_slope_units, tol, _slopes(seq.values, wit.values))
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
        terms = [((t2 - t1) * a0, (t2 - t0) * a1, (t1 - t0) * a2)
                 for a0, a1, a2, t0, t1, t2 in zip(av, av[1:], av[2:], tv, tv[1:], tv[2:])]
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
    # judged; the peaks are non-negative, so the largest is the scale of all.
    # Every term is then finite, so each determinant is finite or ±inf, never NaN
    tol.allowed(peaks)
    scale = max(peaks)
    return _scan(n * (n - 1) * (n - 2) // 6, tol,
                 lambda: [_triple_block(av, tv, tol, scale, l) for l in range(n - 2)],
                 lambda np: _triple_blocks(np, av, tv, scale))


def _triple_block(av, tv, tol: Tolerance, scale, l: int) -> CheckReport:
    """The determinants of the 0-based triples (l, m, k), m < k, in combinations order, labelled 1-based."""
    pairs = list(combinations(range(l + 1, len(av)), 2))
    dets = [(tv[k] - tv[m]) * av[l] - (tv[k] - tv[l]) * av[m] + (tv[m] - tv[l]) * av[k] for m, k in pairs]
    first, margin = scan_margin(dets, tol, (scale,), ((l + 1, m + 1, k + 1) for m, k in pairs))
    return CheckReport(first is None, first, margin, tol)


def _triple_blocks(np, av, tv, scale):
    """:func:`_triple_block` for every first index l, in blocks of consecutive l, each
    yielded as ``(gaps, offsets, scale, label)`` for :func:`_fold`.

    The pairs m < k in combinations order are precomputed once; those of row l
    (m > l) are a suffix of them, so a block's rows share the columns of its
    first row's suffix.  Row l computes each of these determinants with the
    IEEE operations of the loop in the same order, and the pairs m <= l before
    its own suffix are masked (see :func:`_fold`).  Every block is written into
    the same two work arrays, so it is judged before the next one is computed.
    """
    n = len(av)
    A, T = np.array(av), np.array(tv)
    M, K = np.triu_indices(n, 1)
    am, ak, tm, tk = A[M], A[K], T[M], T[K]
    span = tk - tm
    pairs = span.size
    # the suffix of row l starts after the n - 1 - j pairs of every first index j <= l
    starts = list(accumulate(range(n - 1, 1, -1)))
    work = _work(np, 2, n - 2, (n - 1) * (n - 2) // 2)  # row 0 has the pairs of 1 <= m < k
    for l0, l1 in _spans(n - 2, lambda l: pairs - starts[l]):
        s = starts[l0]
        a_l, t_l = A[l0:l1, None], T[l0:l1, None]
        dets, term = (w[:(l1 - l0) * (pairs - s)].reshape(l1 - l0, pairs - s) for w in work)
        np.multiply(span[s:], a_l, out=dets)
        np.subtract(tk[s:], t_l, out=term)
        term *= am[s:]
        dets -= term
        np.subtract(tm[s:], t_l, out=term)
        term *= ak[s:]
        dets += term
        offsets = [start - s for start in starts[l0:l1]]
        yield (dets, offsets, lambda foreign: scale,
               lambda b, c: (l0 + b + 1, M.item(s + c) + 1, K.item(s + c) + 1))


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


def _anchored_blocks(np, av, tv):
    """:func:`_anchored` at every anchor but the last, which has one slope and no gap, in
    blocks of consecutive anchors, each yielded as ``(gaps, offsets, scale, label)`` for
    :func:`_fold`.

    The anchors r0 <= s0 < r1 of a block share the columns i = r0+1 .. n-1:
    row s0 computes (a_i - a_s0) / (t_i - t_s0) and the gaps between its
    neighbouring slopes with the IEEE operations of the loop in the same
    order, and the gaps of i <= s0 + 1, which are not its own, are masked
    (see :func:`_fold`).  Every block is written into the same three work
    arrays (slopes, witness steps, gaps), so it is judged before the next one
    is computed.
    """
    n = len(av)
    A, T = np.array(av), np.array(tv)
    work = _work(np, 3, n - 2, n - 1)
    for r0, r1 in _spans(n - 2, lambda r: n - 1 - r):
        rows, width = r1 - r0, n - 1 - r0
        slopes, steps = (w[:rows * width].reshape(rows, width) for w in work[:2])
        gaps = work[2, :rows * (width - 1)].reshape(rows, width - 1)
        np.subtract(A[r0 + 1:], A[r0:r1, None], out=slopes)
        np.subtract(T[r0 + 1:], T[r0:r1, None], out=steps)
        slopes /= steps
        np.subtract(slopes[:, 1:], slopes[:, :-1], out=gaps)

        def scale(foreign):
            # each row's largest |slope| over its own slopes (the 0 / 0 before them masked)
            np.abs(slopes, out=slopes)
            if foreign is not None:
                np.copyto(slopes[:, :foreign.shape[1]], 0.0, where=foreign)
            return slopes.max(axis=1, keepdims=True)

        yield gaps, range(r1 - r0), scale, lambda b, c: r0 + 3 + c


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
    lo, hi = seq.extremes
    # rounding is monotone, so |fl(a_i - a_s)| <= 2 max|a| and fl(t_i - t_s) >= the least
    # (positive) witness gap: a finite quotient proves every slope finite, so no gap is NaN
    finite = math.isfinite(2.0 * max(hi, -lo) / min(_steps(tv)))
    return _scan((n - 1) * (n - 2) // 2, tol,
                 lambda: [_anchored(av, tv, s0, tol) for s0 in range(n - 1)],
                 (lambda np: _anchored_blocks(np, av, tv)) if finite else None)


def _scan(gaps: int, tol: Tolerance, loop_rows, numpy_blocks) -> CheckReport:
    """A super-linear scan of ``gaps`` gaps as the conjunction of its rows, one report per row:
    the first violation and the smallest margin (the first of equal ones).

    The one path rule of the scans: ``numpy_blocks(np)`` (None unless every operand is proven
    finite) yields the blocks that :func:`_fold` judges when numpy is loaded, or imports (about
    0.1 s) from ``_NUMPY_IMPORT_CUTOFF`` gaps; ``loop_rows()`` lists a report per row otherwise,
    at any size, each row judged in full, so a row after a violating one still raises.
    The blocks run without warnings (a gap may overflow) and with the smallest ufunc buffer: through
    the default one of 8,192 elements numpy copies the operands of a broadcast 2-D operation
    whose rows are narrower than about a third of it, so the anchored scan at n = 1,000 takes
    about 2.8 ms with that buffer against 1.7 ms with the smallest (medians of 5 rounds, numpy
    2.4, 2 shared vCPUs).
    """
    np = sys.modules.get("numpy") if numpy_blocks else None
    if np is None and numpy_blocks and gaps >= _NUMPY_IMPORT_CUTOFF:
        try:
            import numpy as np
        except ImportError:
            pass
    if np is None:
        reports = loop_rows()
        first = next((rep.first_violation for rep in reports if not rep.holds), None)
        margin = min((rep.margin for rep in reports), default=math.inf)
    else:
        with np.errstate(all="ignore"):
            size = np.setbufsize(16)
            try:
                first, margin = _fold(np, numpy_blocks(np), tol)
            finally:
                np.setbufsize(size)
    return CheckReport(first is None, first, margin, tol)


def _spans(rows: int, width):
    """``(start, stop)`` of consecutive blocks of ``rows`` rows: as many rows as
    ``_BLOCK_ELEMENTS`` holds at the width ``width(start)`` of the block's
    first (widest) row, and one row at least.  The rows of both scans narrow
    towards the end, so later blocks hold more of them."""
    start = 0
    while start < rows:
        stop = min(rows, start + max(1, _BLOCK_ELEMENTS // width(start)))
        yield start, stop
        start = stop


def _work(np, count: int, rows: int, widest: int):
    """``count`` flat buffers that every block of a scan of ``rows`` rows reuses, each as
    large as the largest block :func:`_spans` makes: ``_BLOCK_ELEMENTS`` elements at
    most (fewer if the whole scan is smaller), or the widest row alone if that is wider."""
    return np.empty((count, max(widest, min(_BLOCK_ELEMENTS, rows * widest))))


def _fold(np, blocks, tol: Tolerance):
    """``(first, margin)`` of the numpy blocks ``(gaps, offsets, scale, label)``, row b of a
    block being ``gaps[b, offsets[b]:]``, as :func:`_scan` folds row reports: the first
    violation and the first smallest margin, in scan order, each block judged before the
    generator computes the next one into the same work arrays.

    The operands are finite and no gap is NaN (:func:`_scan` runs the blocks
    only then), so no row raises.  The entries before a row's own are first
    set to +inf (through a boolean mask of the block's columns below each
    row's offset), so they are never a smallest gap or a violation.  A block's
    margin is its first smallest gap (argmin finds the first of equal minima,
    ±0.0 ties included, as ``min()`` keeps it).  Until a block has located the
    first violation, a block with a negative margin is judged: ``scale(foreign)``
    gives each row's largest |operand|, as a column over the rows or one scalar
    for all (``foreign`` masks the +inf entries, or is None), and every row is
    judged as :func:`relconvex.seqcore.scan_margin` judges it: its threshold is
    ``Tolerance.allowed`` at its scale, negated, in the same IEEE operations,
    and its first violation is its first gap below that, labelled
    ``label(b, c)`` at block column c.  Every later block gives its margin alone.
    A per-gap weight that judges each gap at the slope test's scale (ROADMAP.md,
    "One tolerance rule for every characterization") must enter this judge, the
    blocks and the stdlib rows together, as one more factor of each gap.
    """
    first, margin = None, math.inf
    for gaps, offsets, scale, label in blocks:
        cut = offsets[-1]
        foreign = None
        if cut:
            foreign = np.arange(cut) < np.array(offsets)[:, None]
            np.copyto(gaps[:, :cut], math.inf, where=foreign)
        low = gaps.item(int(gaps.argmin()))
        if low < margin:
            margin = low
        if first is None and low < 0:
            below = gaps < -tol.slack(scale(foreign))
            hit = int(below.argmax())
            if below.item(hit):
                first = label(*divmod(hit, gaps.shape[1]))
    return first, margin


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
    spot_check_map(psi, seq, tol)
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
    ratios = _slopes(seq.values, wit.values)
    terms = tuple(k * r for k, r in enumerate(ratios, start=1))
    partial = tuple(accumulate(map(mul, count(1), _steps(ratios)), initial=0.0))[1:]
    tail = max(1, math.ceil(len(terms) / 4))
    max_tail = max(abs(v) for v in terms[-tail:])
    return RateReport(terms, partial, max_tail)
