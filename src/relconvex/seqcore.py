"""Core sequence types, difference operators, convexity tests, and witness construction.

A finite sequence ``a`` is *convex* when its forward differences are
non-decreasing, and *convex with respect to* a strictly increasing witness
``t`` when the slope sequence ``(a[i+1]-a[i]) / (t[i+1]-t[i])`` is
non-decreasing.  A sequence admitting some witness is called relative
convex; this holds exactly for the strictly V-shaped profiles enumerated
in :class:`ShapeKind`.

All public indices (violation locations, breakpoints) are 1-based to match
the usual subscript convention for sequences.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, count, islice, repeat
from operator import gt, lt, mul, sub, truediv
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    IntervalError,
    LengthError,
    LengthMismatch,
    MonotoneError,
    NonFiniteArithmetic,
    ShapeError,
    SignError,
    WitnessLostConvexity,
    WitnessNotIncreasing,
)

SeqLike = Union["RealSeq", Sequence[float]]
WitnessLike = Union["Witness", Sequence[float]]


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative slack applied by every comparison in the package.

    ``abs`` is the unconditional slack; ``rel`` is multiplied by the scale
    of the quantities being compared.  Both default to the package-wide
    values needed for transcendental inputs (ln, arctan, ...).

    Every verdict measures its slacks against :meth:`allowed`, at the scale
    of the operands it compares.  Comparisons of a quantity with zero or
    with a fixed point use ``abs`` alone: the step signs of
    :func:`classify_shape`, the witness gaps, the domain and range clamps
    and the endpoint check of ``hhf_bounds``.
    """

    abs: float = 1e-9
    rel: float = 1e-12

    def __post_init__(self) -> None:
        if self.abs < 0 or self.rel < 0 or not math.isfinite(self.abs + self.rel):
            raise ValueError("tolerance components must be finite and non-negative")

    def slack(self, scale: float = 1.0) -> float:
        """Total allowed slack for quantities of magnitude ``scale``."""
        return self.abs + self.rel * abs(scale)

    def allowed(self, operands: Iterable[float]) -> float:
        """:meth:`slack` at the largest |operand|; NonFiniteArithmetic if an operand is inf or NaN."""
        if not isinstance(operands, (list, tuple)):
            operands = tuple(operands)
        scale = max(map(abs, operands), default=0.0)
        # max passes over a NaN that does not come first; the sum is NaN whenever one is present
        if math.isnan(sum(operands)):
            scale = math.nan
        if not scale < math.inf:
            raise NonFiniteArithmetic(f"compared quantities reach {scale!r}")
        return self.slack(scale)


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class _Floats:
    """Finite floats of any length, read-only: the one validation path of every input
    vector, the data vectors of the functionals included; :meth:`of` passes one through."""

    values: tuple[float, ...]
    _what = "sequence"
    _min_len = 0

    def __post_init__(self) -> None:
        vals = tuple(map(float, self.values))
        object.__setattr__(self, "values", vals)
        if len(vals) < self._min_len:
            raise LengthError(f"{self._what} needs at least {self._min_len} entries, got {len(vals)}")
        if not all(map(math.isfinite, vals)):
            k = next(k for k, v in enumerate(vals) if not math.isfinite(v))
            raise ValueError(f"entry {k + 1} is not finite: {vals[k]!r}")

    @classmethod
    def of(cls, values):
        if isinstance(values, cls):
            return values
        return cls(tuple(values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __getstate__(self):
        # the slope-test memo of is_convex_wrt holds weak references; a copy starts without it
        return {"values": self.values}


class RealSeq(_Floats):
    """Finite sequence of finite reals; the payload of every check.

    Length must be at least 2 so the difference operators are defined.
    """

    _min_len = 2


class Witness(RealSeq):
    """Strictly increasing abscissae that a sequence's convexity is measured against.

    The type-level invariant is genuine strict increase.  :meth:`of` builds a
    witness from raw values only when every gap is above ``tol.abs``, but it
    returns a ``Witness`` instance unchanged, without judging its gaps at the
    call's tolerance: the engines for ordinary convexity measure against the
    unit witness 1..n, whose unit gaps must be accepted at any tolerance.
    """

    _what = "witness"

    def __post_init__(self) -> None:
        super().__post_init__()
        vals = self.values
        if not all(map(lt, vals, islice(vals, 1, None))):
            k = next(k for k in range(len(vals) - 1) if not vals[k + 1] > vals[k])
            raise WitnessNotIncreasing(
                f"t[{k + 2}] = {vals[k + 1]!r} does not exceed t[{k + 1}] = {vals[k]!r}"
            )

    @classmethod
    def of(cls, values: WitnessLike, tol: Tolerance = DEFAULT_TOL) -> "Witness":
        if isinstance(values, cls):
            return values
        vals = tuple(map(float, values))
        # all(gt), not min: a NaN gap fails gt, so next() names it too
        if not all(map(gt, _steps(vals), repeat(tol.abs))):
            k, gap = next((k, g) for k, g in enumerate(_steps(vals), 1) if not g > tol.abs)
            raise WitnessNotIncreasing(
                f"gap t[{k + 1}] - t[{k}] = {gap!r} is not above the strictness tolerance {tol.abs!r}"
            )
        return cls(vals)


class ShapeKind(str, Enum):
    """The strictly V-shaped profiles, plus the constant and rejected cases."""

    STRICTLY_INCREASING = "strictly_increasing"
    STRICTLY_DECREASING = "strictly_decreasing"
    DEC_THEN_CONST = "dec_then_const"
    CONST_THEN_INC = "const_then_inc"
    DEC_THEN_INC = "dec_then_inc"
    DEC_CONST_INC = "dec_const_inc"
    CONSTANT = "constant"
    NOT_STRICTLY_V_SHAPED = "not_strictly_v_shaped"


#: Variants that admit a witness (everything except the rejected case).
RELATIVE_CONVEX_KINDS = frozenset(ShapeKind) - {ShapeKind.NOT_STRICTLY_V_SHAPED}

#: The accepted profile for each (any decrease, any plateau, any increase) of a sorted sign run.
_PROFILES = {
    (False, True, False): ShapeKind.CONSTANT,
    (False, False, True): ShapeKind.STRICTLY_INCREASING,
    (True, False, False): ShapeKind.STRICTLY_DECREASING,
    (True, True, False): ShapeKind.DEC_THEN_CONST,
    (False, True, True): ShapeKind.CONST_THEN_INC,
    (True, False, True): ShapeKind.DEC_THEN_INC,
    (True, True, True): ShapeKind.DEC_CONST_INC,
}


@dataclass(frozen=True)
class ShapeClass:
    """Classification result.

    ``breakpoints = (m, ell)`` locates the minimal block: ``m`` is the
    1-based index where the minimum is first attained and ``ell`` is the
    number of constant steps following it.  ``None`` for the rejected case.
    """

    variant: ShapeKind
    breakpoints: tuple[int, int] | None = None


@dataclass(frozen=True)
class CheckReport:
    """Verdict of a tolerance-based inequality scan.

    ``margin`` is the minimum slack over all checked inequalities (negative
    when violated); ``first_violation`` is the 1-based location of the first
    failure, when any.  ``applicable`` is False only for diagnostics whose
    hypotheses could not be established from the data.
    """

    holds: bool
    first_violation: int | tuple[int, ...] | None
    margin: float
    tolerance: Tolerance
    applicable: bool = True


def scan_margin(gaps: Iterable[float], allowed: float, labels: Iterable | None = None):
    """One streaming pass: ``(first, margin)`` over the signed slacks ``gaps``.

    ``margin`` is the smallest gap (``inf`` when there is none); ``first`` is
    the label of the first gap below ``-allowed``, or None.  Labels default
    to the 1-based positions 1, 2, ...  Deriving both from the one threshold
    makes every report satisfy ``holds == (first is None)``.  This is the
    only place a gap is judged; a NaN gap raises :class:`NonFiniteArithmetic`.

    A ``list`` of gaps is judged at C level (``min`` keeps the first of equal
    gaps, as the loop does) and falls back to the loop only to label a
    violation or a NaN; any other iterable streams through the loop.
    """
    if isinstance(gaps, list) and not any(map(math.isnan, gaps)):
        margin = min(gaps, default=math.inf)
        if not margin < -allowed:
            return None, margin
    margin = math.inf
    first = None
    for label, gap in zip(count(1) if labels is None else labels, gaps):
        # the first gap below -allowed is always a new minimum; NaN fails >= too
        if not gap >= margin:
            if gap != gap:
                raise NonFiniteArithmetic(f"gap {label!r} is NaN")
            margin = gap
            if first is None and gap < -allowed:
                first = label
    return first, margin


@lru_cache(maxsize=1)
def unit_witness(n: int) -> "Witness":
    """The arithmetic witness 1..n, against which ordinary convexity is measured.

    The last n is cached: a :class:`Witness` is frozen, so callers share it.
    """
    return Witness(tuple(map(float, range(1, n + 1))))


def _steps(v: Sequence[float], over: Sequence[float] | None = None) -> Iterator[float]:
    """The one per-step kernel, at C level: the differences ``v[i+1] - v[i]``,
    or with ``over`` the slopes ``(v[i+1] - v[i]) / (over[i+1] - over[i])``."""
    rises = map(sub, islice(v, 1, None), v)
    return rises if over is None else map(truediv, rises, _steps(over))


def _same_length(names: str, first, *rest) -> None:
    """The one length rule: LengthMismatch unless the vectors, named by the words of ``names``,
    have equal lengths; worded ``|x| = 2 but |y| = 3`` for two and comma-joined for more."""
    n = len(first)
    for v in rest:
        if len(v) != n:
            parts = [f"|{name}| = {len(vec)}" for name, vec in zip(names.split(), (first, *rest))]
            raise LengthMismatch((" but " if len(parts) == 2 else ", ").join(parts))


def forward_diff(a: SeqLike) -> tuple[float, ...]:
    """First forward differences ``a[i+1] - a[i]``; output length n-1."""
    return tuple(_steps(RealSeq.of(a).values))


def paired(a: SeqLike, t: WitnessLike, tol: Tolerance = DEFAULT_TOL) -> tuple[RealSeq, Witness]:
    """Validate a sequence and its witness together; they must have equal length."""
    seq = RealSeq.of(a)
    wit = Witness.of(t, tol)
    _same_length("a t", seq, wit)
    return seq, wit


def is_convex_wrt(a: SeqLike, t: WitnessLike, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Check that the slope sequence of ``a`` against ``t`` is non-decreasing.

    ``margin`` is the minimum slope increment; ``first_violation`` is the
    1-based index i of the first failing pair (slope i vs slope i+1).
    Length-2 input is vacuously convex (single slope).

    Both inputs are frozen, so the test runs once per (sequence, witness,
    tolerance): the report is remembered on the :class:`RealSeq`, keyed by
    the :class:`Witness` object, held by weak reference, and by ``tol``,
    and a later call with the same three returns it.  Inputs built here
    from raw values are not remembered, nor is a raised error.
    """
    seq, wit = paired(a, t, tol)
    memo = vars(seq).get("_slope_tests", {})
    ref, rep = memo.get((id(wit), tol), (None, None))
    if ref is not None and ref() is wit:  # a dead witness's id may be reused
        return rep
    ratios = list(_steps(seq.values, wit.values))
    first, margin = scan_margin(list(_steps(ratios)), tol.allowed(ratios))
    rep = CheckReport(first is None, first, margin, tol)
    if seq is a and wit is t:
        # entries of dead witnesses go, so a sequence outliving many witnesses keeps a small memo
        memo = {key: entry for key, entry in memo.items() if entry[0]() is not None}
        memo[id(wit), tol] = (weakref.ref(wit), rep)
        object.__setattr__(seq, "_slope_tests", memo)
    return rep


def is_convex(a: SeqLike, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Check ordinary convexity: each a_i at most the midpoint of its neighbours.

    This is :func:`is_convex_wrt` against the arithmetic witness 1..n, whose
    unit gaps make the slopes the forward differences bit-for-bit, in one
    pass.  The reported ``margin`` is half of that report's margin, the
    smallest ``((a[i+1]-a[i]) - (a[i]-a[i-1])) / 2``: the midpoint form
    ``(a[i-1]+a[i+1])/2 - a[i]`` up to rounding, and ±inf where a difference
    increment overflows.  ``first_violation`` is the 1-based interior index,
    one more than the slope pair's.
    """
    seq = RealSeq.of(a)
    rep = is_convex_wrt(seq, unit_witness(len(seq)), tol)
    first = None if rep.first_violation is None else rep.first_violation + 1
    return CheckReport(rep.holds, first, rep.margin / 2, tol)


def classify_shape(a: SeqLike, tol: Tolerance = DEFAULT_TOL) -> ShapeClass:
    """Classify the monotonicity profile of ``a``.

    Step comparisons: strict means a gap above ``tol.abs``, equal means
    within ``tol.abs``.  The profile is accepted exactly when the step signs
    read as a (possibly empty) run of decreases, then a single plateau, then
    a run of increases; anything else (re-descent after an ascent, plateau
    away from the minimum) is rejected.
    """
    signs = [1 if d > tol.abs else -1 if d < -tol.abs else 0 for d in forward_diff(a)]
    if signs != sorted(signs):
        return ShapeClass(ShapeKind.NOT_STRICTLY_V_SHAPED, None)
    n_dec = signs.count(-1)
    n_flat = signs.count(0)
    n_inc = signs.count(1)
    breakpoints = (n_dec + 1, n_flat)
    return ShapeClass(_PROFILES[n_dec > 0, n_flat > 0, n_inc > 0], breakpoints)


def is_relative_convex(a: SeqLike, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when some strictly increasing witness makes ``a`` convex.

    Equivalent to the shape test; the all-constant sequence counts (its
    slope sequence is identically zero against any witness).
    """
    return classify_shape(a, tol).variant is not ShapeKind.NOT_STRICTLY_V_SHAPED


def construct_witness(
    a: SeqLike,
    s: Sequence[float],
    t1: float = 0.0,
    plateau_step: float = 1.0,
    tol: Tolerance = DEFAULT_TOL,
) -> Witness:
    """Build a witness from a slope schedule ``s`` by the slope recursion.

    Starting at ``t1``, each strict step advances by ``(a[i+1]-a[i])/s_k``
    (consuming the next schedule entry, which must be negative on decrease
    steps and positive on increase steps), and each plateau step advances by
    the fixed ``plateau_step``.  The schedule must be strictly increasing and
    have exactly one entry per strict step.  The result's slope sequence is
    ``s`` interleaved with zeros on the plateau, hence non-decreasing.
    """
    seq = RealSeq.of(a)
    shape = classify_shape(seq, tol)
    if shape.variant is ShapeKind.NOT_STRICTLY_V_SHAPED:
        raise ShapeError("sequence is not strictly V-shaped; no witness exists")
    if not plateau_step > tol.abs:
        raise ValueError(f"plateau_step must exceed the strictness tolerance, got {plateau_step!r}")
    sched = tuple(float(v) for v in s)
    for k in range(len(sched) - 1):
        if not sched[k + 1] > sched[k]:
            raise MonotoneError(
                f"slope schedule not strictly increasing at entry {k + 2}"
            )
    t = [float(t1)]
    k = 0
    for i, d in enumerate(_steps(seq.values)):
        if abs(d) <= tol.abs:
            t.append(t[-1] + plateau_step)
            continue
        if k >= len(sched):
            raise LengthMismatch(
                f"slope schedule exhausted at step {i + 1}: need one entry per strict step"
            )
        sk = sched[k]
        if d > 0 and not sk > 0:
            raise SignError(f"schedule entry {k + 1} = {sk!r} must be positive on an increase step")
        if d < 0 and not sk < 0:
            raise SignError(f"schedule entry {k + 1} = {sk!r} must be negative on a decrease step")
        t.append(t[-1] + d / sk)
        k += 1
    if k != len(sched):
        raise LengthMismatch(
            f"slope schedule has {len(sched) - k} unused entries; need one per strict step"
        )
    return Witness.of(t, tol)


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    # endpoints bit-exact
    pts = [lo + (hi - lo) * j / (count - 1) for j in range(count)]
    pts[0] = lo
    pts[-1] = hi
    return pts


def _subdivide_increasing(vals: Sequence[float], lo: float, hi: float) -> list[float]:
    """Witness for a strictly increasing segment with t[0]=lo, t[-1]=hi exact.

    Slopes are chosen as the midpoint of the admissible interval
    (previous slope, remaining-rise / remaining-room); when the plain
    midpoint would already use up the room before the last point, the lower
    end is tightened to the single-step feasibility bound d_i / room.
    Room that rounds to zero, or a slope that is not positive (it
    underflowed, or the room overflowed), is WitnessNotIncreasing.
    """
    n = len(vals)
    if n == 2:
        return [lo, hi]
    t = [lo]
    s_prev = 0.0
    for i in range(n - 2):
        room = hi - t[-1]
        if not room > 0:
            raise WitnessNotIncreasing(f"no room left between t = {t[-1]!r} and the segment end {hi!r}")
        d = vals[i + 1] - vals[i]
        cap = (vals[-1] - vals[i]) / room
        feasible = d / room
        mid = 0.5 * (s_prev + cap)
        if mid <= feasible:
            mid = 0.5 * (feasible + cap)
        if not mid > 0:
            raise WitnessNotIncreasing(f"slope {mid!r} after t = {t[-1]!r} is not positive")
        t.append(t[-1] + d / mid)
        s_prev = mid
    t.append(hi)
    return t


def _subdivide_proportional(vals: Sequence[float], lo: float, hi: float) -> list[float]:
    """Witness for a strictly increasing segment with slopes s_i = c i M_i, t[0]=lo, t[-1]=hi exact.

    M_i is the largest of the first i increments d_i = vals[i] - vals[i-1].
    The gaps are d_i / s_i with c = sum(d_i / (i M_i)) / (hi - lo), so they
    fill the interval.  Consecutive slopes differ by at least the factor
    (i+1)/i, far above the rounding of t, at any length; dividing by M_i
    gives small increments ahead of large ones their share of the room.
    A width that rounds to zero or overflows, or a slope that underflows,
    is WitnessNotIncreasing.
    """
    d = list(_steps(vals))
    scale = list(map(mul, count(1), accumulate(d, max)))
    c = math.fsum(map(truediv, d, scale)) / (hi - lo) if hi > lo else 0.0
    # scale is non-decreasing, so c * scale[0] is the smallest slope a gap is divided by
    if len(d) > 1 and not c * scale[0] > 0:
        raise WitnessNotIncreasing(f"smallest slope {c * scale[0]!r} on [{lo!r}, {hi!r}] is not positive")
    t = list(accumulate((di / (c * si) for di, si in zip(d[:-1], scale)), initial=lo))
    t.append(hi)
    return t


def _subdivide_decreasing(increasing, vals: Sequence[float], lo: float, hi: float) -> list[float]:
    # Reverse-and-reflect: the reversed segment is increasing, and the map
    # x -> lo + hi - x reverses a witness while preserving slope monotonicity.
    rev = increasing(list(reversed(vals)), lo, hi)
    t = [lo + hi - x for x in reversed(rev)]
    t[0] = lo
    t[-1] = hi
    return t


def construct_witness_on_interval(
    a: SeqLike,
    alpha: float,
    beta: float,
    tol: Tolerance = DEFAULT_TOL,
) -> Witness:
    """Witness subdividing [alpha, beta]: t[0] = alpha and t[-1] = beta bit-exactly.

    Monotone runs use the midpoint slope policy of :func:`_subdivide_increasing`;
    a V profile splits the interval at its midpoint; plateaus get an even
    subdivision of their share (the interval is split equally among the
    segments present).  Long runs can round consecutive midpoint slopes out
    of order or together; when that result is not a witness, the monotone
    runs are rebuilt with the slopes of :func:`_subdivide_proportional`.
    When that fails too, the midpoint result's failure is raised:
    WitnessNotIncreasing or WitnessLostConvexity.  A policy fails with
    WitnessNotIncreasing, never a ZeroDivisionError, where a room or a
    segment rounds to zero width or a slope underflows.
    """
    seq = RealSeq.of(a)
    alpha = float(alpha)
    beta = float(beta)
    if not alpha < beta:
        raise IntervalError(f"need alpha < beta, got [{alpha!r}, {beta!r}]")
    shape = classify_shape(seq, tol)
    if shape.variant is ShapeKind.NOT_STRICTLY_V_SHAPED:
        raise ShapeError("sequence is not strictly V-shaped; no witness exists")
    vals = seq.values
    n = len(vals)
    # monotone and constant profiles are the one-segment case of the split below
    m, ell = shape.breakpoints
    i_min = m - 1          # 0-based start of the minimal block
    j_min = i_min + ell    # 0-based end of the minimal block
    nseg = (1 if i_min > 0 else 0) + (1 if ell > 0 else 0) + (1 if j_min < n - 1 else 0)
    cuts = _linspace(alpha, beta, nseg + 1)
    failures = []
    for increasing in (_subdivide_increasing, _subdivide_proportional):
        t: list[float] = []
        k = 0
        try:
            if i_min > 0:
                t.extend(_subdivide_decreasing(increasing, vals[: i_min + 1], cuts[k], cuts[k + 1]))
                k += 1
            if ell > 0:
                seg = _linspace(cuts[k], cuts[k + 1], ell + 1)
                t.extend(seg if not t else seg[1:])
                k += 1
            if j_min < n - 1:
                seg = increasing(vals[j_min:], cuts[k], cuts[k + 1])
                t.extend(seg if not t else seg[1:])
            wit = Witness.of(t, tol)
        except WitnessNotIncreasing as err:
            failures.append(err)
            continue
        bad = is_convex_wrt(seq, wit, tol).first_violation
        if bad is None:
            return wit
        failures.append(WitnessLostConvexity(
            f"constructed witness fails the slope test at slope pair {bad}"))
    raise failures[0]
