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
from collections import namedtuple
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate, count, islice, repeat
from operator import eq, gt, indexOf, lt, sub, truediv
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import (
    IndexOutOfRange,
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


class Tolerance(namedtuple("Tolerance", "abs rel")):
    """Absolute/relative slack applied by every comparison in the package.

    ``abs`` is the unconditional slack; ``rel`` is multiplied by the scale
    of the quantities being compared.  Both default to the package-wide
    values needed for transcendental inputs (ln, arctan, ...).

    Every verdict measures its slacks against :meth:`allowed`, at the scale
    of the operands it compares.  :func:`scan_margin` takes that scale only
    when the smallest slack is negative or an operand is non-finite: the
    allowance is never negative, so a non-negative slack never needs it.
    Comparisons of a quantity with zero or with a fixed point use ``abs``
    alone: the plateau steps at the minimum in :func:`classify_shape`, the
    witness gaps, the domain and range clamps and the endpoint check of
    ``hhf_bounds``.

    A named tuple ``(abs, rel)``; built by any route (``_replace``, ``copy``,
    ``pickle``), it rejects a negative, infinite or NaN component.
    """

    __slots__ = ()

    def __new__(cls, abs: float = 1e-9, rel: float = 1e-12) -> "Tolerance":
        if abs < 0 or rel < 0 or not math.isfinite(abs + rel):
            raise ValueError("tolerance components must be finite and non-negative")
        return super().__new__(cls, abs, rel)

    @classmethod
    def _make(cls, iterable) -> "Tolerance":
        # the base's _make, which _replace calls, would skip the check
        return cls(*iterable)

    def __reduce__(self):
        # copy and every pickle protocol rebuild through the check (protocols 0 and 1 would not)
        return type(self), tuple(self)

    def slack(self, scale: float = 1.0) -> float:
        """Total allowed slack for quantities of magnitude ``scale``."""
        return self.abs + self.rel * abs(scale)

    def allowed(self, operands: Iterable[float]) -> float:
        """:meth:`slack` at the largest |operand|; NonFiniteArithmetic if an operand is inf or NaN."""
        if not isinstance(operands, (list, tuple)):
            operands = tuple(operands)
        # the largest |x| is max or -min; slack() takes abs, so the sign of a zero scale is immaterial
        scale = max(max(operands, default=0.0), -min(operands, default=0.0))
        # max passes over a NaN that does not come first; the sum is NaN whenever one is present
        if math.isnan(sum(operands)):
            scale = math.nan
        if not scale < math.inf:
            raise NonFiniteArithmetic(f"compared quantities reach {scale!r}")
        return self.slack(scale)


DEFAULT_TOL = Tolerance()

def _of(name: str | None) -> str:
    """`` of 'a'``, naming the argument a message is about; empty for a vector without a name."""
    return "" if name is None else f" of {name!r}"


def _ordered(values, name: str | None = None):
    """``values``, the argument ``name``, as a sequence that iterates more than once.  Text, bytes,
    a set, a dict and a named-tuple record iterate, but are no ordered sequence of reals: a TypeError."""
    kind = type(values)
    if kind is list or kind is tuple:
        return values
    if isinstance(values, (str, bytes, bytearray, set, frozenset, dict)) or hasattr(values, "_fields"):
        named = "" if name is None else f" as {name!r}"
        raise TypeError(f"expected an ordered sequence of reals{named}, got {kind.__name__}")
    return tuple(values) if iter(values) is values else values  # a failing entry is found again


def _reals(values, name: str | None = None) -> tuple[float, ...]:
    """The one input converter: :func:`_ordered` ``values`` as floats, an integer beyond float range as
    ±inf (as JSON reads 1e400); an entry that is no real keeps ``float``'s error type, reworded."""
    values = _ordered(values, name)
    try:
        return tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):
        out = []
    for k, v in enumerate(values, 1):
        try:
            out.append(float(v))
        except OverflowError:
            out.append(-math.inf if v < 0 else math.inf)
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"entry {k}{_of(name)} is not a number: {v!r}") from None
    return tuple(out)


def _index(value, n: int, name: str, k: int | None = None) -> int:
    """``value`` as an index in 1..n: an integral real, such as 2, 2.0 or "2"; else IndexOutOfRange.
    An integer beyond float range is shown as the infinity it reads as."""
    try:
        i = float(value)
    except OverflowError:
        i = value = -math.inf if value < 0 else math.inf
    except (TypeError, ValueError):
        i = None
    if i is not None and i.is_integer() and 1 <= i <= n:
        return int(i)
    where = f"{name} {value!r}" if k is None else f"{name}[{k}] = {value if i is None else i!r}"
    raise IndexOutOfRange(f"{where} is not an integer index in 1..{n}")


class _Floats:
    """Finite floats of any length, read-only: the one validation path of every input
    vector, the data vectors of the functionals and the slope schedule included; :meth:`of`
    passes one through.  Each error names ``name``, the caller's argument, when given.
    One sum screens the values for inf and NaN, as in :func:`scan_margin`; only a sum
    that is not finite is followed by the scan that names the entry (finite values whose
    sum overflows pass it).

    Equal, with equal hashes, only to an object of the same class with the same
    ``values``.  Attributes cannot be assigned or deleted; the memos are set with
    ``object.__setattr__`` (a ``cached_property`` writes ``__dict__`` itself).  A
    ``copy`` or ``pickle`` carries the values only, none of the memos."""

    values: tuple[float, ...]
    _what = "sequence"
    _min_len = 0

    def __init__(self, values: Iterable[float], name: str | None = None) -> None:
        object.__setattr__(self, "values", _reals(values, name))
        self.__post_init__(name)

    def __post_init__(self, name: str | None = None) -> None:
        vals = self.values
        if len(vals) < self._min_len:
            what = self._what if name is None else repr(name)
            raise LengthError(f"{what} needs at least {self._min_len} entries, got {len(vals)}")
        # a sum of floats is inf or NaN whenever a term is, compensated (3.12+) or not
        if not math.isfinite(sum(vals)):
            k = next((k for k, v in enumerate(vals) if not math.isfinite(v)), None)
            if k is not None:
                raise ValueError(f"entry {k + 1}{_of(name)} is not finite: {vals[k]!r}")

    @classmethod
    def of(cls, values, name: str | None = None):
        return values if isinstance(values, cls) else cls(values, name)

    @cached_property
    def extremes(self) -> tuple[float, float]:
        """``(min, max)`` of a non-empty vector, as ``min`` and ``max`` return them: the first
        of equal values, 0.0 or -0.0."""
        return min(self.values), max(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __getstate__(self):
        # the memos (slope tests, moments, extremes) are not state; a copy starts without them
        return {"values": self.values}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(values={self.values!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")


class RealSeq(_Floats):
    """Finite sequence of finite reals; the payload of every check.

    Length must be at least 2 so the difference operators are defined.
    """

    _min_len = 2


class Witness(RealSeq):
    """Strictly increasing abscissae that a sequence's convexity is measured against.

    One rule, judged first, before length and finiteness: every gap is above a floor, 0 in
    the constructor (for finite floats, exactly strict increase) and ``tol.abs`` in :meth:`of`.
    :meth:`of` returns a ``Witness`` unchanged, not judging its gaps at the call's tolerance:
    the engines for ordinary convexity measure against the unit witness 1..n, whose gaps go
    unjudged, so at ``tol.abs`` = 2 ``is_convex([3, 1, 2], tol)`` holds where
    ``is_convex_wrt`` at t = 1..3 raises.
    """

    _what = "witness"

    def __init__(self, values: Iterable[float], name: str | None = None) -> None:
        self._build(values, 0.0, name)

    def _build(self, values, floor: float, name: str | None) -> None:
        """The one build: ``values`` as floats whose every gap is above ``floor`` >= 0."""
        vals = _reals(values, name)
        # all(gt), not min: a NaN gap fails gt, so next() names it too
        if not all(map(gt, _steps(vals), repeat(floor))):
            k, gap = next((k, g) for k, g in enumerate(_steps(vals), 1) if not g > floor)
            raise WitnessNotIncreasing(
                f"gap t[{k + 1}] - t[{k}] = {gap!r} is not above the strictness tolerance {floor!r}"
            )
        object.__setattr__(self, "values", vals)
        self.__post_init__(name)

    @classmethod
    def of(cls, values: WitnessLike, tol: Tolerance = DEFAULT_TOL, name: str | None = None) -> "Witness":
        if isinstance(values, cls):
            return values
        wit = object.__new__(cls)
        wit._build(values, tol.abs, name)  # a Tolerance keeps tol.abs >= 0
        return wit

    @cached_property
    def _unit(self) -> bool:
        """The values are exactly 1..n, so every gap is 1.0 and a slope is its difference
        (x / 1.0 = x); one pass at most, up to the first entry that is off 1..n."""
        return all(map(eq, self.values, count(1.0)))


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

#: The signs of each kind's runs, in order: -1 a strict decrease, 0 the plateau at the minimum,
#: +1 a strict increase.  The rejected kind's (1, -1) is a rise, then a fall.
_SEGMENTS = {
    ShapeKind.STRICTLY_INCREASING: (1,),
    ShapeKind.STRICTLY_DECREASING: (-1,),
    ShapeKind.DEC_THEN_CONST: (-1, 0),
    ShapeKind.CONST_THEN_INC: (0, 1),
    ShapeKind.DEC_THEN_INC: (-1, 1),
    ShapeKind.DEC_CONST_INC: (-1, 0, 1),
    ShapeKind.CONSTANT: (0,),
    ShapeKind.NOT_STRICTLY_V_SHAPED: (1, -1),
}

#: The accepted profile for each (any decrease, any plateau, any increase) around the minimal block.
_PROFILES = {(-1 in s, 0 in s, 1 in s): kind
             for kind, s in _SEGMENTS.items() if kind in RELATIVE_CONVEX_KINDS}


class ShapeClass(NamedTuple):
    """Classification result.

    ``breakpoints = (m, ell)`` locates the minimal block: ``m`` is the
    1-based index where it starts and ``ell`` is the number of plateau
    steps in it.  ``None`` for the rejected case.
    """

    variant: ShapeKind
    breakpoints: tuple[int, int] | None = None


class CheckReport(NamedTuple):
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


def scan_margin(gaps: Iterable[float], tol: Tolerance, operands: Iterable[float],
                labels: Iterable | None = None):
    """``(first, margin)`` over the signed slacks ``gaps``, judged at ``tol.allowed(operands)``.

    ``margin`` is the smallest gap (``inf`` when there is none); ``first`` is
    the label of the first gap below the negated allowance, or None.  Labels
    default to the 1-based positions 1, 2, ...  Deriving both from the one
    threshold makes every report satisfy ``holds == (first is None)``.  This
    is the only place a gap is judged and the only place its scale is taken,
    bar its numpy twin ``diagnostics._fold``, which judges the blocks of the
    super-linear scans in the same IEEE operations: an inf or NaN operand
    raises :class:`NonFiniteArithmetic` as :meth:`Tolerance.allowed` does,
    before a NaN gap raises it.

    The gaps are judged at C level, as a list (any other iterable is made
    one): ``min``, and the first gap below the threshold.  The scale is taken
    only when the smallest gap is negative: the allowance is never negative,
    so a non-negative gap is never a violation.  One sum screens the operands
    for inf and NaN and one the gaps for NaN; a screen that fires takes the
    scale first or finds the first NaN gap, so it raises only on a real inf or
    NaN (an overflowing sum of finite operands, or inf + -inf among the gaps,
    goes on to ``min``).
    """
    if not isinstance(gaps, list):
        gaps = list(gaps)
    if not isinstance(operands, (list, tuple)):
        operands = tuple(operands)
    # a sum of floats is inf or NaN whenever a term is, compensated (3.12+) or not
    if not math.isfinite(sum(operands)):
        tol.allowed(operands)
    if math.isnan(sum(gaps)) and any(map(math.isnan, gaps)):
        raise NonFiniteArithmetic(f"gap {_label(labels, indexOf(map(math.isnan, gaps), True))!r} is NaN")
    margin = min(gaps, default=math.inf)
    if margin >= 0:
        return None, margin
    threshold = -tol.allowed(operands)
    if not margin < threshold:
        return None, margin
    return _label(labels, indexOf(map(lt, gaps, repeat(threshold)), True)), margin


def _label(labels: Iterable | None, k: int):
    """The label of the 0-based gap ``k``: its 1-based position when ``labels`` is None."""
    return k + 1 if labels is None else next(islice(labels, k, None))


def _remembered(owner: _Floats, memo: str, key, compute, x, y):
    """``compute()``, remembered in the dict ``memo`` on the frozen ``owner`` per (``key``, x, y), y = x
    for one object, unless it raises.  An entry holds x and y by weak reference; a hit must find them
    alive, as a dead object's id may be reused, and an object taking no weak reference is not remembered.
    An insert finding 8, 16, 32, ... entries drops those of dead objects, such as inputs built in a call."""
    entries = vars(owner).get(memo, {})
    slot = (key, id(x), id(y))
    hit = entries.get(slot)
    if hit is not None and hit[0]() is x and hit[1]() is y:
        return hit[2]
    value = compute()
    try:
        refs = weakref.ref(x), weakref.ref(y)
    except TypeError:  # a map object with __slots__, say
        return value
    if len(entries) >= 8 and not len(entries) & (len(entries) - 1):
        entries = {k: e for k, e in entries.items() if e[0]() is not None and e[1]() is not None}
    # a published memo is never mutated, so a concurrent caller never iterates a changing dict
    object.__setattr__(owner, memo, {**entries, slot: (*refs, value)})
    return value


@lru_cache(maxsize=1)
def unit_witness(n: int) -> "Witness":
    """The arithmetic witness 1..n, against which ordinary convexity is measured.

    The last n is cached: a :class:`Witness` is frozen, so callers share it.
    """
    return Witness(tuple(map(float, range(1, n + 1))))


def _steps(v: Sequence[float]) -> Iterator[float]:
    """The differences ``v[i+1] - v[i]``, lazily and at C level; :func:`_slopes` divides two of them."""
    return map(sub, islice(v, 1, None), v)


def _slopes(v: Sequence[float], over: Sequence[float]) -> list[float]:
    """The slopes ``(v[i+1] - v[i]) / (over[i+1] - over[i])`` as a list, from one comprehension.

    The IEEE operations of ``map(truediv, _steps(v), _steps(over))`` in the same order, so the
    same bits, but faster: the chain calls into ``operator`` three times per step.  A caller
    that needs a tuple (``build_extension``) streams that chain into it instead, so as not to
    hold this list and its copy at once."""
    return [(v1 - v0) / (o1 - o0)
            for v0, v1, o0, o1 in zip(v, islice(v, 1, None), over, islice(over, 1, None))]


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
    return tuple(_steps(RealSeq.of(a, "a").values))


def paired(a: SeqLike, t: WitnessLike, tol: Tolerance = DEFAULT_TOL) -> tuple[RealSeq, Witness]:
    """Validate a sequence and its witness together; they must have equal length."""
    seq = RealSeq.of(a, "a")
    wit = Witness.of(t, tol, "t")
    _same_length("a t", seq, wit)
    return seq, wit


def is_convex_wrt(a: SeqLike, t: WitnessLike, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Check that the slope sequence of ``a`` against ``t`` is non-decreasing.

    ``margin`` is the minimum slope increment; ``first_violation`` is the
    1-based index i of the first failing pair (slope i vs slope i+1).
    Length-2 input is vacuously convex (single slope).

    Both inputs are frozen, so the test runs once per (sequence, witness,
    tolerance): the report is remembered on the :class:`RealSeq` per witness
    object and ``tol`` by :func:`_remembered`.  Against a witness whose values
    are exactly 1..n, however built, the slopes are the forward differences,
    not divided by the unit gaps (x / 1.0 = x): the same bits, one pass.
    """
    seq, wit = paired(a, t, tol)

    def test() -> CheckReport:
        ratios = list(_steps(seq.values)) if wit._unit else _slopes(seq.values, wit.values)
        first, margin = scan_margin(_steps(ratios), tol, ratios)
        return CheckReport(first is None, first, margin, tol)

    return _remembered(seq, "_slope_tests", tol, test, wit, wit)


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
    seq = RealSeq.of(a, "a")
    rep = is_convex_wrt(seq, unit_witness(len(seq)), tol)
    first = None if rep.first_violation is None else rep.first_violation + 1
    return CheckReport(rep.holds, first, rep.margin / 2, tol)


def classify_shape(a: SeqLike, tol: Tolerance = DEFAULT_TOL) -> ShapeClass:
    """Classify the monotonicity profile of ``a``.

    The minimal block starts at the first minimum and extends over the
    adjoining steps within ``tol.abs``: those steps are the plateau.  Every
    other step is read by its exact sign.  The profile is accepted exactly
    when every step before the block decreases and every step after it
    increases; anything else (re-descent after an ascent, a plateau away
    from the minimum) is rejected.  The kind is the one whose runs in
    ``_SEGMENTS`` are the runs present: a decrease, a plateau, an increase.
    """
    seq = RealSeq.of(a, "a")
    d = list(_steps(seq.values))
    first = last = seq.values.index(seq.extremes[0])
    while first > 0 and abs(d[first - 1]) <= tol.abs:
        first -= 1
    while last < len(d) and abs(d[last]) <= tol.abs:
        last += 1
    if not max(d[:first], default=-1.0) < 0 < min(d[last:], default=1.0):
        return ShapeClass(ShapeKind.NOT_STRICTLY_V_SHAPED, None)
    return ShapeClass(_PROFILES[first > 0, last > first, last < len(d)], (first + 1, last - first))


def _minimal_block(a: SeqLike, tol: Tolerance) -> tuple[int, int]:
    """0-based (first, last) of the minimal block :func:`classify_shape` reads in ``a``: steps
    first..last-1 are its plateau.  ShapeError when the profile is rejected."""
    breakpoints = classify_shape(a, tol).breakpoints
    if breakpoints is None:
        raise ShapeError("sequence is not strictly V-shaped; no witness exists")
    m, ell = breakpoints
    return m - 1, m - 1 + ell


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

    Starting at ``t1``, which must be finite, each strict step advances by
    ``(a[i+1]-a[i])/s_k`` (consuming the next schedule entry, which must be
    negative on decrease steps and positive on increase steps), and each
    plateau step, a step of the minimal block of :func:`classify_shape`,
    advances by the fixed ``plateau_step``.  The schedule must be strictly
    increasing and have exactly one entry per strict step.  The result's
    slope sequence is ``s`` interleaved with zeros on the plateau, hence
    non-decreasing.  Every step of t must be finite and above ``tol.abs``,
    or WitnessNotIncreasing names the step and its cause, the entry of ``s``
    or the plateau step: the step that takes t to inf when the recursion
    overflows, and otherwise the first step that a tiny gap or rounding
    leaves within the tolerance.
    """
    seq = RealSeq.of(a, "a")
    first, last = _minimal_block(seq, tol)
    if not plateau_step > tol.abs:
        raise ValueError(f"plateau_step must exceed the strictness tolerance, got {plateau_step!r}")
    t1 = float(t1)
    if not math.isfinite(t1):
        raise ValueError(f"t1 must be finite, got {t1!r}")
    sched = _Floats.of(s, "s").values
    for k in range(len(sched) - 1):
        if not sched[k + 1] > sched[k]:
            raise MonotoneError(
                f"slope schedule 's' not strictly increasing at entry {k + 2}"
            )
    rises = list(_steps(seq.values))
    strict = rises[:first] + rises[last:]  # the steps outside the block, one schedule entry each
    for k, (d, sk) in enumerate(zip(strict, sched)):
        if d > 0 and not sk > 0:
            raise SignError(f"entry {k + 1} of 's' = {sk!r} must be positive on an increase step")
        if d < 0 and not sk < 0:
            raise SignError(f"entry {k + 1} of 's' = {sk!r} must be negative on a decrease step")
    if len(sched) < len(strict):
        step = len(sched) + 1 + (last - first if len(sched) >= first else 0)  # numbered among all steps
        raise LengthMismatch(
            f"slope schedule 's' exhausted at step {step}: need one entry per strict step"
        )
    if len(sched) > len(strict):
        raise LengthMismatch(
            f"slope schedule 's' has {len(sched) - len(strict)} unused entries; need one per strict step"
        )
    gaps = list(map(truediv, strict, sched))
    gaps[first:first] = repeat(plateau_step, last - first)
    t = list(accumulate(gaps, initial=t1))
    # step k takes t[k - 1] to t[k]; every gap is positive or zero, so t stays infinite from
    # the step that overflows on, and that step is named before any earlier one within the tolerance
    bad = [k for k, d in enumerate(_steps(t), 1) if not (math.isfinite(d) and d > tol.abs)]
    if bad:
        k = min(bad, key=lambda k: (math.isfinite(t[k]), k))
        if first < k <= last:
            cause, rise = f"the plateau step {plateau_step!r}", f"{plateau_step!r}"
        else:
            j = k if k <= first else k - (last - first)
            cause, rise = f"entry {j} of 's' = {sched[j - 1]!r}", f"{strict[j - 1]!r} / {sched[j - 1]!r}"
        if math.isfinite(t[k]):
            raise WitnessNotIncreasing(
                f"{cause} leaves step {k} of the slope recursion within the strictness tolerance "
                f"{tol.abs!r}: {t[k - 1]!r} + {rise} = {t[k]!r}, a step of {t[k] - t[k - 1]!r}")
        raise WitnessNotIncreasing(f"{cause} overflows the slope recursion at step {k}: "
                                   f"{t[k - 1]!r} + {rise} = {t[k]!r}")
    return Witness.of(t, tol)


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    # endpoints bit-exact
    pts = [lo + (hi - lo) * j / (count - 1) for j in range(count)]
    pts[0] = lo
    pts[-1] = hi
    return pts


# the growth factors g that construct_witness_on_interval tries, largest first;
# (1 + 2**-52)**m stays below 2**52 for any run of m steps that fits in memory
_GROWTH = (2.0**-1, 2.0**-4, 2.0**-8, 2.0**-16, 2.0**-24, 2.0**-32, 2.0**-40, 2.0**-52)


def _subdivide_increasing(vals: Sequence[float], lo: float, hi: float, g: float) -> list[float]:
    """Gaps d_i / s_i that subdivide [lo, hi] for a strictly increasing run.

    The slopes are s_i = c (1+g)^i m_i, counting from i = 0, with d_i the
    increments vals[i+1] - vals[i] and m_i = min(d_i, d_{i+1}, ...) their
    suffix minimum.  m_i never decreases, so each slope is at least 1+g
    times the one before, and no slope is raised by a larger step earlier
    in the run.  c = fsum(d_i / ((1+g)^i m_i)) / (hi - lo), so the gaps
    fill the interval.  A single gap is the whole width.  A width that
    rounds to zero or overflows, or a slope that underflows, is
    WitnessNotIncreasing.
    """
    d = list(_steps(vals))
    if len(d) == 1:
        return [hi - lo]
    suffix_min = list(accumulate(reversed(d), min))[::-1]
    scale = [m * (1 + g) ** i for i, m in enumerate(suffix_min)]
    c = math.fsum(map(truediv, d, scale)) / (hi - lo) if hi > lo else 0.0
    # scale is non-decreasing, so c * scale[0] is the smallest slope
    if not c * scale[0] > 0:
        raise WitnessNotIncreasing(f"smallest slope {c * scale[0]!r} on [{lo!r}, {hi!r}] is not positive")
    return [di / (c * si) for di, si in zip(d, scale)]


def construct_witness_on_interval(
    a: SeqLike,
    alpha: float,
    beta: float,
    tol: Tolerance = DEFAULT_TOL,
) -> Witness:
    """Witness subdividing [alpha, beta]: t[0] = alpha and t[-1] = beta bit-exactly.

    A V profile splits the interval evenly among the segments present
    (decreasing run, plateau, increasing run), and a plateau gets an even
    subdivision of its share.  A monotone run gets the gaps of the
    suffix-minimum slopes of :func:`_subdivide_increasing`, summed from the
    left end of its share; a decreasing run takes the gaps of its reversal
    in reverse order.  A large growth factor g keeps consecutive slopes
    apart after rounding; a small one keeps the late gaps of a long run
    above the rounding of t, which (1+g)^m >= 2^52 on a run of m steps
    rules out.  So the factors of ``_GROWTH`` are tried in turn, from the
    largest with (1+g)^m < 2^52 on the longest monotone run, and the first
    result that passes the slope test is returned.  When none does, the
    first factor's failure is raised: WitnessNotIncreasing or
    WitnessLostConvexity.  A share that rounds to zero width or overflows,
    or a slope that underflows, is WitnessNotIncreasing, never a
    ZeroDivisionError.  A non-finite alpha or beta is an IntervalError.
    """
    seq = RealSeq.of(a, "a")
    alpha = float(alpha)
    beta = float(beta)
    for name, end in (("alpha", alpha), ("beta", beta)):
        if not math.isfinite(end):
            raise IntervalError(f"{name} must be finite, got {end!r}")
    if not alpha < beta:
        raise IntervalError(f"need alpha < beta, got [{alpha!r}, {beta!r}]")
    first, last = _minimal_block(seq, tol)
    vals = seq.values
    # the runs present, in order: decreasing, the minimal block, increasing
    runs = ((-1, vals[: first + 1]), (0, vals[first : last + 1]), (1, vals[last:]))
    runs = [(sign, run) for sign, run in runs if len(run) > 1]
    cuts = _linspace(alpha, beta, len(runs) + 1)
    steps = max((len(run) - 1 for sign, run in runs if sign), default=0)
    failures = []
    for g in [g for g in _GROWTH if steps * math.log2(1 + g) < 52]:
        t = [alpha]
        try:
            for (sign, run), lo, hi in zip(runs, cuts, cuts[1:]):
                if sign:
                    # the last gap is what is left up to hi, so both ends are exact
                    gaps = _subdivide_increasing(run[::sign], lo, hi, g)[::sign]
                    t.extend(islice(accumulate(gaps[:-1], initial=lo), 1, None))
                    t.append(hi)
                else:
                    t.extend(_linspace(lo, hi, len(run))[1:])
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
