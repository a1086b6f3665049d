"""Weighted mean / covariance functionals and the majorization preorder."""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Sequence, Union

from .errors import DegenerateWitness, LengthMismatch, NonFiniteArithmetic, ZeroTotalWeight
from .seqcore import DEFAULT_TOL, Tolerance, Witness, WitnessLike, _Floats, _to_floats

WeightLike = Union["WeightVec", Sequence[float]]


class WeightVec(_Floats):
    """Non-negative weights with a strictly positive total; one weight suffices."""

    _what = "weights"
    _min_len = 0  # an empty vector has zero total

    def __post_init__(self) -> None:
        super().__post_init__()
        if min(self.values, default=0.0) < 0:
            k, v = next((k, v) for k, v in enumerate(self.values) if v < 0)
            raise ValueError(f"weight {k + 1} must be non-negative, got {v!r}")
        if not self.total > 0:
            raise ZeroTotalWeight("weights must have a positive total")

    @property
    def weights(self) -> tuple[float, ...]:
        return self.values

    @cached_property
    def total(self) -> float:
        return _fsum(self.values)


def _fsum(terms) -> float:
    """``math.fsum`` of terms that may overflow: inf - inf, or finite terms whose sum
    overflows, raise NonFiniteArithmetic."""
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError) as exc:  # "-inf + inf", "intermediate overflow"
        raise NonFiniteArithmetic(str(exc)) from None


def weighted_mean(x: Sequence[float], p: WeightLike) -> float:
    """Weighted average sum(p_i x_i) / sum(p_i)."""
    xv = _to_floats(x)
    pv = WeightVec.of(p)
    if len(xv) != len(pv):
        raise LengthMismatch(f"|x| = {len(xv)} but |p| = {len(pv)}")
    return _fsum(map(mul, pv.weights, xv)) / pv.total


def cov_functional(x: Sequence[float], y: Sequence[float], p: WeightLike) -> float:
    """Weighted covariance-type functional: mean(xy) - mean(x) mean(y).

    Symmetric in (x, y); vanishes when either argument is constant; the
    diagonal is the weighted variance, hence non-negative.
    """
    xv = _to_floats(x)
    yv = _to_floats(y)
    pv = WeightVec.of(p)
    if not len(xv) == len(yv) == len(pv):
        raise LengthMismatch(f"|x| = {len(xv)}, |y| = {len(yv)}, |p| = {len(pv)}")
    total = pv.total
    wx = tuple(map(mul, pv.weights, xv))
    mxy = _fsum(map(mul, wx, yv)) / total
    mx = _fsum(wx) / total
    my = _fsum(map(mul, pv.weights, yv)) / total
    return mxy - mx * my


def _require_spread(variance: float, wit: Witness, tol: Tolerance, message: str) -> None:
    """Raise DegenerateWitness unless a variance of ``wit`` is positive at the scale of
    its spread (t_n - t_1)^2, not its magnitude, so translating t cannot make it degenerate."""
    spread = wit[-1] - wit[0]
    if variance <= tol.allowed((spread * spread,)):
        raise DegenerateWitness(message)


def lupas_constant(t: WitnessLike, tol: Tolerance = DEFAULT_TOL) -> float:
    """Normalizer 1 / (sum t_i^2 - (sum t_i)^2 / n) for the uniform-weight bound.

    For t = (1, ..., n) this equals 12 / (n (n^2 - 1)).  Strictly positive
    for any strictly increasing t; guarded anyway.  The denominator is
    summed in the centred form sum (t_i - mean t)^2, so it is exact to
    rounding at the scale of the spread, whatever the offset of t.
    """
    wit = Witness.of(t, tol)
    mean = _fsum(wit.values) / len(wit)
    dev = [v - mean for v in wit.values]
    denom = _fsum(map(mul, dev, dev))
    _require_spread(denom, wit, tol, f"centered square sum {denom!r} is not positive")
    return 1.0 / denom


def majorizes(x: Sequence[float], y: Sequence[float], tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when x is majorized by y (x ≺ y).

    After sorting both in decreasing order, every prefix sum of x must stay
    at or below the matching prefix sum of y, and the totals must agree.
    Comparisons allow ``tol.allowed((sum|y|,))`` of slack.  Sorting is
    stable, so ties keep their original order (irrelevant to the verdict).
    """
    xv = _to_floats(x)
    yv = _to_floats(y)
    if len(xv) != len(yv):
        raise LengthMismatch(f"|x| = {len(xv)} but |y| = {len(yv)}")
    allowed = tol.allowed((_fsum(map(abs, yv)),))
    xs = sorted(xv, reverse=True)
    ys = sorted(yv, reverse=True)
    if any(px > py + allowed for px, py in zip(accumulate(xs[:-1]), accumulate(ys[:-1]))):
        return False
    return abs(_fsum(xs) - _fsum(ys)) <= allowed
