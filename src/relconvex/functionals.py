"""Weighted mean / covariance functionals and the majorization preorder."""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Sequence, Union

from .errors import DegenerateWitness, NonFiniteArithmetic, ZeroTotalWeight
from .seqcore import DEFAULT_TOL, Tolerance, Witness, WitnessLike, _Floats, _of, _remembered, _same_length

WeightLike = Union["WeightVec", Sequence[float]]


class WeightVec(_Floats):
    """Non-negative weights with a strictly positive total; one weight suffices."""

    _what = "weights"

    def __post_init__(self, name: str | None = None) -> None:
        super().__post_init__(name)
        if min(self.values, default=0.0) < 0:
            k, v = next((k, v) for k, v in enumerate(self.values) if v < 0)
            raise ValueError(f"weight {k + 1}{_of(name)} must be non-negative, got {v!r}")
        if not self.total > 0:
            raise ZeroTotalWeight(f"{self._what if name is None else repr(name)} must have a positive total")

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


@lru_cache(maxsize=1)
def unit_weights(n: int) -> WeightVec:
    """The uniform weights of length n; the last n is cached, its moments with it (it is frozen)."""
    return WeightVec((1.0,) * n)


def _mean(x: _Floats, pv: WeightVec) -> float:
    """sum(p_i x_i) / P, remembered on ``pv`` per ``x`` object."""
    return _remembered(pv, "_moments", "mean", lambda: _fsum(map(mul, pv.weights, x.values)) / pv.total, x, x)


def _cov(x: _Floats, mx: float, y: _Floats, my: float, pv: WeightVec) -> float:
    """S(x, y) = sum p_i (x_i - mx)(y_i - my) / P at the means of x and y, likewise remembered."""
    return _remembered(pv, "_moments", "cov",
                       lambda: _centred(x.values, mx, y.values, my, pv.weights, pv.total), x, y)


def weighted_mean(x: Sequence[float], p: WeightLike) -> float:
    """Weighted average sum(p_i x_i) / sum(p_i)."""
    xv, pv = _Floats.of(x, "x"), WeightVec.of(p, "p")
    _same_length("x p", xv, pv)
    return _mean(xv, pv)


def _centred(x: Sequence[float], mx: float, y: Sequence[float], my: float, w, total: float = 1.0) -> float:
    """sum w_i (x_i - mx)(y_i - my) / total, the deviations streamed: no n-long list is stored."""
    return _fsum(wi * (xi - mx) * (yi - my) for wi, xi, yi in zip(w, x, y)) / total


def cov_functional(x: Sequence[float], y: Sequence[float], p: WeightLike) -> float:
    """Weighted covariance-type functional mean((x - mean x)(y - mean y)).

    Summed in the centred two-pass form, so its rounding error is set by the
    deviations from the means, however far x and y sit from the origin.
    Symmetric in (x, y); vanishes when either argument is constant; the
    diagonal is the weighted variance, hence non-negative.  The means and
    the sum are remembered on p for later calls on the same objects.
    """
    xv, yv, pv = _Floats.of(x, "x"), _Floats.of(y, "y"), WeightVec.of(p, "p")
    _same_length("x y p", xv, yv, pv)
    return _cov(xv, _mean(xv, pv), yv, _mean(yv, pv), pv)


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
    wit = Witness.of(t, tol, "t")
    mean = _fsum(wit.values) / len(wit)
    denom = _centred(wit.values, mean, wit.values, mean, repeat(1.0))
    _require_spread(denom, wit, tol, f"centered square sum {denom!r} is not positive")
    return 1.0 / denom


def majorizes(x: Sequence[float], y: Sequence[float], tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when x is majorized by y (x ≺ y).

    After sorting both in decreasing order, every prefix sum of x must stay
    at or below the matching prefix sum of y, and the totals must agree.
    Comparisons allow ``tol.allowed((sum|y|,))`` of slack.  Sorting is
    stable, so ties keep their original order (irrelevant to the verdict).
    """
    xv, yv = _Floats.of(x, "x"), _Floats.of(y, "y")
    _same_length("x y", xv, yv)
    allowed = tol.allowed((_fsum(map(abs, yv.values)),))
    xs = sorted(xv.values, reverse=True)
    ys = sorted(yv.values, reverse=True)
    if any(px > py + allowed for px, py in zip(accumulate(xs[:-1]), accumulate(ys[:-1]))):
        return False
    return abs(_fsum(xs) - _fsum(ys)) <= allowed
