"""Weighted mean / covariance functionals and the majorization preorder."""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from operator import eq, mul, sub
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

    @cached_property
    def _unit(self) -> bool:
        """Every weight is 1.0, so a weighted term is the term (1.0 x = x) and the total is
        exactly n; one pass at most, up to the first weight that is not 1.0."""
        return all(map(eq, self.values, repeat(1.0)))


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


def _mean(x: _Floats, pv: WeightVec, origin: float = 0.0) -> float:
    """sum(p_i (x_i - origin)) / P, remembered on ``pv`` per ``x`` object and origin."""
    terms = map(sub, x.values, repeat(origin)) if origin else x.values
    if not pv._unit:
        terms = map(mul, pv.weights, terms)
    return _remembered(pv, "_moments", ("mean", origin), lambda: _fsum(terms) / pv.total, x, x)


def _cov(x: _Floats, mx: float, y: _Floats, my: float, pv: WeightVec) -> float:
    """S(x, y) = sum p_i (x_i - mx)(y_i - my) / P at the means of x and y, likewise remembered.
    The one object twice (so one mean) is a self-moment of :func:`_centred`."""
    return _remembered(pv, "_moments", "cov",
                       lambda: _centred(x.values, mx, None if y is x else y.values, my,
                                        None if pv._unit else pv.weights, pv.total), x, y)


def weighted_mean(x: Sequence[float], p: WeightLike) -> float:
    """Weighted average sum(p_i x_i) / sum(p_i)."""
    xv, pv = _Floats.of(x, "x"), WeightVec.of(p, "p")
    _same_length("x p", xv, pv)
    return _mean(xv, pv)


def _centred(x: Sequence[float], mx: float, y: Sequence[float] | None = None, my: float = 0.0,
             w: Sequence[float] | None = None, total: float = 1.0) -> float:
    """sum w_i (x_i - mx)(y_i - my) / total, the deviations streamed: no n-long list is stored.

    Two omissions change no bit.  ``y`` None is the self-moment of x (my is mx): each
    deviation is taken once, as w_i (d := x_i - mx) d.  ``w`` None is the unit weights:
    the factor is dropped, as 1.0 d = d.  Passing y = x or ones for w gives the same bits.
    """
    if y is None:
        terms = (((d := xi - mx) * d for xi in x) if w is None
                 else (wi * (d := xi - mx) * d for wi, xi in zip(w, x)))
    elif w is None:
        terms = ((xi - mx) * (yi - my) for xi, yi in zip(x, y))
    else:
        terms = (wi * (xi - mx) * (yi - my) for wi, xi, yi in zip(w, x, y))
    return _fsum(terms) / total


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
    denom = _centred(wit.values, mean)  # unit weights, a self-moment
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
    return _majorized(xv.values, yv.values, tol)


def _majorized(x: tuple[float, ...], y: tuple[float, ...], tol: Tolerance) -> bool:
    """:func:`majorizes` on finite floats of one length, which it does not check again."""
    allowed = tol.allowed((_fsum(map(abs, y)),))
    xs = sorted(x, reverse=True)
    ys = sorted(y, reverse=True)
    if any(px > py + allowed for px, py in zip(accumulate(xs[:-1]), accumulate(ys[:-1]))):
        return False
    return abs(_fsum(xs) - _fsum(ys)) <= allowed
