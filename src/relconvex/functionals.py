"""Weighted mean / covariance functionals and the majorization preorder."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Sequence, Union

from .errors import DegenerateWitness, LengthMismatch, ZeroTotalWeight
from .seqcore import DEFAULT_TOL, Tolerance, Witness, WitnessLike, _to_floats

WeightLike = Union["WeightVec", Sequence[float]]


@dataclass(frozen=True)
class WeightVec:
    """Non-negative weights with a strictly positive total."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = tuple(map(float, self.weights))
        object.__setattr__(self, "weights", w)
        if not (all(map(math.isfinite, w)) and min(w, default=0.0) >= 0):
            k, v = next((k, v) for k, v in enumerate(w) if not math.isfinite(v) or v < 0)
            raise ValueError(f"weight {k + 1} must be finite and non-negative, got {v!r}")
        if not math.fsum(w) > 0:
            raise ZeroTotalWeight("weights must have a positive total")

    @classmethod
    def of(cls, weights: WeightLike) -> "WeightVec":
        if isinstance(weights, cls):
            return weights
        return cls(tuple(weights))

    @cached_property
    def total(self) -> float:
        return math.fsum(self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, i):
        return self.weights[i]


def weighted_mean(x: Sequence[float], p: WeightLike) -> float:
    """Weighted average sum(p_i x_i) / sum(p_i)."""
    xv = _to_floats(x)
    pv = WeightVec.of(p)
    if len(xv) != len(pv):
        raise LengthMismatch(f"|x| = {len(xv)} but |p| = {len(pv)}")
    return math.fsum(map(mul, pv.weights, xv)) / pv.total


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
    mxy = math.fsum(map(mul, wx, yv)) / total
    mx = math.fsum(wx) / total
    my = math.fsum(map(mul, pv.weights, yv)) / total
    return mxy - mx * my


def lupas_constant(t: WitnessLike, tol: Tolerance = DEFAULT_TOL) -> float:
    """Normalizer 1 / (sum t_i^2 - (sum t_i)^2 / n) for the uniform-weight bound.

    For t = (1, ..., n) this equals 12 / (n (n^2 - 1)).  Strictly positive
    for any strictly increasing t; guarded anyway.
    """
    wit = Witness.of(t, tol)
    n = len(wit)
    st = math.fsum(wit.values)
    st2 = math.fsum(v * v for v in wit.values)
    denom = st2 - st * st / n
    if denom <= tol.slack(st2):
        raise DegenerateWitness(f"centered square sum {denom!r} is not positive")
    return 1.0 / denom


def majorizes(x: Sequence[float], y: Sequence[float], tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when x is majorized by y (x ≺ y).

    After sorting both in decreasing order, every prefix sum of x must stay
    at or below the matching prefix sum of y, and the totals must agree.
    Comparisons allow ``tol.abs + tol.rel * sum|y|`` of slack.  Sorting is
    stable, so ties keep their original order (irrelevant to the verdict).
    """
    xv = _to_floats(x)
    yv = _to_floats(y)
    if len(xv) != len(yv):
        raise LengthMismatch(f"|x| = {len(xv)} but |y| = {len(yv)}")
    allowed = tol.abs + tol.rel * math.fsum(abs(v) for v in yv)
    xs = sorted(xv, reverse=True)
    ys = sorted(yv, reverse=True)
    if any(px > py + allowed for px, py in zip(accumulate(xs[:-1]), accumulate(ys[:-1]))):
        return False
    return abs(math.fsum(xs) - math.fsum(ys)) <= allowed
