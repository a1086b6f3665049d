"""Polygonal extensions of a sequence and the generalized floor / fractional part.

The extension of a pair (a, t) is the piecewise-linear function through the
corner points (t_i, a_i); it is convex exactly when t witnesses the
convexity of a.  The generalized floor of q against t is the 1-based rank
of the largest breakpoint not exceeding q, and the generalized fractional
part is the offset q - t_floor.  With t = (1, 2, ..., n) both reduce to the
ordinary floor and fractional part.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple, Sequence

from .errors import OutOfDomain
from .seqcore import DEFAULT_TOL, SeqLike, Tolerance, Witness, WitnessLike, _linspace, _steps, paired


class PolygonalExtension(NamedTuple):
    """Piecewise-linear interpolant through breakpoints (t_i, a_i).

    ``slopes[i]`` is the exact per-segment slope (a[i+1]-a[i])/(t[i+1]-t[i]);
    when the source pair is relative convex the slopes are non-decreasing and
    the extension is a convex function on [t_1, t_n].
    """

    breakpoints_t: tuple[float, ...]
    breakpoints_a: tuple[float, ...]
    slopes: tuple[float, ...]

    @property
    def domain(self) -> tuple[float, float]:
        return (self.breakpoints_t[0], self.breakpoints_t[-1])

    def eval(self, x: float, tol: Tolerance = DEFAULT_TOL) -> float:
        """Value of the polygonal line at ``x`` in [t_1, t_n].

        Breakpoints, the right endpoint included, return their ordinates
        exactly (no slope term is added there).  Points within
        ``tol.abs`` of the domain are clamped; beyond that OutOfDomain.
        """
        return _value_at(self.breakpoints_t, self.breakpoints_a, x, tol)

    def __call__(self, x: float) -> float:
        return self.eval(x)


def build_extension(a: SeqLike, t: WitnessLike, tol: Tolerance = DEFAULT_TOL) -> PolygonalExtension:
    """Assemble the polygonal extension of (a, t)."""
    seq, wit = paired(a, t, tol)
    return PolygonalExtension(wit.values, seq.values, tuple(_steps(seq.values, wit.values)))


def _value_at(t: Sequence[float], a: Sequence[float], x: float, tol: Tolerance) -> float:
    """The polygonal line through (t_i, a_i) at ``x``, from the one slope of its segment."""
    x = _clamp_to_domain(t, float(x), tol)
    i = bisect.bisect_right(t, x) - 1
    if x == t[i]:
        return a[i]
    return a[i] + (a[i + 1] - a[i]) / (t[i + 1] - t[i]) * (x - t[i])


def _clamp_to_domain(t: Sequence[float], q: float, tol: Tolerance) -> float:
    lo, hi = t[0], t[-1]
    # chained, so that a NaN fails it the way an infinity does
    if not lo - tol.abs <= q <= hi + tol.abs:
        raise OutOfDomain(f"{q!r} outside [{lo!r}, {hi!r}] beyond tolerance {tol.abs!r}")
    return min(max(q, lo), hi)


def floor_wrt(t: WitnessLike, q: float, tol: Tolerance = DEFAULT_TOL) -> int:
    """1-based rank of the largest breakpoint not exceeding ``q``.

    ``q`` must lie in [t_1, t_n] (up to ``tol.abs`` of clamping slack);
    ``q = t_n`` returns n.  Binary search, O(log n).
    """
    wit = Witness.of(t, tol, "t")
    q = _clamp_to_domain(wit.values, float(q), tol)
    return bisect.bisect_right(wit.values, q)


def frac_wrt(t: WitnessLike, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Offset of ``q`` above its floor breakpoint; zero at every breakpoint."""
    wit = Witness.of(t, tol, "t")
    qc = _clamp_to_domain(wit.values, float(q), tol)
    return qc - wit.values[floor_wrt(wit, qc, tol) - 1]


def sample(ext: PolygonalExtension, resolution: int = 256) -> list[tuple[float, float]]:
    """Evaluate the extension at ``resolution`` evenly spaced points.

    Endpoints are always included; used by the CLI to emit "x,value" rows.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    return [(x, ext.eval(x)) for x in _linspace(*ext.domain, resolution)]
