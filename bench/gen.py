"""Benchmark-side input generators (numpy only; the program never sees a seed).

Every generator draws from the ``numpy.random.Generator`` it is given, so an
instance is a pure function of ``(workload seed, instance index)``.  Slope
increments are kept far above the default tolerance (abs 1e-9) so that the
convexity of every generated pair is decided by its construction, not by
rounding.
"""

from __future__ import annotations

import numpy as np

SHAPES = ("v", "inc", "dec")


def witness(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly increasing abscissae with gaps in [0.5, 1.5], shifted to straddle 0."""
    t = np.cumsum(rng.uniform(0.5, 1.5, n))
    return t - t[int(rng.integers(0, n))]


def convex_over(rng: np.random.Generator, t: np.ndarray, shape: str = "v") -> np.ndarray:
    """Ordinates convex with respect to ``t`` with a given monotonicity profile.

    The slope sequence is a strictly increasing run with total rise in
    [0.5, 4.5].  ``"v"`` puts its sign change at a random step in the
    middle fifth-to-three-fifths of the sequence, so the minimum sits at
    index ``k + 1`` (0-based) and the increasing half holds at least 40% of
    the points; ``"inc"`` and ``"dec"`` keep every slope positive or negative.
    """
    n = len(t)
    s = np.cumsum(rng.uniform(0.5, 1.5, n - 1) * (rng.uniform(1.0, 3.0) / n))
    if shape == "v":
        k = int(rng.integers(max(n // 5, 1), max(3 * n // 5, 2)))
        s -= (s[k] + s[k + 1]) / 2.0
    elif shape == "inc":
        s -= s[0] - (s[1] - s[0])
    elif shape == "dec":
        s -= s[-1] + (s[-1] - s[-2])
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return rng.uniform(-5.0, 5.0) + np.concatenate([[0.0], np.cumsum(s * np.diff(t))])


def weights(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.5, 1.5, n)


def majorized_reals(rng: np.random.Generator, lo: float, hi: float, size: int):
    """(pvec, qvec) inside [lo, hi] with pvec majorized by qvec.

    Built from symmetric pairs: q holds (c - d, c + d) and p holds
    (c - d', c + d') with d' <= d.  Each pair of p is majorized by the
    matching pair of q, and majorization survives concatenation.
    """
    half = size // 2
    c = rng.uniform(lo, hi, half)
    d = np.minimum(c - lo, hi - c) * rng.uniform(0.0, 1.0, half)
    dp = d * rng.uniform(0.0, 1.0, half)
    order = rng.permutation(2 * half)
    q = np.concatenate([c - d, c + d])[order]
    p = np.concatenate([c - dp, c + dp])[order]
    return p.tolist(), q.tolist()


def majorized_indices(rng: np.random.Generator, n: int, size: int):
    """(pidx, qidx) of 1-based indices in 1..n with pidx majorized by qidx (exact)."""
    half = size // 2
    c = rng.integers(1, n + 1, half)
    d = rng.integers(0, np.minimum(c - 1, n - c) + 1)
    dp = rng.integers(0, d + 1)
    order = rng.permutation(2 * half)
    q = np.concatenate([c - d, c + d])[order]
    p = np.concatenate([c - dp, c + dp])[order]
    return [int(v) for v in p], [int(v) for v in q]


def break_convexity(rng: np.random.Generator, a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Copy of a V-shaped ``a`` with one interior point lifted above its chord.

    The lifted point lies in the increasing half, strictly between its
    neighbours, so that half stays strictly increasing while the slope test,
    every characterisation and the increment-growth test all see a violation.
    """
    a = a.copy()
    n = len(a)
    k = int(np.argmin(a))
    j = int(rng.integers(k + 2, n - 1))
    left, right = t[j] - t[j - 1], t[j + 1] - t[j]
    chord = (right * a[j - 1] + left * a[j + 1]) / (left + right)
    a[j] = chord + rng.uniform(0.25, 0.75) * (a[j + 1] - chord)
    return a


def canonical_schedule(a) -> list[float]:
    """Slope schedule -k..-1 then 1..m for a strictly V-shaped sequence."""
    steps = np.diff(np.asarray(a, dtype=float))
    n_dec = int(np.sum(steps < 0))
    n_inc = int(np.sum(steps > 0))
    return [float(-k) for k in range(n_dec, 0, -1)] + [float(k) for k in range(1, n_inc + 1)]
