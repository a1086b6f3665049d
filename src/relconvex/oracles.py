"""Seeded instance generators and naive re-evaluators for the property suites.

Generators are pure functions of (seed, parameters).  The brute_* helpers
recompute inequality sides by direct summation / scanning in code paths
that share nothing with the engines (different formulas where possible,
plain accumulation instead of compensated sums, numpy.interp instead of the
slope-table evaluation); they exist purely to cross-validate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InfeasibleShape, LengthError
from .seqcore import RealSeq, ShapeKind, Witness


@dataclass(frozen=True)
class Seeded:
    """Deterministic seed wrapper; equal seeds give equal outputs."""

    seed: int


def _rng(seeded) -> np.random.Generator:
    seed = seeded.seed if isinstance(seeded, Seeded) else int(seeded)
    return np.random.default_rng(seed)


_MIN_LEN = {
    ShapeKind.STRICTLY_INCREASING: 2,
    ShapeKind.STRICTLY_DECREASING: 2,
    ShapeKind.CONSTANT: 2,
    ShapeKind.DEC_THEN_CONST: 3,
    ShapeKind.CONST_THEN_INC: 3,
    ShapeKind.DEC_THEN_INC: 3,
    ShapeKind.DEC_CONST_INC: 4,
    ShapeKind.NOT_STRICTLY_V_SHAPED: 3,
}


def gen_shape(shape, n: int, seeded) -> RealSeq:
    """Random sequence whose classification is exactly ``shape``.

    Step gaps are drawn in [0.1, 2.0], far above the default tolerance, so
    the profile is decisive; plateau steps repeat values exactly.
    """
    kind = ShapeKind(shape)
    if n < _MIN_LEN[kind]:
        raise InfeasibleShape(f"{kind.value} needs length >= {_MIN_LEN[kind]}, got {n}")
    rng = _rng(seeded)
    base = float(rng.uniform(-5.0, 5.0))

    def gaps(k):
        return rng.uniform(0.1, 2.0, k)

    steps: list[float]
    if kind is ShapeKind.CONSTANT:
        steps = [0.0] * (n - 1)
    elif kind is ShapeKind.STRICTLY_INCREASING:
        steps = list(gaps(n - 1))
    elif kind is ShapeKind.STRICTLY_DECREASING:
        steps = list(-gaps(n - 1))
    elif kind is ShapeKind.NOT_STRICTLY_V_SHAPED:
        # ascend then descend: never V-shaped
        k_up = int(rng.integers(1, n - 1))
        steps = list(gaps(k_up)) + list(-gaps(n - 1 - k_up))
    else:
        k_dec = k_flat = k_inc = 0
        if kind is ShapeKind.DEC_THEN_CONST:
            k_dec = int(rng.integers(1, n - 1))
            k_flat = n - 1 - k_dec
        elif kind is ShapeKind.CONST_THEN_INC:
            k_flat = int(rng.integers(1, n - 1))
            k_inc = n - 1 - k_flat
        elif kind is ShapeKind.DEC_THEN_INC:
            k_dec = int(rng.integers(1, n - 1))
            k_inc = n - 1 - k_dec
        else:  # DEC_CONST_INC
            k_dec = int(rng.integers(1, n - 2))
            k_flat = int(rng.integers(1, n - 1 - k_dec))
            k_inc = n - 1 - k_dec - k_flat
        steps = list(-gaps(k_dec)) + [0.0] * k_flat + list(gaps(k_inc))
    vals = [base]
    for s in steps:
        vals.append(vals[-1] + s)
    return RealSeq(tuple(vals))


# Largest exponent of the ``exp`` family: keeps a, its differences and its
# slopes (witness gaps are at least 0.05) finite at any n.
_EXP_CAP = 100.0


def gen_relative_convex_pair(n: int, seeded) -> tuple[RealSeq, Witness]:
    """Sample a witnessed pair: random increasing abscissae, convex ordinates.

    The ordinates come from a random convex shape evaluated at the
    abscissae: sorted random slopes (piecewise-linear), an exponential, a
    parabola, or an affine line (the zero-margin edge case).
    """
    rng = _rng(seeded)
    t0 = float(rng.uniform(-3.0, 3.0))
    t = t0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.5, n - 1))])
    family = rng.choice(["pwl", "exp", "quad", "affine"], p=[0.55, 0.15, 0.15, 0.15])
    if family == "pwl":
        slopes = np.sort(rng.normal(0.0, 2.0, n - 1))
        a = [float(rng.uniform(-5.0, 5.0))]
        for k in range(n - 1):
            a.append(a[-1] + float(slopes[k]) * float(t[k + 1] - t[k]))
    elif family == "exp":
        rate = float(rng.uniform(0.2, 0.8))
        amp = float(rng.uniform(0.5, 2.0))
        mid = float(t.mean())
        span = float(np.max(np.abs(t - mid)))
        if rate * span > _EXP_CAP:  # never below n = 64: 0.8 * 63 * 1.5 < _EXP_CAP
            rate = _EXP_CAP / span
        a = [amp * float(np.exp(rate * (x - mid))) for x in t]
    elif family == "quad":
        c = float(rng.uniform(0.1, 1.5))
        vertex = float(rng.uniform(t[0], t[-1]))
        off = float(rng.uniform(-2.0, 2.0))
        a = [c * (x - vertex) ** 2 + off for x in t]
    else:
        c = float(rng.uniform(-2.0, 2.0))
        d = float(rng.uniform(-5.0, 5.0))
        a = [c * x + d for x in t]
    return RealSeq(tuple(float(v) for v in a)), Witness(tuple(float(v) for v in t))


def gen_majorized_pair(y: Sequence[float], k_transforms: int, seeded) -> tuple[float, ...]:
    """Vector majorized by ``y``: apply k random pairwise averaging transforms.

    Each transform replaces two entries by convex combinations of
    themselves, preserving the total and the range; k = 0 returns y itself.
    """
    vals = [float(v) for v in y]
    if len(vals) < 2:
        raise LengthError("need at least 2 entries to transform")
    rng = _rng(seeded)
    for _ in range(k_transforms):
        i, j = rng.choice(len(vals), size=2, replace=False)
        lam = float(rng.uniform())
        vi, vj = vals[i], vals[j]
        vals[i] = lam * vi + (1.0 - lam) * vj
        vals[j] = (1.0 - lam) * vi + lam * vj
    return tuple(vals)


# --- naive re-evaluators ---------------------------------------------------


def brute_weighted_mean(x, p):
    total = 0.0
    acc = 0.0
    for w, v in zip(p, x):
        total += w
        acc += w * v
    return acc / total


def brute_cov(x, y, p):
    """Double-sum form: sum p_i p_j (x_i-x_j)(y_i-y_j) / (2 P^2)."""
    total = 0.0
    for w in p:
        total += w
    acc = 0.0
    for i in range(len(x)):
        for j in range(len(x)):
            acc += p[i] * p[j] * (x[i] - x[j]) * (y[i] - y[j])
    return acc / (2.0 * total * total)


def brute_lupas_sides(a, b, t, p):
    lhs = brute_cov(a, b, p)
    rhs = brute_cov(a, t, p) * brute_cov(b, t, p) / brute_cov(t, t, p)
    return lhs, rhs


def brute_pecaric_sides(a, b):
    n = len(a)
    sab = 0.0
    sa = 0.0
    sb = 0.0
    wa = 0.0
    wb = 0.0
    for i in range(n):
        sab += a[i] * b[i]
        sa += a[i]
        sb += b[i]
        wa += (i + 1 - (n + 1) / 2.0) * a[i]
        wb += (i + 1 - (n + 1) / 2.0) * b[i]
    lhs = sab - sa * sb / n
    rhs = 12.0 / (n * (n * n - 1.0)) * wa * wb
    return lhs, rhs


def _scan_floor(t, q):
    # linear scan, unlike the engine's binary search
    idx = 0
    for i in range(len(t)):
        if t[i] <= q:
            idx = i
    return idx


def brute_hhf_bounds(a, t, p, psi):
    n = len(a)
    total = 0.0
    for w in p:
        total += w
    value = 0.0
    mt = 0.0
    for i in range(n):
        value += p[i] * psi(a[i])
        mt += p[i] * t[i]
    value /= total
    mt /= total
    m = min(_scan_floor(t, mt), n - 2)
    gamma = (mt - t[m]) / (t[m + 1] - t[m])
    lam = (t[-1] - mt) / (t[-1] - t[0])
    lower = gamma * psi(a[m + 1]) + (1.0 - gamma) * psi(a[m])
    upper = lam * psi(a[0]) + (1.0 - lam) * psi(a[-1])
    return lower, value, upper


def brute_niezgoda_sides(a, p, psi):
    n = len(a)
    value = 0.0
    c1 = 0.0
    cn = 0.0
    for i in range(n):
        value += p[i] * psi(a[i])
        c1 += (n - (i + 1)) / (n - 1.0) * p[i]
        cn += i / (n - 1.0) * p[i]
    return value, c1 * psi(a[0]) + cn * psi(a[-1])


def brute_convex_hhf_bounds(a, p, psi):
    n = len(a)
    total = 0.0
    mean_index = 0.0
    value = 0.0
    for i in range(n):
        total += p[i]
        mean_index += p[i] * (i + 1)
        value += p[i] * psi(a[i])
    mean_index /= total
    m = min(max(int(mean_index), 1), n - 1)

    def phi(u, v):
        cu = 0.0
        cv = 0.0
        for i in range(1, n + 1):
            cu += (v - i) / (v - u) * p[i - 1]
            cv += (i - u) / (v - u) * p[i - 1]
        return cv * psi(a[v - 1]) + cu * psi(a[u - 1])

    return phi(m, m + 1), value, phi(1, n)


def brute_majorization_sides(a, t, pvec, qvec):
    """Extension sums via numpy's own interpolation routine."""
    ta = np.asarray(t, dtype=float)
    aa = np.asarray(a, dtype=float)
    sp = float(np.sum(np.interp(np.asarray(pvec, dtype=float), ta, aa)))
    sq = float(np.sum(np.interp(np.asarray(qvec, dtype=float), ta, aa)))
    return sp, sq


def brute_integer_sums(a, pidx, qidx):
    sp = 0.0
    sq = 0.0
    for i in pidx:
        sp += a[i - 1]
    for i in qidx:
        sq += a[i - 1]
    return sp, sq


def brute_reeval(instance: Mapping):
    """Re-evaluate an inequality instance: {"kind": ..., arrays...} -> sides."""
    kind = instance["kind"]
    if kind == "lupas":
        return brute_lupas_sides(instance["a"], instance["b"], instance["t"], instance["p"])
    if kind == "pecaric":
        return brute_pecaric_sides(instance["a"], instance["b"])
    if kind == "hhf":
        return brute_hhf_bounds(instance["a"], instance["t"], instance["p"], instance["psi"])
    if kind == "niezgoda":
        return brute_niezgoda_sides(instance["a"], instance["p"], instance["psi"])
    if kind == "convex_hhf":
        return brute_convex_hhf_bounds(instance["a"], instance["p"], instance["psi"])
    if kind == "majorization":
        return brute_majorization_sides(
            instance["a"], instance["t"], instance["pvec"], instance["qvec"]
        )
    if kind == "integer_majorization":
        return brute_integer_sums(instance["a"], instance["pidx"], instance["qidx"])
    if kind == "weighted_mean":
        return brute_weighted_mean(instance["x"], instance["p"])
    if kind == "cov":
        return brute_cov(instance["x"], instance["y"], instance["p"])
    raise ValueError(f"unknown instance kind {kind!r}")
