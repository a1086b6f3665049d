"""Seeded instance generators and naive re-evaluators for the property suites.

Generators are pure functions of (seed, parameters), drawn from the
stdlib's ``random.Random(seed)``.  The brute_* helpers recompute inequality
sides by direct summation / scanning in code paths that share nothing with
the engines (different formulas where possible, plain accumulation instead
of compensated sums, a linear scan and interpolation instead of the
slope-table evaluation); they exist purely to cross-validate.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

from .errors import InfeasibleShape, LengthError
from .seqcore import RealSeq, ShapeKind, Witness


class Seeded(NamedTuple):
    """Deterministic seed wrapper; equal seeds give equal outputs."""

    seed: int


def _rng(seeded) -> random.Random:
    seed = seeded.seed if isinstance(seeded, Seeded) else int(seeded)
    if seed < 0:
        # random.Random(-s) would silently replay the stream of s
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return random.Random(seed)


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
    base = rng.uniform(-5.0, 5.0)

    def gaps(k, sign=1.0):
        return [sign * rng.uniform(0.1, 2.0) for _ in range(k)]

    steps: list[float]
    if kind is ShapeKind.CONSTANT:
        steps = [0.0] * (n - 1)
    elif kind is ShapeKind.STRICTLY_INCREASING:
        steps = gaps(n - 1)
    elif kind is ShapeKind.STRICTLY_DECREASING:
        steps = gaps(n - 1, -1.0)
    elif kind is ShapeKind.NOT_STRICTLY_V_SHAPED:
        # ascend then descend: never V-shaped
        k_up = rng.randrange(1, n - 1)
        steps = gaps(k_up) + gaps(n - 1 - k_up, -1.0)
    else:
        k_dec = k_flat = k_inc = 0
        if kind is ShapeKind.DEC_THEN_CONST:
            k_dec = rng.randrange(1, n - 1)
            k_flat = n - 1 - k_dec
        elif kind is ShapeKind.CONST_THEN_INC:
            k_flat = rng.randrange(1, n - 1)
            k_inc = n - 1 - k_flat
        elif kind is ShapeKind.DEC_THEN_INC:
            k_dec = rng.randrange(1, n - 1)
            k_inc = n - 1 - k_dec
        else:  # DEC_CONST_INC
            k_dec = rng.randrange(1, n - 2)
            k_flat = rng.randrange(1, n - 1 - k_dec)
            k_inc = n - 1 - k_dec - k_flat
        steps = gaps(k_dec, -1.0) + [0.0] * k_flat + gaps(k_inc)
    return RealSeq(tuple(accumulate(steps, initial=base)))


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
    t0 = rng.uniform(-3.0, 3.0)
    t = [t0 + x for x in accumulate((rng.uniform(0.05, 1.5) for _ in range(n - 1)), initial=0.0)]
    family = rng.choices(("pwl", "exp", "quad", "affine"), (0.55, 0.15, 0.15, 0.15))[0]
    if family == "pwl":
        slopes = sorted(rng.gauss(0.0, 2.0) for _ in range(n - 1))
        a = [rng.uniform(-5.0, 5.0)]
        for k in range(n - 1):
            a.append(a[-1] + slopes[k] * (t[k + 1] - t[k]))
    elif family == "exp":
        rate = rng.uniform(0.2, 0.8)
        amp = rng.uniform(0.5, 2.0)
        mid = math.fsum(t) / n
        span = max(mid - t[0], t[-1] - mid)
        if rate * span > _EXP_CAP:  # never below n = 64: 0.8 * 63 * 1.5 < _EXP_CAP
            rate = _EXP_CAP / span
        a = [amp * math.exp(rate * (x - mid)) for x in t]
    elif family == "quad":
        c = rng.uniform(0.1, 1.5)
        vertex = rng.uniform(t[0], t[-1])
        off = rng.uniform(-2.0, 2.0)
        a = [c * (x - vertex) ** 2 + off for x in t]
    else:
        c = rng.uniform(-2.0, 2.0)
        d = rng.uniform(-5.0, 5.0)
        a = [c * x + d for x in t]
    return RealSeq(tuple(a)), Witness(tuple(t))


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
        i, j = rng.sample(range(len(vals)), 2)
        lam = rng.random()
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
    """Extension sums by interpolation between the scanned floor node and the
    next, clamped to the end values outside [t_1, t_n]."""

    def ext(x):
        if x <= t[0]:
            return a[0]
        if x >= t[-1]:
            return a[-1]
        k = _scan_floor(t, x)
        return a[k] + (a[k + 1] - a[k]) / (t[k + 1] - t[k]) * (x - t[k])

    sp = 0.0
    sq = 0.0
    for x in pvec:
        sp += ext(x)
    for x in qvec:
        sq += ext(x)
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
