"""Numpy reference values for the large-n correctness gate.

Covariances use the centred two-pass form (Chan, Golub & LeVeque 1983), not
the program's E[xy] - E[x]E[y], so a cancellation in the program shows as a
mismatch.  An output matches when it lies within ``REL_BOUND`` of the
reference, relative to the largest magnitude among the compared sides
(never less than 1).  Sums here are numpy's pairwise sums, whose relative
error is a few ulps times log2(n) on these inputs, far inside the bound.
"""

from __future__ import annotations

import numpy as np

REL_BOUND = 1e-9


def close(values, refs, scale: float | None = None) -> bool:
    """True when every value is within REL_BOUND of its reference.

    The scale is the largest reference magnitude unless given (a margin that
    is a difference of two sums is scaled by the sums, not by itself).
    """
    values = [float(v) for v in values]
    refs = [float(r) for r in refs]
    if scale is None:
        scale = max(abs(r) for r in refs)
    scale = max(scale, 1.0)
    return all(abs(v - r) <= REL_BOUND * scale for v, r in zip(values, refs))


def cov(x, y, p) -> float:
    total = p.sum()
    mx = (p * x).sum() / total
    my = (p * y).sum() / total
    return float((p * (x - mx) * (y - my)).sum() / total)


def lupas(a, b, t, p):
    return cov(a, b, p), cov(a, t, p) * cov(b, t, p) / cov(t, t, p)


def pecaric(a, b):
    n = len(a)
    lhs = float(((a - a.mean()) * (b - b.mean())).sum())
    centred = np.arange(1, n + 1) - (n + 1) / 2.0
    rhs = 12.0 / (n * (n * n - 1.0)) * float((centred * a).sum()) * float((centred * b).sum())
    return lhs, rhs


def hhf(a, t, p, psi):
    """(lower, value, upper) of the Hermite-Hadamard-Fejér sandwich."""
    n = len(a)
    fa = psi(a)
    value = float((p * fa).sum() / p.sum())
    mt = float((p * t).sum() / p.sum())
    m = min(max(int(np.searchsorted(t, mt, side="right")), 1), n - 1)
    gamma = min(max((mt - t[m - 1]) / (t[m] - t[m - 1]), 0.0), 1.0)
    lam = min(max((t[-1] - mt) / (t[-1] - t[0]), 0.0), 1.0)
    lower = gamma * fa[m] + (1.0 - gamma) * fa[m - 1]
    upper = lam * fa[0] + (1.0 - lam) * fa[-1]
    return float(lower), value, float(upper)


def niezgoda(a, p, psi):
    """(value, upper) of the endpoint bound, raw sums."""
    n = len(a)
    i = np.arange(1, n + 1)
    fa = psi(a)
    c_first = float(((n - i) / (n - 1.0) * p).sum())
    c_last = float(((i - 1) / (n - 1.0) * p).sum())
    return float((p * fa).sum()), c_first * fa[0] + c_last * fa[-1]


def convex_hhf(a, p, psi):
    """(lower, value, upper) of the segment/endpoint sandwich, raw sums."""
    n = len(a)
    i = np.arange(1, n + 1)
    fa = psi(a)
    m = min(max(int(np.floor((p * i).sum() / p.sum())), 1), n - 1)

    def phi(u, v):
        cu = float(((v - i) / (v - u) * p).sum())
        cv = float(((i - u) / (v - u) * p).sum())
        return cv * fa[v - 1] + cu * fa[u - 1]

    return float(phi(m, m + 1)), float((p * fa).sum()), float(phi(1, n))


def majorization(a, t, pvec, qvec):
    """(sum ext(pvec), sum ext(qvec)) through numpy's linear interpolation."""
    return float(np.interp(pvec, t, a).sum()), float(np.interp(qvec, t, a).sum())


def integer_majorization(a, pidx, qidx):
    return float(a[np.asarray(pidx) - 1].sum()), float(a[np.asarray(qidx) - 1].sum())


def lupas_constant(t) -> float:
    return float(1.0 / ((t - t.mean()) ** 2).sum())


def slopes_nondecreasing(a, t, tol_abs: float = 1e-9, tol_rel: float = 1e-12) -> bool:
    """The slope test at the program's default tolerance, vectorised."""
    s = np.diff(a) / np.diff(t)
    if len(s) < 2:
        return True
    return bool(np.all(np.diff(s) >= -(tol_abs + tol_rel * np.abs(s).max())))
