"""Metamorphic properties the theory promises.

* Translating the witness t by c changes nothing: relative convexity and the
  majorization inequality (with pvec and qvec translated too) keep their
  verdicts, the HHF report stays the same bit for bit, and the Lupas sides
  stay put.  Inputs lie on a grid of eighths, so every t_i + c is exact and
  only the engines' own rounding is tested.
* Scaling a (and b) by a power of two k scales the majorization margin by k
  and the Lupas sides by k^2.
* Index-form majorization is the witnessed check at t = (1..n), field for field.
* Reversing a and mapping t to -reversed(t) reverses the slope increments
  (the same floating-point operations, in reverse order): the convexity
  margin is bit-identical and the first violation is the last one mirrored.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relconvex import (
    RelConvexError,
    Tolerance,
    hhf_bounds,
    integer_majorization_check,
    is_convex_wrt,
    lupas_check,
    majorization_inequality_check,
    parse_psi,
    psi_identity,
)
from relconvex.seqcore import unit_witness

offsets = st.integers(-10**9, 10**9)
far_offsets = st.integers(-2**40, 2**40)  # t_i + c stays exact: |8 (t_i + c)| < 2**53
powers_of_two = st.integers(-30, 30).map(lambda e: 2.0 ** e)


@st.composite
def grid_witness(draw, min_size=3, max_size=12):
    """Strictly increasing multiples of 1/8 in [-1000, 1000]."""
    start = draw(st.integers(-8000, 0))
    steps = draw(st.lists(st.integers(1, 400), min_size=min_size - 1, max_size=max_size - 1))
    ks = [start]
    for s in steps:
        ks.append(ks[-1] + s)
    return [k / 8 for k in ks]


@st.composite
def convex_over(draw, t):
    """Ordinates whose slopes against t are drawn non-decreasing."""
    slopes = sorted(draw(st.lists(st.floats(-50, 50), min_size=len(t) - 1, max_size=len(t) - 1)))
    a = [draw(st.floats(-100, 100))]
    for s, lo, hi in zip(slopes, t, t[1:]):
        a.append(a[-1] + s * (hi - lo))
    return a


@st.composite
def majorized_on_grid(draw, t, step=8):
    """(pvec, qvec) of multiples of 1/step in [t_1, t_n], pvec majorized by qvec exactly.

    pvec comes from qvec by transfers of 1/step units from a larger entry to
    a smaller one that do not overshoot, each a T-transform.
    """
    lo, hi = round(t[0] * step), round(t[-1] * step)
    q = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=8))
    p = list(q)
    for i, j, frac in draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.floats(0, 1)),
                                    max_size=6)):
        i, j = i % len(p), j % len(p)
        if p[i] > p[j]:
            d = math.floor(frac * (p[i] - p[j]))
            p[i], p[j] = p[i] - d, p[j] + d
    return [k / step for k in p], [k / step for k in q]


def outcome(call, *args, **kwargs):
    """The report, or the type of the structured error raised instead."""
    try:
        return call(*args, **kwargs)
    except RelConvexError as exc:
        return type(exc)


def shifted(xs, c):
    return [x + c for x in xs]


@settings(max_examples=100, deadline=None)
@given(st.data(), far_offsets)
def test_translating_the_witness_keeps_every_verdict(data, c):
    t = data.draw(grid_witness())
    a = data.draw(st.one_of(convex_over(t), st.lists(st.floats(-100, 100), min_size=len(t),
                                                     max_size=len(t))))
    p, q = data.draw(majorized_on_grid(t))
    tc = shifted(t, c)
    assert is_convex_wrt(a, tc).holds == is_convex_wrt(a, t).holds
    base = outcome(majorization_inequality_check, a, t, p, q)
    moved = outcome(majorization_inequality_check, a, tc, shifted(p, c), shifted(q, c))
    if isinstance(base, type):
        assert moved is base
    else:
        assert moved.holds == base.holds
    w = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=len(t), max_size=len(t)))
    if not sum(w) > 0:
        w[0] = 1.0
    psi = parse_psi(data.draw(st.sampled_from(["identity", "relu@0"])))
    assert outcome(hhf_bounds, a, tc, w, psi) == outcome(hhf_bounds, a, t, w, psi)
    # on a line every side of the sandwich is the value itself
    c0, c1 = (data.draw(st.integers(-800, 800)) / 8 for _ in range(2))
    assert hhf_bounds([c0 + c1 * x for x in t], tc, w, psi_identity).holds


@settings(max_examples=100, deadline=None)
@given(st.data(), offsets)
def test_translating_the_witness_keeps_the_lupas_sides(data, c):
    t = data.draw(grid_witness())
    a = data.draw(convex_over(t))
    b = data.draw(convex_over(t))
    w = data.draw(st.lists(st.floats(0.1, 10.0), min_size=len(t), max_size=len(t)))
    base = outcome(lupas_check, a, b, t, w)
    moved = outcome(lupas_check, a, b, shifted(t, c), w)
    if isinstance(base, type):
        assert moved is base
        return
    # a - mean(a) rounds at the scale of |a|, not of its spread: the floor for a vanishing rhs
    scale = max(map(abs, a)) * max(map(abs, b))
    assert moved.lhs == pytest.approx(base.lhs, rel=1e-9)
    assert moved.rhs == pytest.approx(base.rhs, rel=1e-9, abs=1e-9 * scale)


@settings(max_examples=100, deadline=None)
@given(st.data(), powers_of_two)
def test_scaling_the_data_scales_the_sides(data, k):
    t = data.draw(grid_witness())
    a = data.draw(convex_over(t))
    b = data.draw(convex_over(t))
    w = data.draw(st.lists(st.floats(0.1, 10.0), min_size=len(t), max_size=len(t)))
    p, q = data.draw(majorized_on_grid(t))
    ka, kb = [k * x for x in a], [k * x for x in b]
    base = majorization_inequality_check(a, t, p, q, skip_verify=True)
    scaled = majorization_inequality_check(ka, t, p, q, skip_verify=True)
    assert scaled.margin == pytest.approx(k * base.margin, rel=1e-12)
    base = lupas_check(a, b, t, w, skip_verify=True)
    scaled = lupas_check(ka, kb, t, w, skip_verify=True)
    assert scaled.lhs == pytest.approx(k * k * base.lhs, rel=1e-12)
    assert scaled.rhs == pytest.approx(k * k * base.rhs, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.booleans())
def test_index_majorization_is_the_witnessed_check_at_unit_witness(data, skip):
    n = data.draw(st.integers(2, 12))
    t = unit_witness(n)
    a = data.draw(st.one_of(convex_over(list(t)), st.lists(st.floats(-100, 100), min_size=n,
                                                            max_size=n)))
    p, q = data.draw(majorized_on_grid(list(t), step=1))
    if data.draw(st.booleans()):
        p = data.draw(st.lists(st.integers(1, n), min_size=len(q), max_size=len(q) + 1))
    index = outcome(integer_majorization_check, a, p, q, skip_verify=skip)
    witnessed = outcome(majorization_inequality_check, a, t, p, q, skip_verify=skip)
    assert index == witnessed


@st.composite
def convex_on_grid(draw, t):
    """Multiples of 1/8 with integer slopes against a grid witness, drawn non-decreasing."""
    slopes = sorted(draw(st.lists(st.integers(-50, 50), min_size=len(t) - 1, max_size=len(t) - 1)))
    a = [draw(st.integers(-800, 800)) / 8]
    for s, lo, hi in zip(slopes, t, t[1:]):
        a.append(a[-1] + s * (hi - lo))
    return a


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reversing_the_indices_mirrors_the_slope_test(data):
    t = data.draw(grid_witness())
    n = len(t)
    grid = st.integers(-800, 800).map(lambda k: k / 8)
    a = data.draw(st.one_of(convex_on_grid(t), st.lists(grid, min_size=n, max_size=n)))
    slopes = [(y1 - y0) / (u1 - u0) for y0, y1, u0, u1 in zip(a, a[1:], t, t[1:])]
    allowed = Tolerance().allowed(slopes)
    bad = [j for j in range(1, n - 1) if slopes[j] - slopes[j - 1] < -allowed]
    base = is_convex_wrt(a, t)
    mirrored = is_convex_wrt(a[::-1], [-x for x in reversed(t)])
    assert repr(mirrored.margin) == repr(base.margin)
    assert base.first_violation == (bad[0] if bad else None)
    assert mirrored.first_violation == (n - 1 - bad[-1] if bad else None)
