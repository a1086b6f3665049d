"""Polygonal extension and generalized floor/fractional-part tests."""

import math
import random
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relconvex import (
    OutOfDomain,
    build_extension,
    floor_wrt,
    frac_wrt,
    is_convex_wrt,
    sample,
)
from relconvex.oracles import gen_relative_convex_pair


def test_single_segment_identity_line():
    ext = build_extension((0.0, 1.0), (0.0, 1.0))
    assert ext.slopes == (1.0,)
    assert ext.eval(0.25) == 0.25


def test_log_pair_matches_exponential_at_breakpoints():
    idx = range(3, 11)
    a = [math.log(i) for i in idx]
    t = [math.log(math.log(i)) for i in idx]
    ext = build_extension(a, t)
    for x, expect in zip(t, a):
        assert ext.eval(x) == expect
    # the breakpoint ordinates are exp evaluated at the abscissae
    for x, y in zip(ext.breakpoints_t, ext.breakpoints_a):
        assert math.isclose(math.exp(x), y, rel_tol=1e-12)


def test_slope_table():
    ext = build_extension((4, 1, 0, 2, 6), (1, 2, 3, 4, 5))
    assert ext.slopes == (-3.0, -1.0, 2.0, 4.0)


def test_eval_breakpoints_exact_and_midpoints_linear():
    rng = random.Random(11)
    for seed in range(30):
        n = rng.randrange(2, 12)
        a, t = gen_relative_convex_pair(n, seed)
        ext = build_extension(a, t)
        for x, y in zip(t, a):
            assert ext.eval(x) == ext(x) == y
        for i in range(n - 1):
            mid = (t[i] + t[i + 1]) / 2.0
            assert ext(mid) == ext.eval(mid) == pytest.approx((a[i] + a[i + 1]) / 2.0, rel=1e-12, abs=1e-12)


def test_eval_interior_point():
    ext = build_extension((4, 1, 0), (1, 2, 3))
    assert ext.eval(2.5) == 0.5


def test_eval_domain_clamp_and_error():
    ext = build_extension((0, 1), (0, 1))
    assert ext.eval(1.0 + 5e-10) == 1.0  # inside the clamp slack
    with pytest.raises(OutOfDomain):
        ext.eval(1.1)
    with pytest.raises(OutOfDomain):
        ext.eval(-0.1)


@pytest.mark.parametrize("probe", [
    lambda t, q: build_extension((4.0, 1.0, 0.0), t).eval(q),
    lambda t, q: build_extension((4.0, 1.0, 0.0), t)(q),
    floor_wrt,
    frac_wrt,
], ids=["eval", "call", "floor_wrt", "frac_wrt"])
def test_nan_is_out_of_domain(probe):
    with pytest.raises(OutOfDomain):
        probe((0.0, 1.0, 3.0), math.nan)


class TestFloorWrt:
    def test_shifted_integers(self):
        t = [i - 1 for i in range(1, 7)]
        assert floor_wrt(t, math.pi) == 4

    def test_log_breakpoints(self):
        t = [math.log(i) for i in range(1, 6)]
        assert floor_wrt(t, 0.25) == 1

    def test_reduces_to_ordinary_floor(self):
        t = list(range(1, 11))
        for q in (1.0, 2.75, 5.0, 9.999, 10.0):
            assert floor_wrt(t, q) == min(math.floor(q), 10)

    def test_right_endpoint(self):
        assert floor_wrt((0.0, 0.5, 2.0), 2.0) == 3

    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    def test_monotone(self, q1, q2):
        t = (0.0, 0.7, 1.1, 3.0, 5.0)
        lo, hi = min(q1, q2), max(q1, q2)
        assert floor_wrt(t, lo) <= floor_wrt(t, hi)


class TestFracWrt:
    def test_zero_at_breakpoints(self):
        t = (0.0, 0.3, 1.7, 4.0)
        for x in t:
            assert frac_wrt(t, x) == 0.0

    def test_pi_offset(self):
        t = [i - 1 for i in range(1, 7)]
        assert frac_wrt(t, math.pi) == math.pi - 3.0

    def test_ordinary_fractional_part(self):
        assert frac_wrt(list(range(1, 6)), 2.75) == 0.75

    def test_bounded_by_segment_gap(self):
        rng = random.Random(3)
        t = list(accumulate(rng.uniform(0.2, 2.0) for _ in range(10)))
        for q in [rng.uniform(t[0], t[-1]) for _ in range(200)]:
            m = floor_wrt(t, q)
            f = frac_wrt(t, q)
            assert 0.0 <= f
            if m < len(t):
                assert f < t[m] - t[m - 1]


def test_floor_frac_identity_against_eval():
    rng = random.Random(17)
    for seed in range(20):
        n = rng.randrange(3, 12)
        a, t = gen_relative_convex_pair(n, seed + 400)
        ext = build_extension(a, t)
        for q in [rng.uniform(t[0], t[-1]) for _ in range(50)]:
            m = floor_wrt(t, q)
            piece = a[m - 1]
            if m < n:
                piece += frac_wrt(t, q) * ext.slopes[m - 1]
            assert ext.eval(q) == pytest.approx(piece, rel=1e-12, abs=1e-12)


def test_midpoint_convexity_of_extension():
    # 10^4 random midpoint checks across a handful of witnessed pairs
    rng = random.Random(2718)
    for seed in (1, 2, 3, 4):
        a, t = gen_relative_convex_pair(9, seed)
        ext = build_extension(a, t)
        for _ in range(2500):
            x, y = rng.uniform(t[0], t[-1]), rng.uniform(t[0], t[-1])
            lhs = ext.eval((x + y) / 2.0)
            rhs = (ext.eval(x) + ext.eval(y)) / 2.0
            assert lhs <= rhs + 1e-9


@pytest.mark.parametrize(
    "phi",
    [math.exp, lambda x: x * x, abs],
    ids=["exp", "square", "abs"],
)
def test_chordal_slope_recovery(phi):
    # any convex shape sampled at increasing abscissae passes the slope test
    rng = random.Random(101)
    for _ in range(25):
        n = rng.randrange(3, 15)
        t = [x - 4.0 for x in accumulate(rng.uniform(0.1, 1.0) for _ in range(n))]
        a = [phi(x) for x in t]
        assert is_convex_wrt(a, t).holds


def test_sample_covers_domain():
    ext = build_extension((0, 1, 3), (0, 1, 2))
    rows = sample(ext, resolution=7)
    assert len(rows) == 7
    assert rows[0] == (0.0, 0.0)
    assert rows[-1] == (2.0, 3.0)
    xs = [x for x, _ in rows]
    assert xs == sorted(xs)
    with pytest.raises(ValueError):
        sample(ext, resolution=1)
