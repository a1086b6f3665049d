"""Characterization-equivalence and finite-prefix diagnostic tests."""

import math
import random
import re
from itertools import accumulate
from operator import mul
from statistics import median

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relconvex import (
    IndexOutOfRange,
    NotStrictlyIncreasing,
    PreconditionViolation,
    RelConvexError,
    ShapeKind,
    anchored_slope_check,
    anchored_slope_check_all,
    bounded_monotone_diagnostic,
    classify_shape,
    collinearity_determinant_check,
    construct_witness,
    increment_growth_check,
    is_convex,
    is_convex_wrt,
    make_relu,
    neighbor_chord_check,
    psi_preservation_check,
    rate_diagnostic,
)
from relconvex.oracles import gen_relative_convex_pair, gen_shape


def perturbed_pair(seed, n_lo=4, n_hi=12):
    """Witnessed pair broken by a decisive upward bump at an interior index."""
    rng = random.Random(seed)
    n = rng.randrange(n_lo, n_hi)
    a, t = gen_relative_convex_pair(n, seed)
    vals = list(a.values)
    i = rng.randrange(1, n - 1)
    delta = (0.5 + rng.random()) * max(1.0, max(vals) - min(vals))
    while True:
        bumped = list(vals)
        bumped[i] += delta
        rep = is_convex_wrt(bumped, t)
        if rep.margin < -1e-3:
            return bumped, t
        delta *= 2.0


class TestNeighborChord:
    def test_arithmetic_witness_matches_plain_convexity(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randrange(3, 10)
            a = [rng.gauss(0, 3) for _ in range(n)]
            t = list(range(1, n + 1))
            assert neighbor_chord_check(a, t).holds == is_convex(a).holds

    def test_affine_case_has_zero_margin(self):
        t = (0.0, 0.4, 1.1, 2.5, 2.9)
        rep = neighbor_chord_check(t, t)
        assert rep.holds and rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_log_pair(self):
        a = [math.log(i) for i in range(3, 51)]
        t = [math.log(math.log(i)) for i in range(3, 51)]
        assert neighbor_chord_check(a, t).holds

    def test_agrees_with_slope_test(self):
        for seed in range(150):
            if seed % 2:
                a, t = gen_relative_convex_pair(4 + seed % 8, seed)
            else:
                a, t = perturbed_pair(seed)
            assert neighbor_chord_check(a, t).holds == is_convex_wrt(a, t).holds


class TestIncrementGrowth:
    def test_self_witness_zero_margin(self):
        t = (1.0, 2.0, 3.5, 6.0)
        rep = increment_growth_check(t, t)
        assert rep.holds and rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_squares_on_integers(self):
        n = 15
        a = [i * i for i in range(1, n + 1)]
        t = list(range(1, n + 1))
        rep = increment_growth_check(a, t)
        assert rep.holds
        # closed form of the ratio gap: 2/(2i+1) against 0
        assert rep.margin == pytest.approx(2.0 / (2 * (n - 2) + 1), rel=1e-9)

    def test_log_fails_against_arithmetic(self):
        a = [math.log(i) for i in range(1, 21)]
        t = list(range(1, 21))
        assert not increment_growth_check(a, t).holds
        assert not is_convex(a).holds

    def test_requires_strict_increase(self):
        with pytest.raises(NotStrictlyIncreasing):
            increment_growth_check((3, 2, 1), (1, 2, 3))

    def test_agrees_with_slope_test_on_increasing_inputs(self):
        rng = random.Random(42)
        agree = 0
        for seed in range(300):
            n = rng.randrange(3, 10)
            t = list(accumulate(rng.uniform(0.1, 1.0) for _ in range(n)))
            a = list(accumulate(rng.uniform(0.05, 2.0) for _ in range(n)))  # strictly increasing, maybe not convex
            assert increment_growth_check(a, t).holds == is_convex_wrt(a, t).holds
            agree += 1
        assert agree == 300

    @pytest.mark.parametrize(
        "a",
        [
            (0.0, 2e-9, 2.8e-9, 2.58e-8),
            (0.0, 1.0, 1.0000000005, 3.0),
            (0.0, 1.0, 1.0000000001, 1001.0),  # the next ratio, 1e13, must not hide gap 1
            (-1.0, 0.0, 5e-324, 1.0),  # the next ratio overflows
        ],
    )
    def test_reports_on_later_steps_within_the_tolerance(self, a):
        # classify_shape reads a step within tol.abs away from the minimum by its sign
        t = (0.0, 1.0, 2.0, 3.0)
        assert classify_shape(a).variant is ShapeKind.STRICTLY_INCREASING
        rep, slope = increment_growth_check(a, t), is_convex_wrt(a, t)
        assert (rep.holds, rep.first_violation) == (slope.holds, slope.first_violation)

    @pytest.mark.parametrize(
        "a, first, margin",
        [
            ((-1.0, 0.0, 1e-8, 1e4), 1, -0.99999999),  # a later ratio of 1e12 hid this gap
            ((0.0, 1e-8, 1.95e-8, 1.0), None, -0.05),  # slope gap -5e-10, within tol.abs
        ],
    )
    def test_each_gap_is_judged_at_the_slope_scale(self, a, first, margin):
        t = (0.0, 1.0, 2.0, 3.0)
        rep = increment_growth_check(a, t)
        assert (rep.holds, rep.first_violation) == (first is None, first)
        assert rep.first_violation == is_convex_wrt(a, t).first_violation
        assert rep.margin == pytest.approx(margin, rel=1e-9)

    @pytest.mark.parametrize("kind", list(ShapeKind))
    def test_raises_exactly_off_the_strictly_increasing_profile(self, kind):
        for seed in range(20):
            n = 6 + seed % 5
            a = gen_shape(kind, n, seed)
            t = list(range(n))
            assert classify_shape(a).variant is kind
            if kind is ShapeKind.STRICTLY_INCREASING:
                assert increment_growth_check(a, t).holds == is_convex_wrt(a, t).holds
            else:
                with pytest.raises(NotStrictlyIncreasing, match=f"its profile is {kind.value}$"):
                    increment_growth_check(a, t)


class TestCollinearityDeterminant:
    def test_affine_collinear(self):
        t = (0.0, 1.0, 2.5, 4.0)
        a = tuple(3.0 * x - 1.0 for x in t)
        rep = collinearity_determinant_check(a, t, all_triples=True)
        assert rep.holds and rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_all_ten_triples_nonnegative(self):
        rep = collinearity_determinant_check((4, 1, 0, 2, 6), (1, 2, 3, 4, 5), all_triples=True)
        assert rep.holds and rep.margin >= 0.0

    def test_single_violation_located(self):
        rep = collinearity_determinant_check((0, 2, 1), (1, 2, 3), all_triples=True)
        assert not rep.holds
        assert rep.first_violation == (1, 2, 3)
        assert rep.margin == pytest.approx(-3.0)

    def test_consecutive_mode_decides_like_full_mode(self):
        for seed in range(150):
            if seed % 2:
                a, t = gen_relative_convex_pair(4 + seed % 7, seed + 777)
            else:
                a, t = perturbed_pair(seed + 777)
            fast = collinearity_determinant_check(a, t)
            full = collinearity_determinant_check(a, t, all_triples=True)
            assert fast.holds == full.holds == is_convex_wrt(a, t).holds


class TestAnchoredSlopes:
    def test_affine_constant_slopes(self):
        t = (0.0, 1.0, 2.0, 3.0)
        a = tuple(2.0 * x + 1.0 for x in t)
        rep = anchored_slope_check(a, t, 1)
        assert rep.holds and rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_divided_differences_from_first_point(self):
        a = (4.0, 1.0, 0.0, 2.0, 6.0)
        t = (1.0, 2.0, 3.0, 4.0, 5.0)
        slopes = [(a[i] - a[0]) / (t[i] - t[0]) for i in range(1, 5)]
        assert slopes == [-3.0, -2.0, pytest.approx(-2 / 3), 0.5]
        assert anchored_slope_check(a, t, 1).holds

    def test_anchor_bounds(self):
        with pytest.raises(IndexOutOfRange):
            anchored_slope_check((1, 2, 3), (1, 2, 3), 3)
        with pytest.raises(IndexOutOfRange):
            anchored_slope_check((1, 2, 3), (1, 2, 3), 0)

    @pytest.mark.parametrize("anchor", [2.0, 1.5, math.nan, math.inf, 0.0, 5.0])
    def test_anchor_index_rule_of_integer_majorization(self, anchor):
        # integral floats are indices, as in integer_majorization_check; anything else is out of range
        a, t = (4.0, 1.0, 0.0, 2.0, 6.0), (1.0, 2.0, 3.0, 4.0, 5.0)
        if anchor == 2.0:
            assert anchored_slope_check(a, t, anchor) == anchored_slope_check(a, t, 2)
        else:
            with pytest.raises(IndexOutOfRange, match=re.escape(f"anchor {anchor!r} is not an integer index")):
                anchored_slope_check(a, t, anchor)

    def test_all_anchor_conjunction_equals_slope_test(self):
        for seed in range(150):
            if seed % 2:
                a, t = gen_relative_convex_pair(4 + seed % 7, seed + 31)
            else:
                a, t = perturbed_pair(seed + 31)
            assert anchored_slope_check_all(a, t).holds == is_convex_wrt(a, t).holds


class TestPsiPreservation:
    def test_identity(self):
        a, t = gen_relative_convex_pair(8, 3)
        assert psi_preservation_check(a, t, lambda x: x).holds

    def test_exp_inverts_log_pair(self):
        idx = range(3, 40)
        a = [math.log(i) for i in idx]
        t = [math.log(math.log(i)) for i in idx]
        rep = psi_preservation_check(a, t, math.exp)
        assert rep.holds
        # exp maps the ordinates back to the integers themselves
        assert [round(math.exp(v)) for v in a] == list(idx)

    def test_relu_at_median(self):
        for seed in range(100):
            a, t = gen_relative_convex_pair(4 + seed % 9, seed + 1234)
            rep = psi_preservation_check(a, t, make_relu(median(a.values)))
            assert rep.holds

    def test_positive_part(self):
        # x * step(x), i.e. the hinge at zero
        for seed in range(60):
            a, t = gen_relative_convex_pair(4 + seed % 7, seed + 4321)
            assert psi_preservation_check(a, t, make_relu(0.0)).holds

    def test_requires_witnessed_input(self):
        with pytest.raises(PreconditionViolation):
            psi_preservation_check((0, 3, 1), (0, 1, 2), math.exp)


class TestBoundedMonotone:
    def test_harmonic_decay(self):
        a = [1.0 / n for n in range(1, 41)]
        t = list(range(1, 41))
        rep = bounded_monotone_diagnostic(a, t, bound=1.0, alpha=1.0)
        assert rep.applicable and rep.holds

    def test_convergent_witness_not_applicable(self):
        a = [math.atan(n) for n in range(1, 51)]
        w = construct_witness(a, list(range(1, 50)))  # schedule 1..49 shrinks the gaps
        rep = bounded_monotone_diagnostic(a, w, bound=math.pi / 2, alpha=0.01)
        assert not rep.applicable

    def test_constant_vacuous(self):
        rep = bounded_monotone_diagnostic((2.0, 2.0, 2.0), (0.0, 1.0, 2.0), bound=2.0, alpha=0.5)
        assert rep.applicable and rep.holds

    def test_bound_precondition(self):
        with pytest.raises(PreconditionViolation):
            bounded_monotone_diagnostic((0.0, 1.0, 3.0), (0.0, 1.0, 2.0), bound=1.0, alpha=0.5)

    @pytest.mark.parametrize("arg", ["bound", "alpha"])
    def test_nan_argument_is_a_value_error_naming_it(self, arg):
        a, t = (3.0, 2.0, 1.5), (0.0, 1.0, 2.0)
        args = {"bound": 3.0, "alpha": 0.5, arg: math.nan}
        with pytest.raises(ValueError, match=f"^{arg} must not be NaN$"):
            bounded_monotone_diagnostic(a, t, **args)
        if arg == "alpha":
            with pytest.raises(ValueError, match="^alpha must not be NaN$"):
                rate_diagnostic(a, t, alpha=math.nan)

    def test_infinite_arguments_keep_their_meaning(self):
        a, t = (3.0, 2.0, 1.5), (0.0, 1.0, 2.0)
        assert bounded_monotone_diagnostic(a, t, math.inf, 0.5).holds
        with pytest.raises(PreconditionViolation):
            bounded_monotone_diagnostic(a, t, -math.inf, 0.5)
        rep = bounded_monotone_diagnostic(a, t, 3.0, math.inf)
        assert (rep.applicable, rep.first_violation, rep.margin) == (False, 1, -math.inf)
        assert bounded_monotone_diagnostic(a, t, 3.0, -math.inf).holds


class TestRateDiagnostic:
    def test_harmonic_closed_form(self):
        n = 100
        a = [1.0 / k for k in range(1, n + 1)]
        t = list(range(1, n + 1))
        rep = rate_diagnostic(a, t, alpha=1.0)
        for k, term in enumerate(rep.terms, start=1):
            assert abs(term) == pytest.approx(1.0 / (k + 1), abs=1e-12)
            assert term <= 0.0
        assert rep.max_tail <= 0.014

    def test_constant_all_zero(self):
        rep = rate_diagnostic((5.0, 5.0, 5.0, 5.0), (1.0, 2.0, 3.0, 4.0))
        assert all(v == 0.0 for v in rep.terms)
        assert all(v == 0.0 for v in rep.partial_sums)

    def test_summable_square_decay(self):
        n = 60
        a = [-s for s in accumulate(1.0 / k**2 for k in range(1, n + 1))]
        t = list(range(1, n + 1))
        rep = rate_diagnostic(a, t, alpha=1.0)
        for k, term in enumerate(rep.terms, start=1):
            assert term == pytest.approx(-k / (k + 1.0) ** 2, rel=1e-9)
        # partial sums settle: successive increments shrink
        inc = [abs(y - x) for x, y in zip(rep.partial_sums, rep.partial_sums[1:])]
        assert inc[-1] < inc[0]

    def test_increasing_prefix_rejected(self):
        with pytest.raises(PreconditionViolation):
            rate_diagnostic((0.0, 1.0, 3.0), (0.0, 1.0, 2.0))

    def test_small_gap_rejected_when_alpha_given(self):
        a = (3.0, 2.0, 1.5)
        t = (0.0, 1.0, 1.1)
        with pytest.raises(PreconditionViolation):
            rate_diagnostic(a, t, alpha=0.5)

    def test_witnessed_gap_below_alpha_rejected(self):
        # (a, t) is witnessed and non-increasing; only the alpha floor fails
        with pytest.raises(PreconditionViolation, match=r"witness gap 1 = 1\.0 is below alpha = 1\.5"):
            rate_diagnostic((3.0, 2.0, 1.5), (0.0, 1.0, 2.0), alpha=1.5)

    def test_gap_below_alpha_wins_over_a_rise(self):
        # (a, t) is witnessed; the alpha floor fails at gap 1 and a rises at step 2
        with pytest.raises(PreconditionViolation, match=r"witness gap 1 = 1\.0 is below alpha = 1\.5"):
            rate_diagnostic((3.0, 2.0, 2.5), (0.0, 1.0, 2.0), alpha=1.5)

    def test_magnitudes_decay_after_scaling(self):
        # -slope_n is non-negative and non-increasing for a witnessed
        # non-increasing sequence, i.e. |terms|/n never grows
        rng = random.Random(71)
        for _ in range(50):
            n = rng.randrange(4, 20)
            # negative slopes, rising to zero
            slopes = [-s for s in sorted((rng.uniform(0.05, 2.0) for _ in range(n - 1)), reverse=True)]
            gaps = [rng.uniform(0.5, 1.5) for _ in range(n - 1)]
            t = list(accumulate(gaps, initial=0.0))
            a = [10.0 + x for x in accumulate(map(mul, slopes, gaps), initial=0.0)]
            rep = rate_diagnostic(a, t)
            scaled = [abs(v) / (k + 1) for k, v in enumerate(rep.terms)]
            assert all(x >= y - 1e-12 for x, y in zip(scaled, scaled[1:]))


@st.composite
def decay_prefixes(draw):
    """(a, t, alpha): a convex w.r.t. t by construction, mostly non-increasing; reversed slopes bend it."""
    gaps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]) | st.floats(0.01, 3.0), min_size=1, max_size=8))
    slopes = sorted(draw(st.lists(st.floats(-5.0, 1.0), min_size=len(gaps), max_size=len(gaps))))
    if draw(st.integers(0, 4)) == 0:
        slopes.reverse()
    t, a = [draw(st.floats(-10.0, 10.0))], [draw(st.floats(-10.0, 10.0))]
    for g, s in zip(gaps, slopes):
        t.append(t[-1] + g)
        a.append(a[-1] + s * g)
    alpha = draw(st.none() | st.just(math.nan) | st.sampled_from(gaps) | st.floats(0.0, 3.0))
    return a, t, alpha


@settings(max_examples=300, deadline=None)
@given(decay_prefixes())
@example(((3.0, 2.0, 1.5), (0.0, 1.0, 2.0), math.nan))
def test_rate_raises_exactly_when_the_dichotomy_report_fails(case):
    a, t, alpha = case
    try:
        rep = bounded_monotone_diagnostic(a, t, max(a), 0.0 if alpha is None else alpha)
    except (RelConvexError, ValueError) as err:
        if alpha != alpha:
            assert (type(err), str(err)) == (ValueError, "alpha must not be NaN")
        with pytest.raises(type(err), match=re.escape(str(err))):
            rate_diagnostic(a, t, alpha=alpha)
        return
    assert alpha == alpha  # a NaN floor never gives a report
    if rep.applicable and rep.holds:
        assert len(rate_diagnostic(a, t, alpha=alpha).terms) == len(a) - 1
    else:
        with pytest.raises(PreconditionViolation):
            rate_diagnostic(a, t, alpha=alpha)
