"""Core type, classification, and witness-construction tests."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relconvex import (
    DEFAULT_TOL,
    IntervalError,
    LengthError,
    LengthMismatch,
    MonotoneError,
    RealSeq,
    ShapeError,
    ShapeKind,
    SignError,
    Tolerance,
    Witness,
    WitnessNotIncreasing,
    classify_shape,
    construct_witness,
    construct_witness_on_interval,
    forward_diff,
    is_convex,
    is_convex_wrt,
    is_relative_convex,
)
from relconvex.oracles import gen_relative_convex_pair, gen_shape

np = pytest.importorskip("numpy")


class TestTypes:
    def test_realseq_rejects_short_and_nonfinite(self):
        with pytest.raises(LengthError):
            RealSeq((1.0,))
        with pytest.raises(ValueError):
            RealSeq((1.0, math.nan))
        with pytest.raises(ValueError):
            RealSeq((1.0, math.inf))

    def test_witness_strictly_increasing(self):
        with pytest.raises(WitnessNotIncreasing):
            Witness((0.0, 0.0, 1.0))
        with pytest.raises(WitnessNotIncreasing):
            Witness.of((0.0, 5e-10, 1.0))  # gap below the default strictness
        assert Witness.of((0.0, 1.0)).values == (0.0, 1.0)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            Tolerance(abs=-1.0)
        assert Tolerance(1e-6, 0.0).slack(100.0) == 1e-6


class TestForwardDiff:
    def test_simple(self):
        assert forward_diff((1, 2, 4)) == (1.0, 2.0)

    def test_constant(self):
        assert forward_diff((3.5, 3.5, 3.5)) == (0.0, 0.0)

    def test_mixed(self):
        # element-wise subtraction oracle
        vals = (4.0, 1.0, 0.0, 2.0, 6.0)
        expected = tuple(vals[i + 1] - vals[i] for i in range(4))
        assert forward_diff(vals) == expected == (-3.0, -1.0, 2.0, 4.0)

    def test_too_short(self):
        with pytest.raises(LengthError):
            forward_diff((1.0,))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
    def test_telescoping(self, vals):
        d = forward_diff(vals)
        assert len(d) == len(vals) - 1
        assert math.isclose(math.fsum(d), vals[-1] - vals[0], rel_tol=1e-9, abs_tol=1e-6)


class TestIsConvex:
    def test_log_sequence_not_convex(self):
        a = [math.log(i) for i in range(3, 11)]
        assert not is_convex(a).holds

    def test_arithmetic_margin_zero(self):
        rep = is_convex((0.0, 2.5, 5.0, 7.5))
        assert rep.holds and rep.margin == 0.0

    def test_convex_example(self):
        assert is_convex((4, 1, 0, 2, 6)).holds

    def test_length_two_vacuous(self):
        rep = is_convex((7.0, -3.0))
        assert rep.holds and rep.margin == math.inf

    def test_first_violation_is_interior_index(self):
        rep = is_convex((0.0, 5.0, 0.0, 10.0))
        assert not rep.holds
        assert rep.first_violation == 2  # a_2 = 5 above (a_1 + a_3)/2 = 0


class TestIsConvexWrt:
    def test_log_against_loglog(self):
        a = [math.log(i) for i in range(3, 101)]
        t = [math.log(math.log(i)) for i in range(3, 101)]
        assert is_convex_wrt(a, t).holds

    def test_unit_witness_matches_is_convex_exactly(self):
        # is_convex is the slope test at the arithmetic witness, whose unit
        # gaps make the slopes the forward differences bit-for-bit: the same
        # verdict, the interior index one past the slope pair, half the margin
        rng = np.random.default_rng(20240815)
        # a midpoint form gave -0.04999999999999982 here, not half the slope margin
        inputs = [[0.1, 0.7, 1.9, 3.0]]
        inputs += [list(rng.normal(0, 3, int(rng.integers(2, 12)))) for _ in range(200)]
        for vals in inputs:
            rep = is_convex(vals)
            wrt = is_convex_wrt(vals, list(range(1, len(vals) + 1)))
            assert rep.holds == wrt.holds
            assert rep.first_violation == (None if wrt.holds else wrt.first_violation + 1)
            assert math.copysign(1.0, rep.margin) == math.copysign(1.0, wrt.margin)
            assert rep.margin == wrt.margin / 2
        assert is_convex([0.1, 0.7, 1.9, 3.0]).margin == -0.04999999999999993

    def test_samples_of_square_map(self):
        rng = np.random.default_rng(7)
        t = np.cumsum(rng.uniform(0.2, 1.0, 12)) - 3.0
        a = t**2
        assert is_convex_wrt(a, t).holds

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            is_convex_wrt((1, 2, 3), (0, 1))

    def test_affine_invariance_of_verdict(self):
        rng = np.random.default_rng(99)
        for seed in range(100):
            a, t = gen_relative_convex_pair(int(rng.integers(3, 10)), seed)
            c = float(rng.uniform(0.1, 4.0))
            d = float(rng.uniform(-10.0, 10.0))
            scaled = [c * x + d for x in t]
            assert is_convex_wrt(a, scaled).holds == is_convex_wrt(a, t).holds


class TestClassifyShape:
    def test_v_from_sqrt_kink(self):
        a = [math.sqrt(abs(n - 3)) for n in range(1, 13)]
        shape = classify_shape(a)
        assert shape.variant is ShapeKind.DEC_THEN_INC
        assert shape.breakpoints == (3, 0)

    def test_sum_of_two_vs_is_rejected(self):
        a = [math.sqrt(abs(n - 3)) + math.sqrt(abs(n - 9)) for n in range(1, 13)]
        assert classify_shape(a).variant is ShapeKind.NOT_STRICTLY_V_SHAPED

    @pytest.mark.parametrize(
        "vals,kind,bp",
        [
            ((0, 0, 0, 1, 3), ShapeKind.CONST_THEN_INC, (1, 2)),
            ((1, 2, 4), ShapeKind.STRICTLY_INCREASING, (1, 0)),
            ((4, 2, 1), ShapeKind.STRICTLY_DECREASING, (3, 0)),
            ((5, 2, 2, 2), ShapeKind.DEC_THEN_CONST, (2, 2)),
            ((3, 1, 4), ShapeKind.DEC_THEN_INC, (2, 0)),
            ((5, 3, 3, 4, 9), ShapeKind.DEC_CONST_INC, (2, 1)),
            ((2, 2, 2), ShapeKind.CONSTANT, (1, 2)),
            ((1, 3, 2), ShapeKind.NOT_STRICTLY_V_SHAPED, None),
            ((3, 2, 2, 1), ShapeKind.NOT_STRICTLY_V_SHAPED, None),
            ((1, 2, 2, 3), ShapeKind.NOT_STRICTLY_V_SHAPED, None),
        ],
    )
    def test_profiles(self, vals, kind, bp):
        shape = classify_shape(vals)
        assert shape.variant is kind
        assert shape.breakpoints == bp

    def test_tolerance_blurs_tiny_steps(self):
        # a 1e-12 wobble reads as a plateau under the default tolerance
        assert classify_shape((1.0, 1.0 + 1e-12, 1.0, 2.0)).variant is ShapeKind.CONST_THEN_INC

    def test_sub_tolerance_step_away_from_the_minimum_keeps_its_sign(self):
        # the 8e-10 step lies within the tolerance but not at the minimum
        a = (0.0, 2e-9, 2.8e-9, 2.58e-8)
        shape = classify_shape(a)
        assert shape.variant is ShapeKind.STRICTLY_INCREASING
        assert shape.breakpoints == (1, 0)
        assert is_convex_wrt(a, construct_witness_on_interval(a, 0.0, 1.0)).holds

    def test_sub_tolerance_descent_after_an_ascent_is_rejected(self):
        assert classify_shape((1.0, 2.0, 2.0 - 1e-12, 3.0)).variant is ShapeKind.NOT_STRICTLY_V_SHAPED


class TestIsRelativeConvex:
    def test_arctan_prefix(self):
        assert is_relative_convex([math.atan(n) for n in range(1, 51)])

    def test_dec_plateau_inc(self):
        assert is_relative_convex((5, 3, 1, 1, 2, 4))

    def test_plateau_off_minimum_is_infeasible(self):
        # slope signs (-, 0, -) cannot be made non-decreasing by any witness
        assert not is_relative_convex((3, 2, 2, 1))


class TestConstructWitness:
    def test_increasing_by_hand(self):
        w = construct_witness((1, 2, 4), (1, 2), t1=0.0)
        assert w.values == (0.0, 1.0, 2.0)

    def test_decreasing_by_hand(self):
        w = construct_witness((4, 2, 1), (-2, -1), t1=0.0)
        assert w.values == (0.0, 1.0, 2.0)

    def test_constant_all_plateau(self):
        w = construct_witness((7.0, 7.0, 7.0), (), t1=5.0, plateau_step=1.0)
        assert w.values == (5.0, 6.0, 7.0)
        assert is_convex_wrt((7.0, 7.0, 7.0), w).holds

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            construct_witness((1, 3, 2), (1, 2))

    def test_sign_error(self):
        with pytest.raises(SignError):
            construct_witness((1, 2, 4), (-1, 2))
        with pytest.raises(SignError, match="must be negative on a decrease step"):
            construct_witness((3, 1, 2), (1, 2))

    def test_plateau_step_within_the_tolerance(self):
        with pytest.raises(ValueError, match=r"^plateau_step must exceed the strictness tolerance, got 0\.0$"):
            construct_witness((3, 1, 2), (-1, 1), plateau_step=0.0)

    def test_monotone_error(self):
        with pytest.raises(MonotoneError):
            construct_witness((1, 2, 4), (2, 1))

    def test_schedule_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            construct_witness((1, 2, 4), (1, 2, 3))
        with pytest.raises(LengthMismatch):
            construct_witness((1, 2, 4), (1,))

    def test_v_shape_with_plateau(self):
        a = (5.0, 3.0, 1.0, 1.0, 2.0, 4.0)
        w = construct_witness(a, (-4, -2, 1, 3), t1=-1.0, plateau_step=0.5)
        rep = is_convex_wrt(a, w)
        assert rep.holds and rep.margin >= -1e-9


class TestSubdivision:
    def test_increasing_example(self):
        w = construct_witness_on_interval((0, 1, 3), 0.0, 1.0)
        assert w.values[0] == 0.0 and w.values[-1] == 1.0
        assert w.values[1] == pytest.approx(3.0 / 5.0)
        assert is_convex_wrt((0, 1, 3), w).holds

    def test_decreasing_example(self):
        w = construct_witness_on_interval((3, 1, 0), 0.0, 1.0)
        assert w.values[0] == 0.0 and w.values[-1] == 1.0
        assert is_convex_wrt((3, 1, 0), w).holds

    def test_symmetric_v(self):
        w = construct_witness_on_interval((2, 0, 2), 0.0, 2.0)
        assert w.values == (0.0, 1.0, 2.0)

    def test_interval_error(self):
        with pytest.raises(IntervalError):
            construct_witness_on_interval((1, 2, 3), 1.0, 1.0)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            construct_witness_on_interval((1, 3, 2), 0.0, 1.0)

    def test_every_growth_factor_failing_raises_the_first_failure(self):
        # the second step is a thousand-billionth of the first: every growth
        # factor leaves it less room than the strictness tolerance
        with pytest.raises(WitnessNotIncreasing):
            construct_witness_on_interval((0.0, 1e6, 1e6 + 2e-9), 0.0, 1.0)

    def test_steep_early_rise_stays_inside(self):
        # a steep early rise must not push t_2 onto beta: the subdivision
        # stays strictly interior
        a = (0.0, 10.0, 10.1, 20.0)
        w = construct_witness_on_interval(a, 0.0, 1.0)
        assert w.values[0] == 0.0 and w.values[-1] == 1.0
        assert all(x < 1.0 for x in w.values[:-1])
        assert is_convex_wrt(a, w).holds

    @pytest.mark.parametrize("kind", [k for k in ShapeKind if k is not ShapeKind.NOT_STRICTLY_V_SHAPED])
    def test_endpoints_bit_exact_across_shapes(self, kind):
        # seeded by the kind's position, so a failing draw replays in any process
        rng = np.random.default_rng(list(ShapeKind).index(kind))
        for trial in range(25):
            n = int(rng.integers(4, 12))
            a = gen_shape(kind, n, int(rng.integers(0, 2**31)))
            alpha = float(rng.uniform(-10.0, 10.0))
            beta = alpha + float(rng.uniform(0.1, 20.0))
            w = construct_witness_on_interval(a, alpha, beta)
            assert w.values[0] == alpha
            assert w.values[-1] == beta
            assert is_convex_wrt(a, w).margin >= -1e-9


class TestAlgebraicProperties:
    def test_round_trip_random_schedules(self):
        rng = np.random.default_rng(31337)
        for kind in ShapeKind:
            if kind is ShapeKind.NOT_STRICTLY_V_SHAPED:
                continue
            for trial in range(30):
                n = int(rng.integers(4, 12))
                a = gen_shape(kind, n, int(rng.integers(0, 2**31)))
                d = forward_diff(a)
                n_dec = sum(1 for x in d if x < -DEFAULT_TOL.abs)
                n_inc = sum(1 for x in d if x > DEFAULT_TOL.abs)
                neg = -np.cumsum(rng.uniform(0.1, 1.0, n_dec))[::-1] if n_dec else []
                pos = np.cumsum(rng.uniform(0.1, 1.0, n_inc)) if n_inc else []
                sched = list(neg) + list(pos)
                w = construct_witness(a, sched, t1=float(rng.uniform(-5, 5)),
                                      plateau_step=float(rng.uniform(0.2, 2.0)))
                assert is_convex_wrt(a, w).margin >= -1e-9

    def test_composition_transitivity(self):
        # an increasing sequence convex w.r.t. an increasing convex sequence
        # inherits every witness of the inner sequence
        rng = np.random.default_rng(555)
        for _ in range(100):
            n = int(rng.integers(3, 10))
            s = np.cumsum(rng.uniform(0.1, 1.0, n))
            slopes_a = np.sort(rng.uniform(0.1, 3.0, n - 1))
            a = np.concatenate([[0.0], np.cumsum(slopes_a * np.diff(s))])
            slopes_b = np.sort(rng.uniform(0.1, 3.0, n - 1))
            b = np.concatenate([[1.0], np.cumsum(slopes_b * np.diff(a))])
            assert is_convex_wrt(a, s).holds
            assert is_convex_wrt(b, a).holds
            assert is_convex_wrt(b, s).holds

    def test_sum_breaks_the_class(self):
        one = [math.sqrt(abs(n - 3)) for n in range(1, 13)]
        two = [math.sqrt(abs(n - 9)) for n in range(1, 13)]
        assert is_relative_convex(one) and is_relative_convex(two)
        total = [x + y for x, y in zip(one, two)]
        assert classify_shape(total).variant is ShapeKind.NOT_STRICTLY_V_SHAPED
