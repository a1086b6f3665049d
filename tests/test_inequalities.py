"""Inequality engine tests: examples frozen from independent oracles, then properties."""

import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relconvex import (
    ConvexMapWarning,
    DegenerateWitness,
    PreconditionViolation,
    RealSeq,
    WeightVec,
    Witness,
    build_extension,
    convex_hhf_bounds,
    hhf_bounds,
    integer_majorization_check,
    is_convex,
    lupas_check,
    majorization_inequality_check,
    make_relu,
    niezgoda_bound,
    parse_psi,
    pecaric_check,
    psi_identity,
    psi_preservation_check,
    spot_check_map,
)
from relconvex.errors import NonFiniteArithmetic
from relconvex.functionals import unit_weights
from relconvex.oracles import (
    brute_convex_hhf_bounds,
    brute_hhf_bounds,
    brute_lupas_sides,
    brute_majorization_sides,
    brute_niezgoda_sides,
    brute_pecaric_sides,
    gen_majorized_pair,
    gen_relative_convex_pair,
)
from relconvex.seqcore import unit_witness

np = pytest.importorskip("numpy")


def _convex_seq(rng, n):
    """Random convex sequence via sorted increments."""
    inc = np.sort(rng.normal(0, 2, n - 1))
    return list(np.concatenate([[rng.uniform(-3, 3)], inc]).cumsum())


class TestLupas:
    def test_self_instance_equality(self):
        t = (0.5, 1.0, 2.2, 4.0)
        rep = lupas_check(t, t, t, (1, 2, 1, 3))
        assert rep.holds
        assert abs(rep.slack) <= 1e-12 * max(1.0, abs(rep.lhs))

    def test_affine_equality(self):
        rng = np.random.default_rng(21)
        for seed in range(100):
            a_raw, t = gen_relative_convex_pair(int(rng.integers(3, 10)), seed)
            c = float(rng.uniform(-2, 2))
            d = float(rng.uniform(-5, 5))
            a = [c * x + d for x in t]
            p = list(rng.uniform(0.1, 2.0, len(t)))
            rep = lupas_check(a, a_raw, t, p)
            assert abs(rep.slack) <= 1e-9

    def test_frozen_example_against_oracle(self):
        a = (4.0, 1.0, 0.0, 2.0, 6.0)
        b = (9.0, 4.0, 1.0, 0.0, 1.0)
        t = (1.0, 2.0, 3.0, 4.0, 5.0)
        p = (1.0, 1.0, 1.0, 1.0, 1.0)
        lhs, rhs = brute_lupas_sides(a, b, t, p)
        rep = lupas_check(a, b, t, p)
        assert rep.holds
        assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)
        assert rep.rhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_random_shared_witness_suite(self):
        rng = np.random.default_rng(22)
        for seed in range(300):
            n = int(rng.integers(3, 12))
            a, t = gen_relative_convex_pair(n, seed)
            b, _ = gen_relative_convex_pair(n, seed + 100_000)
            # rebuild b on the same witness: a second convex shape over t
            slopes = np.sort(rng.normal(0, 2, n - 1))
            b = list(np.concatenate([[rng.uniform(-4, 4)], slopes * np.diff(t)]).cumsum())
            p = list(rng.uniform(0.05, 2.0, n))
            rep = lupas_check(a, b, t, p)
            assert rep.slack >= -1e-9

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionViolation):
            lupas_check((0, 3, 1), (0, 1, 2), (0, 1, 2), (1, 1, 1))

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateWitness):
            lupas_check((0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 0))


class TestPecaric:
    def test_arithmetic_equality(self):
        rng = np.random.default_rng(23)
        for seed in range(50):
            n = int(rng.integers(3, 10))
            a = [2.0 + 0.7 * i for i in range(n)]
            b = _convex_seq(rng, n)
            rep = pecaric_check(a, b)
            assert abs(rep.slack) <= 1e-9

    def test_two_point_collapse(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            a = list(rng.normal(0, 5, 2))
            b = list(rng.normal(0, 5, 2))
            rep = pecaric_check(a, b)
            expect = (a[0] - a[1]) * (b[0] - b[1]) / 2.0
            assert rep.lhs == pytest.approx(expect, rel=1e-12, abs=1e-12)
            assert rep.rhs == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_spike(self):
        rep = pecaric_check((1, 0, 1), (1, 0, 1))
        assert rep.lhs == pytest.approx(2 / 3)
        assert rep.rhs == pytest.approx(0.0, abs=1e-15)
        assert rep.holds

    def test_matches_normalized_engine(self):
        # raw-sum form = n times the mean form at unit witness, uniform weights
        rng = np.random.default_rng(25)
        for seed in range(100):
            n = int(rng.integers(3, 12))
            a = _convex_seq(rng, n)
            b = _convex_seq(rng, n)
            raw = pecaric_check(a, b)
            norm = lupas_check(a, b, list(range(1, n + 1)), [1.0] * n)
            assert raw.lhs == pytest.approx(n * norm.lhs, rel=1e-9, abs=1e-9)
            assert raw.rhs == pytest.approx(n * norm.rhs, rel=1e-9, abs=1e-9)
            assert raw.holds == norm.holds
            lhs, rhs = brute_pecaric_sides(a, b)
            assert raw.lhs == pytest.approx(lhs, rel=1e-10, abs=1e-10)
            assert raw.rhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestHhfBounds:
    def test_point_mass_on_first_index(self):
        a = (4.0, 1.0, 0.0, 2.0, 6.0)
        t = (1.0, 2.0, 3.0, 4.0, 5.0)
        rep = hhf_bounds(a, t, (1, 0, 0, 0, 0), psi_identity)
        assert rep.lower == rep.value == a[0]
        assert rep.upper == a[0]
        assert rep.m == 1 and rep.gamma_t == 0.0 and rep.lambda_t == 1.0

    def test_frozen_example(self):
        rep = hhf_bounds((4, 1, 0, 2, 6), (1, 2, 3, 4, 5), (1, 1, 1, 1, 1), psi_identity)
        assert rep.lower == pytest.approx(0.0, abs=1e-15)
        assert rep.value == pytest.approx(2.6)
        assert rep.upper == pytest.approx(5.0)
        assert rep.m == 3 and rep.gamma_t == pytest.approx(0.0, abs=1e-15)
        assert rep.holds
        lo, val, up = brute_hhf_bounds([4, 1, 0, 2, 6], [1, 2, 3, 4, 5], [1] * 5, psi_identity)
        assert (lo, val, up) == (pytest.approx(rep.lower), pytest.approx(rep.value), pytest.approx(rep.upper))

    def test_symmetric_weights_halfway_segment(self):
        # even length + index-symmetric weights put the witness mean at the
        # middle segment's midpoint, so the lower bound is the average of the
        # two middle images
        rng = np.random.default_rng(26)
        for seed in range(60):
            n = 2 * int(rng.integers(2, 7))
            a = _convex_seq(rng, n)
            half = rng.uniform(0.1, 2.0, n // 2)
            p = list(half) + list(half[::-1])
            for psi in (psi_identity, math.exp, make_relu(float(np.median(a)))):
                rep = hhf_bounds(a, list(range(1, n + 1)), p, psi)
                m = (n + 1) // 2
                expect = (psi(a[m - 1]) + psi(a[m])) / 2.0
                assert rep.m == m
                assert rep.lower == pytest.approx(expect, rel=1e-9, abs=1e-9)
                assert rep.holds

    def test_sandwich_random_suite(self):
        rng = np.random.default_rng(27)
        for seed in range(300):
            n = int(rng.integers(2, 12))
            a, t = gen_relative_convex_pair(n, seed + 5_000)
            p = list(rng.uniform(0.05, 2.0, n))
            psi = (psi_identity, math.exp, make_relu(float(np.median(a))))[seed % 3]
            rep = hhf_bounds(a, t, p, psi)
            assert rep.slack_lower >= -1e-9
            assert rep.slack_upper >= -1e-9

    def test_top_heavy_weights_clamp(self):
        # all weight at the last index pushes the witness mean onto t_n;
        # the clamp keeps a valid segment and the lower bound becomes psi(a_n)
        a = (5.0, 2.0, 1.0, 3.0)
        t = (0.0, 1.0, 2.0, 3.0)
        rep = hhf_bounds(a, t, (0, 0, 0, 1), psi_identity)
        assert rep.m == 3
        assert rep.gamma_t == 1.0
        assert rep.lower == a[-1]
        assert rep.holds

    def test_shift_covariance(self):
        a, t = gen_relative_convex_pair(8, 77)
        p = [1.0] * 8
        base = hhf_bounds(a, t, p, psi_identity)
        shifted = hhf_bounds(a, t, p, lambda x: x + 5.0)
        assert shifted.lower == pytest.approx(base.lower + 5.0, rel=1e-12)
        assert shifted.value == pytest.approx(base.value + 5.0, rel=1e-12)
        assert shifted.upper == pytest.approx(base.upper + 5.0, rel=1e-12)
        assert shifted.holds

    def test_endpoints_within_the_tolerance_are_degenerate(self):
        # Witness.of passes a pre-built witness on unjudged, so its span may lie within tol.abs
        with pytest.raises(DegenerateWitness, match="^witness endpoints coincide$"):
            hhf_bounds([1, 2], Witness([0, 1e-10]), [1, 1], psi_identity)


class TestNiezgoda:
    def test_two_point_collapse(self):
        rep = niezgoda_bound((2.0, 9.0), (0.4, 1.6), psi_identity)
        assert rep.upper == pytest.approx(rep.value, rel=1e-12)

    def test_frozen_example(self):
        rep = niezgoda_bound((4, 1, 0, 2, 6), (1, 0, 0, 0, 1), psi_identity)
        assert rep.value == pytest.approx(10.0)
        assert rep.upper == pytest.approx(10.0)
        assert rep.holds
        val, up = brute_niezgoda_sides([4, 1, 0, 2, 6], [1, 0, 0, 0, 1], psi_identity)
        assert (val, up) == (pytest.approx(10.0), pytest.approx(10.0))

    def test_equals_scaled_unit_witness_upper(self):
        rng = np.random.default_rng(28)
        for seed in range(100):
            n = int(rng.integers(2, 12))
            a = _convex_seq(rng, n)
            p = list(rng.uniform(0.05, 2.0, n))
            raw = niezgoda_bound(a, p, math.exp)
            norm = hhf_bounds(a, list(range(1, n + 1)), p, math.exp)
            assert raw.upper == pytest.approx(sum(p) * norm.upper, rel=1e-9)


class TestConvexHhf:
    def test_frozen_example(self):
        a = (4.0, 1.0, 0.0, 2.0, 6.0)
        p = (1.0, 2.0, 3.0, 2.0, 1.0)
        rep = convex_hhf_bounds(a, p, psi_identity)
        lo, val, up = brute_convex_hhf_bounds(a, p, psi_identity)
        assert rep.lower == pytest.approx(lo, rel=1e-12)
        assert rep.value == pytest.approx(val, rel=1e-12)
        assert rep.upper == pytest.approx(up, rel=1e-12)
        assert rep.holds

    def test_point_mass(self):
        a = (4.0, 1.0, 0.0, 2.0, 6.0)
        rep = convex_hhf_bounds(a, (1, 0, 0, 0, 0), psi_identity)
        assert rep.m == 1
        assert rep.lower == pytest.approx(a[0])
        assert rep.upper == pytest.approx(a[0])
        assert rep.value == pytest.approx(a[0])

    def test_symmetric_weights_reduction(self):
        rng = np.random.default_rng(29)
        for seed in range(60):
            n = 2 * int(rng.integers(2, 7))
            a = _convex_seq(rng, n)
            half = rng.uniform(0.1, 2.0, n // 2)
            p = list(half) + list(half[::-1])
            total = sum(p)
            psi = math.exp if seed % 2 else psi_identity
            rep = convex_hhf_bounds(a, p, psi)
            m = (n + 1) // 2
            assert rep.m == m
            assert rep.lower / total == pytest.approx(
                (psi(a[m - 1]) + psi(a[m])) / 2.0, rel=1e-9, abs=1e-9
            )
            assert rep.upper / total == pytest.approx(
                (psi(a[0]) + psi(a[-1])) / 2.0, rel=1e-9, abs=1e-9
            )
            assert rep.holds

    def test_sandwich_random(self):
        rng = np.random.default_rng(30)
        for seed in range(200):
            n = int(rng.integers(2, 12))
            a = _convex_seq(rng, n)
            p = list(rng.uniform(0.05, 2.0, n))
            rep = convex_hhf_bounds(a, p, make_relu(float(np.median(a))))
            assert rep.slack_lower >= -1e-9 and rep.slack_upper >= -1e-9


class TestMajorizationEngine:
    def test_identical_vectors(self):
        a, t = gen_relative_convex_pair(7, 404)
        q = [float(t[0]) + 0.3, float(t[-1]) - 0.2, (t[0] + t[-1]) / 2.0]
        rep = majorization_inequality_check(a, t, q, q)
        assert rep.holds and rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_integer_unit_witness_reduces_to_index_sums(self):
        a = (4.0, 1.0, 0.0, 2.0, 6.0)
        t = (1.0, 2.0, 3.0, 4.0, 5.0)
        rep = majorization_inequality_check(a, t, (2, 3, 4), (1, 3, 5))
        # zero fractional parts: the margin is the index-sum gap 10 - 3
        assert rep.margin == pytest.approx(7.0)
        irep = integer_majorization_check(a, (2, 3, 4), (1, 3, 5))
        assert irep.margin == pytest.approx(rep.margin)

    def test_transform_suite_with_extension_crosscheck(self):
        rng = np.random.default_rng(31)
        for seed in range(300):
            n = int(rng.integers(3, 10))
            a, t = gen_relative_convex_pair(n, seed + 9_000)
            k = int(rng.integers(2, 8))
            q = list(rng.uniform(t[0], t[-1], k))
            p = list(gen_majorized_pair(q, 2 * k, seed))
            rep = majorization_inequality_check(a, t, p, q)
            assert rep.margin >= -1e-9
            ext = build_extension(a, t)
            via_ext = sum(ext.eval(x) for x in q) - sum(ext.eval(x) for x in p)
            assert rep.margin == pytest.approx(via_ext, rel=1e-9, abs=1e-9)
            sp, sq = brute_majorization_sides(list(a), list(t), p, q)
            assert rep.margin == pytest.approx(sq - sp, rel=1e-9, abs=1e-9)

    def test_out_of_range_rejected(self):
        a, t = gen_relative_convex_pair(5, 1)
        with pytest.raises(PreconditionViolation):
            majorization_inequality_check(a, t, (t[0] - 1.0, t[1]), (t[0], t[1] - 1.0))

    def test_non_majorized_rejected(self):
        a, t = gen_relative_convex_pair(5, 2)
        lo, hi = float(t[0]), float(t[-1])
        with pytest.raises(PreconditionViolation):
            majorization_inequality_check(a, t, (hi, hi), (lo, lo))

    def test_converse_search_falsifies_non_convex(self):
        # a rejected profile admits majorized pairs that flip the inequality;
        # a random transform search must exhibit one quickly
        a = [math.sqrt(abs(n - 3)) + math.sqrt(abs(n - 9)) for n in range(1, 13)]
        t = list(range(1, 13))
        found = False
        for trial in range(10_000):
            rng = np.random.default_rng(trial)
            q = list(rng.uniform(1.0, 12.0, 5))
            p = list(gen_majorized_pair(q, 6, trial))
            rep = majorization_inequality_check(a, t, p, q, skip_verify=True)
            if rep.margin < -1e-9:
                found = True
                break
        assert found


class TestIntegerMajorization:
    def test_base_case_is_midpoint_convexity(self):
        convex = (4.0, 1.0, 0.0, 2.0, 6.0)
        rep = integer_majorization_check(convex, (2, 2), (1, 3))
        assert rep.margin == pytest.approx(convex[0] + convex[2] - 2 * convex[1])
        assert rep.holds

    def test_permutation_equality(self):
        a = (3.0, 1.0, 0.5, 2.0)
        rep = integer_majorization_check(a, (4, 1, 2, 3), (1, 2, 3, 4))
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_random_transform_indices(self):
        rng = np.random.default_rng(33)
        for seed in range(200):
            n = int(rng.integers(3, 10))
            a = _convex_seq(rng, n)
            k = int(rng.integers(2, 6))
            q = [int(v) for v in rng.integers(1, n + 1, k)]
            # integer-preserving mixing: swap toward the mean by whole steps
            p = sorted(q)
            for _ in range(4):
                i, j = sorted(rng.integers(0, k, 2))
                if p[i] < p[j]:
                    p[i] += 1
                    p[j] -= 1
                    p.sort()
            if not all(1 <= v <= n for v in p):
                continue
            from relconvex import majorizes

            if not majorizes([float(v) for v in p], [float(v) for v in q]):
                continue
            rep = integer_majorization_check(a, p, q)
            assert rep.holds


class TestPsiContract:
    def test_square_warns_on_negative_range(self):
        with pytest.warns(ConvexMapWarning):
            spot_check_map(lambda x: x * x, (-3.0, -1.0, 0.5))

    def test_parse_builtins(self):
        assert parse_psi("identity")(2.5) == 2.5
        assert parse_psi("exp")(0.0) == 1.0
        assert parse_psi("relu@1.5")(0.0) == 1.5
        assert parse_psi("relu@1.5")(2.0) == 2.0
        assert parse_psi("square")(3.0) == 9.0
        with pytest.raises(ValueError):
            parse_psi("cubic")

    def test_contract_violation_warns_not_raises(self):
        a = (0.0, 1.0, 2.5, 4.5)  # convex, increasing
        with pytest.warns(ConvexMapWarning):
            rep = hhf_bounds(a, (0, 1, 2, 3), (1, 1, 1, 1), lambda x: -x)
        assert rep.value == pytest.approx(-2.0)

    @pytest.mark.parametrize("call", [
        lambda psi: hhf_bounds((4, 1, 0, 2, 6), (1, 2, 3, 4, 5), (1, 1, 1, 1, 1), psi),
        lambda psi: niezgoda_bound((4, 1, 0, 2, 6), (1, 1, 1, 1, 1), psi),
        lambda psi: psi_preservation_check((4, 1, 0, 2, 6), (1, 2, 3, 4, 5), psi),
    ], ids=["hhf_bounds", "niezgoda_bound", "psi_preservation_check"])
    def test_warnings_name_the_first_caller_outside_the_package(self, call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(lambda x: -x)
        assert caught and all(w.category is ConvexMapWarning for w in caught)
        assert {w.filename for w in caught} == {__file__}


class TestOnePreconditionPath:
    """The witnessed engines alone verify convexity; at t = 1..n they word
    the error as ``is_convex`` reports it."""

    @staticmethod
    def ordinary(name, a):
        rep = is_convex(a)
        assert not rep.holds
        return (f"{name} is not convex: interior index {rep.first_violation} "
                f"sits above its neighbour midpoint (margin {rep.margin!r})")

    @staticmethod
    def raised(call):
        with pytest.raises(PreconditionViolation) as info:
            call()
        return str(info.value)

    def test_witnessed_engines_word_the_unit_witness_as_ordinary_convexity(self):
        a, b, t = [0.0, 3.0, 1.0, 4.0, 9.0], [9.0, 4.0, 1.0, 0.0, 1.0], [1, 2, 3, 4, 5]
        message = self.ordinary("a", a)
        assert message.startswith("a is not convex: interior index 2 ")
        assert self.raised(lambda: lupas_check(a, b, t, [1.0] * 5)) == message
        assert self.raised(lambda: hhf_bounds(a, t, [1.0] * 5, psi_identity)) == message
        assert self.raised(lambda: majorization_inequality_check(a, t, [2, 3], [1, 4])) == message

    def test_other_witnesses_keep_the_slope_pair_wording(self):
        a, t = [0.0, 3.0, 1.0, 4.0, 9.0], [0, 1, 2, 3, 4]
        message = self.raised(lambda: hhf_bounds(a, t, [1.0] * 5, psi_identity))
        assert message.startswith("a is not convex w.r.t. t: slope pair 1 decreases (margin ")

    def test_wrappers_word_their_error_from_is_convex(self):
        rng = np.random.default_rng(10)
        seen = 0
        for _ in range(200):
            n = int(rng.integers(3, 12))
            a = list(rng.normal(0.0, 3.0, n))
            if is_convex(a).holds:
                continue
            seen += 1
            b = _convex_seq(rng, n)
            p = list(rng.uniform(0.1, 2.0, n))
            message = self.ordinary("a", a)
            assert self.raised(lambda: pecaric_check(a, b)) == message
            assert self.raised(lambda: pecaric_check(b, a)) == self.ordinary("b", a)
            assert self.raised(lambda: niezgoda_bound(a, p, psi_identity)) == message
            assert self.raised(lambda: convex_hhf_bounds(a, p, psi_identity)) == message
            assert self.raised(lambda: integer_majorization_check(a, [2, 2], [1, 3])) == message
        assert seen > 100

    def test_integer_majorization_verifies_before_summing(self):
        # the sums 1.5e308 + 1.5e308 overflow; the non-convex sequence is rejected first
        with pytest.raises(PreconditionViolation, match="interior index 2 "):
            integer_majorization_check([0, 1.5e308, 1.5e308, 0], [2, 3], [1, 4])


# -- the engines at t = 1..n are the witnessed engines, scaled -------------------


def sides_or_error(call, *names):
    """The named fields of the report, or (error type, message) on a raise."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvexMapWarning)
        try:
            rep = call()
        except Exception as err:  # noqa: BLE001 - the error itself is compared
            return type(err), str(err)
    return tuple(getattr(rep, name) for name in names)


def assert_scaled(got, inner, factor):
    """``got`` is ``inner`` with its float sides times ``factor``, and the same error on a raise.
    A scaled side that overflows is the caller's own NonFiniteArithmetic: it judges its sides,
    whose scale is inf, or NaN when they overflow to both inf and -inf."""
    want = inner
    if not isinstance(inner[0], type):
        want = tuple(v * factor if isinstance(v, float) else v for v in inner)
        if not all(map(math.isfinite, want)):
            scale = "nan" if math.isnan(sum(want)) else "inf"
            want = (NonFiniteArithmetic, f"compared quantities reach {scale}")
    assert repr(got) == repr(want)


@st.composite
def unit_instances(draw):
    """(a, b, p, psi, skip_verify, as_objects): n <= 12, convex or arbitrary sequences, huge ones included."""
    n = draw(st.integers(2, 12))
    convex = st.builds(lambda c, k, s: [k * (i - c) ** 2 + s * i for i in range(n)],
                       st.floats(0, n), st.floats(0, 1e3), st.floats(-1e3, 1e3))
    entries = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([1e308, -1e308, 700.0, 0.0]))
    seq = st.one_of(convex, st.lists(entries, min_size=n, max_size=n))
    p = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=n, max_size=n))
    if not sum(p) > 0:
        p[0] = 1.0
    psi = parse_psi(draw(st.sampled_from(["identity", "exp", "relu@0.5", "square"])))
    return draw(seq), draw(seq), p, psi, draw(st.booleans()), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(unit_instances())
# P_n = 3 takes the lower side to inf and the upper to -inf: a NaN scale
@example(([0.0] * 8 + [1e308, -1e308], [0.0] * 10, [0.0] * 7 + [2.0, 0.0, 1.0], psi_identity, True, False))
def test_the_engines_at_unit_t_are_the_witnessed_engines_scaled(inst):
    a, b, p, psi, sv, as_objects = inst
    n = len(a)
    if as_objects:
        a, b, p = RealSeq(a), RealSeq(b), WeightVec(p)
    total = WeightVec.of(p).total
    t, units = unit_witness(n), unit_weights(n)
    lupas = sides_or_error(lambda: lupas_check(a, b, t, units, skip_verify=sv), "lhs", "rhs")
    assert_scaled(sides_or_error(lambda: pecaric_check(a, b, skip_verify=sv), "lhs", "rhs"), lupas, n)
    for engine, sides in ((niezgoda_bound, ("value", "upper")),
                          (convex_hhf_bounds, ("lower", "value", "upper", "m"))):
        hhf = sides_or_error(lambda: hhf_bounds(a, t, p, psi, skip_verify=sv), *sides)
        assert_scaled(sides_or_error(lambda: engine(a, p, psi, skip_verify=sv), *sides), hhf, total)
