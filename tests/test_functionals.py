"""Weighted functional and majorization preorder tests."""

import random
from statistics import fmean

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relconvex import (
    LengthMismatch,
    WeightVec,
    ZeroTotalWeight,
    cov_functional,
    lupas_constant,
    majorizes,
    weighted_mean,
)
from relconvex.oracles import brute_cov, brute_weighted_mean, gen_majorized_pair


class TestWeightVec:
    def test_rejects_zero_total(self):
        with pytest.raises(ZeroTotalWeight):
            WeightVec((0.0, 0.0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVec((1.0, -0.5))


class TestWeightedMean:
    def test_uniform_is_arithmetic_mean(self):
        assert weighted_mean((1, 2, 4), (1, 1, 1)) == pytest.approx(7 / 3)

    def test_point_mass(self):
        assert weighted_mean((3, 5, 9), (0, 0, 1)) == 9.0

    def test_weighted(self):
        assert weighted_mean((1, 2, 4), (1, 2, 1)) == pytest.approx(9 / 4)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weighted_mean((1, 2), (1, 1, 1))

    def test_stays_in_range(self):
        rng = random.Random(5)
        for _ in range(200):
            x = [rng.gauss(0, 10) for _ in range(6)]
            p = [rng.uniform(0, 3) + 1e-3 for _ in range(6)]
            m = weighted_mean(x, p)
            assert min(x) - 1e-12 <= m <= max(x) + 1e-12


class TestCovFunctional:
    def test_constant_argument_vanishes(self):
        assert cov_functional((2, 2, 2), (5, -1, 9), (1, 2, 3)) == pytest.approx(0.0, abs=1e-15)

    def test_two_point_variance(self):
        assert cov_functional((0, 1), (0, 1), (1, 1)) == pytest.approx(0.25)

    def test_population_variance(self):
        assert cov_functional((1, 2, 3), (1, 2, 3), (1, 1, 1)) == pytest.approx(2 / 3)

    def test_symmetry_and_shift_invariance(self):
        rng = random.Random(8)
        for _ in range(100):
            x = [rng.gauss(0, 4) for _ in range(5)]
            y = [rng.gauss(0, 4) for _ in range(5)]
            p = [rng.uniform(0.1, 2.0) for _ in range(5)]
            s = cov_functional(x, y, p)
            assert s == pytest.approx(cov_functional(y, x, p), rel=1e-12, abs=1e-12)
            assert cov_functional([v + 3.7 for v in x], y, p) == pytest.approx(s, rel=1e-9, abs=1e-9)

    def test_diagonal_nonnegative(self):
        rng = random.Random(9)
        for _ in range(300):
            x = [rng.gauss(0, 5) for _ in range(7)]
            p = [rng.uniform(0, 1) + 1e-6 for _ in range(7)]
            assert cov_functional(x, x, p) >= -1e-9

    def test_matches_double_sum_oracle(self):
        rng = random.Random(10)
        for _ in range(50):
            x = [rng.gauss(0, 3) for _ in range(6)]
            y = [rng.gauss(0, 3) for _ in range(6)]
            p = [rng.uniform(0.1, 2.0) for _ in range(6)]
            assert cov_functional(x, y, p) == pytest.approx(brute_cov(x, y, p), rel=1e-10, abs=1e-10)
            assert weighted_mean(x, p) == pytest.approx(brute_weighted_mean(x, p), rel=1e-12)


class TestLupasConstant:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_arithmetic_closed_form(self, n):
        t = list(range(1, n + 1))
        assert lupas_constant(t) == pytest.approx(12.0 / (n * (n * n - 1.0)), rel=1e-12)

    def test_two_point(self):
        assert lupas_constant((0, 1)) == pytest.approx(2.0)

    def test_affine_rescale(self):
        t = (0.3, 1.1, 2.9, 4.0)
        for c in (0.5, 2.0, 7.3):
            scaled = [c * x + 11.0 for x in t]
            assert lupas_constant(scaled) == pytest.approx(lupas_constant(t) / c**2, rel=1e-9)


class TestMajorizes:
    def test_mean_vector_is_minimal(self):
        rng = random.Random(12)
        for _ in range(200):
            y = [rng.gauss(0, 5) for _ in range(6)]
            xbar = [fmean(y)] * 6
            assert majorizes(xbar, y)

    def test_permutations_mutually_majorize(self):
        rng = random.Random(13)
        for _ in range(100):
            y = [rng.gauss(0, 5) for _ in range(7)]
            x = rng.sample(y, len(y))
            assert majorizes(x, y) and majorizes(y, x)

    def test_hand_prefix_sums(self):
        assert majorizes((1, 2, 3), (0, 2, 4))
        assert not majorizes((0, 2, 4), (1, 2, 3))

    def test_unequal_totals_rejected(self):
        assert not majorizes((1, 1), (1, 2))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=12))
    def test_reflexive(self, y):
        assert majorizes(y, y)

    def test_transitive_on_transform_chains(self):
        rng = random.Random(14)
        for trial in range(10_000):
            n = rng.randrange(2, 7)
            y = [rng.gauss(0, 3) for _ in range(n)]
            x = list(gen_majorized_pair(y, 3, trial))
            w = list(gen_majorized_pair(x, 3, trial + 1))
            assert majorizes(x, y)
            assert majorizes(w, x)
            assert majorizes(w, y)

    def test_transform_output_within_range(self):
        rng = random.Random(15)
        for trial in range(200):
            y = [rng.gauss(0, 5) for _ in range(5)]
            x = gen_majorized_pair(y, 12, trial)
            assert min(y) - 1e-12 <= min(x) and max(x) <= max(y) + 1e-12
