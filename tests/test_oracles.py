"""Generator determinism/validity and re-evaluator consistency."""

import numpy as np
import pytest

from relconvex import (
    InfeasibleShape,
    LengthError,
    Seeded,
    ShapeKind,
    classify_shape,
    is_convex_wrt,
    majorizes,
)
from relconvex.oracles import (
    brute_reeval,
    gen_majorized_pair,
    gen_relative_convex_pair,
    gen_shape,
)

ALL_KINDS = list(ShapeKind)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gen_shape_classifies_back(kind):
    # seeded by the kind's position, so a failing draw replays in any process
    rng = np.random.default_rng(ALL_KINDS.index(kind))
    for _ in range(50):
        n = int(rng.integers(4, 65))
        seq = gen_shape(kind, n, int(rng.integers(0, 2**31)))
        assert classify_shape(seq).variant is kind


def test_gen_shape_determinism():
    for kind in ALL_KINDS:
        a = gen_shape(kind, 9, Seeded(123))
        b = gen_shape(kind, 9, Seeded(123))
        c = gen_shape(kind, 9, 123)
        assert a.values == b.values == c.values


def test_gen_shape_infeasible_lengths():
    with pytest.raises(InfeasibleShape):
        gen_shape(ShapeKind.DEC_CONST_INC, 3, 0)
    with pytest.raises(InfeasibleShape):
        gen_shape(ShapeKind.NOT_STRICTLY_V_SHAPED, 2, 0)


def test_gen_pair_always_witnessed():
    for seed in range(400):
        n = 2 + seed % 63
        a, t = gen_relative_convex_pair(n, seed)
        assert len(a) == len(t) == n
        assert is_convex_wrt(a, t).margin >= -1e-9


def test_gen_pair_determinism():
    a1, t1 = gen_relative_convex_pair(7, 99)
    a2, t2 = gen_relative_convex_pair(7, Seeded(99))
    assert a1.values == a2.values and t1.values == t2.values


def test_gen_majorized_pair_contract():
    rng = np.random.default_rng(1)
    for trial in range(300):
        n = int(rng.integers(2, 9))
        y = list(rng.normal(0, 4, n))
        x = gen_majorized_pair(y, int(rng.integers(0, 12)), trial)
        assert majorizes(x, y)


def test_gen_majorized_pair_k_zero_identity():
    y = [3.0, -1.0, 4.0]
    assert gen_majorized_pair(y, 0, 5) == tuple(y)
    assert majorizes(y, gen_majorized_pair(y, 0, 5))


def test_gen_majorized_pair_half_average():
    # a single full average of (0, 4) must yield (2, 2), majorized by y
    out = None
    for seed in range(200):
        cand = gen_majorized_pair([0.0, 4.0], 1, seed)
        if abs(cand[0] - 2.0) < 0.05:
            out = cand
            break
    assert out is not None
    assert majorizes(out, (0.0, 4.0))


@pytest.mark.parametrize("seed", [-1, -3, Seeded(-3), -(2**40)])
@pytest.mark.parametrize("generate", [
    lambda seed: gen_shape(ShapeKind.DEC_THEN_INC, 5, seed),
    lambda seed: gen_relative_convex_pair(5, seed),
    lambda seed: gen_majorized_pair([1.0, 2.0], 1, seed),
])
def test_negative_seeds_are_rejected(generate, seed):
    # random.Random(-s) would silently replay the stream of s
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        generate(seed)


def test_gen_majorized_pair_short_input():
    with pytest.raises(LengthError):
        gen_majorized_pair([1.0], 3, 0)


def test_brute_reeval_dispatch():
    a = [4.0, 1.0, 0.0, 2.0, 6.0]
    t = [1.0, 2.0, 3.0, 4.0, 5.0]
    p = [1.0] * 5
    lhs, rhs = brute_reeval({"kind": "lupas", "a": a, "b": [9, 4, 1, 0, 1], "t": t, "p": p})
    assert lhs >= rhs
    lo, val, up = brute_reeval({"kind": "hhf", "a": a, "t": t, "p": p, "psi": lambda x: x})
    assert (lo, val, up) == (pytest.approx(0.0), pytest.approx(2.6), pytest.approx(5.0))
    sp, sq = brute_reeval(
        {"kind": "majorization", "a": a, "t": t, "pvec": [2.5, 3.5], "qvec": [2.0, 4.0]}
    )
    assert sp <= sq
    # points outside [t_1, t_n] take the end values; nodes take their own
    assert brute_reeval(
        {"kind": "majorization", "a": a, "t": t, "pvec": [0.0, 2.5, 9.0], "qvec": [1.0, 4.0, 5.0]}
    ) == (10.5, 12.0)
    with pytest.raises(ValueError):
        brute_reeval({"kind": "nope"})
