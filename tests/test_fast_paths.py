"""The C-level fast paths agree with the loops they shortcut.

* ``scan_margin`` judges a list at C level and an iterator in its loop; both
  give the same ``(first, margin)``, bit for bit (-0.0 ties included), and
  raise the same error for a NaN gap.
* ``Witness.of`` accepts in one C-level pass and otherwise takes its loop, so
  NaN entries, sub-tolerance gaps and non-increasing input raise as the loop
  alone does (kept here as ``witness_of_loop``).
* ``spot_check_map`` returns and warns as the two-loop version it replaced
  (kept here as ``spot_check_loop``), and calls the map once per distinct
  value and once per midpoint.
* ``is_convex_wrt`` remembers its report per (sequence, witness, tolerance):
  a remembered report equals a fresh test on equal copies, anything else
  misses, a raise is never remembered, and the memo neither aliases a dead
  witness's id nor makes a cycle, a pickle or a copy.
* A builtin map whose declared interval holds the values is proven, not
  sampled: the range check observes what the sampled check of the same map
  behind a plain lambda observes, and any other case is that sampled check.
"""

import copy
import gc
import math
import pickle
import warnings
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relconvex import (
    ConvexMapWarning, RealSeq, Tolerance, Witness, is_convex, is_convex_wrt, make_relu, parse_psi,
    spot_check_map,
)
from relconvex.errors import NonFiniteArithmetic, WitnessNotIncreasing
from relconvex.seqcore import DEFAULT_TOL, scan_margin


def outcome(fn, *args):
    """(result or (error type, message), warning messages): everything a caller can observe."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(fn(*args))
        except Exception as err:  # noqa: BLE001 - the error itself is compared
            result = (type(err), str(err))
    return result, [(w.category, str(w.message)) for w in caught]


# -- scan_margin --------------------------------------------------------------

gap_values = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e-9, -1e-9, -1.5e-9]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(gap_values, max_size=12), st.floats(0.0, 1e3), st.booleans(), st.booleans())
def test_scan_margin_list_equals_stream(gaps, allowed, labelled, with_nan):
    if with_nan and gaps:
        gaps[len(gaps) // 2] = math.nan
    labels = [f"pair {k}" for k in range(len(gaps))] if labelled else None
    fast = outcome(scan_margin, list(gaps), allowed, labels)
    loop = outcome(scan_margin, iter(gaps), allowed, None if labels is None else iter(labels))
    assert fast == loop
    if with_nan and gaps:
        assert fast[0][0] is NonFiniteArithmetic


def test_scan_margin_keeps_the_first_of_tied_zeros():
    assert repr(scan_margin([0.0, -0.0], 1e-9)[1]) == "0.0"
    assert repr(scan_margin([-0.0, 0.0], 1e-9)[1]) == "-0.0"
    assert scan_margin([], 1e-9) == (None, math.inf)


# -- Witness.of ---------------------------------------------------------------


def witness_of_loop(values, tol=DEFAULT_TOL):
    vals = tuple(map(float, values))
    for k in range(len(vals) - 1):
        if not vals[k + 1] - vals[k] > tol.abs:
            raise WitnessNotIncreasing(
                f"gap t[{k + 2}] - t[{k + 1}] = {vals[k + 1] - vals[k]!r} "
                f"is not above the strictness tolerance {tol.abs!r}"
            )
    return Witness(vals)


@st.composite
def near_witnesses(draw):
    """Increasing lists, then maybe one NaN, sub-tolerance gap, tie or descent."""
    t = sorted(set(draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=10))))
    if len(t) < 2:
        t.append(t[0] + 1.0)
    k = draw(st.integers(1, len(t) - 1))
    kind = draw(st.sampled_from(["none", "nan", "subtol", "tie", "descent", "inf"]))
    if kind == "nan":
        t[k] = math.nan
    elif kind == "subtol":
        t[k] = t[k - 1] + 5e-10
    elif kind == "tie":
        t[k] = t[k - 1]
    elif kind == "descent":
        t[k] = t[k - 1] - 1.0
    elif kind == "inf":
        t[-1] = math.inf
    return t


@settings(max_examples=300, deadline=None)
@given(near_witnesses(), st.sampled_from([Tolerance(), Tolerance(abs=0.0), Tolerance(abs=1e-3)]))
def test_witness_of_equals_the_loop(t, tol):
    assert outcome(Witness.of, t, tol) == outcome(witness_of_loop, t, tol)


def test_witness_rejects_non_increasing_input_by_position():
    with pytest.raises(WitnessNotIncreasing, match=r"t\[3\] = 1.0 does not exceed t\[2\] = 2.0"):
        Witness((0.0, 2.0, 1.0))
    with pytest.raises(WitnessNotIncreasing, match=r"gap t\[3\] - t\[2\] = nan"):
        Witness.of([0.0, 1.0, math.nan, 3.0])


# -- spot_check_map -----------------------------------------------------------


def spot_check_loop(psi, values, tol=DEFAULT_TOL):
    pts = sorted({float(v) for v in values})
    mapped = {v: float(psi(v)) for v in pts}
    allowed = tol.allowed(mapped.values())
    ok = True
    for u, w in zip(pts, pts[1:]):
        if mapped[u] > mapped[w] + allowed:
            warnings.warn(f"map not non-decreasing on [{u!r}, {w!r}]", ConvexMapWarning, stacklevel=2)
            ok = False
    for u, w in zip(pts, pts[2:]):
        if psi((u + w) / 2.0) > (mapped[u] + mapped[w]) / 2.0 + allowed:
            warnings.warn(f"map not midpoint-convex on [{u!r}, {w!r}]", ConvexMapWarning, stacklevel=2)
            ok = False
    return ok


MAPS = {
    "identity": lambda x: x,
    "relu": make_relu(0.5),
    "square": lambda x: x * x,
    "negate": lambda x: -x,
    "sin": math.sin,
    "cube": lambda x: x ** 3,
    "floor": math.floor,
    "exp": math.exp,
}


class Counting:
    def __init__(self, psi):
        self.psi = psi
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.psi(x)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.floats(-50.0, 50.0), st.integers(-5, 5), st.sampled_from([0.0, -0.0])),
             max_size=14),
    st.sampled_from(sorted(MAPS)),
)
def test_spot_check_map_equals_the_loop(values, name):
    counting = Counting(MAPS[name])
    assert outcome(spot_check_map, counting, values) == outcome(spot_check_loop, MAPS[name], values)
    k = len({float(v) for v in values})
    assert counting.calls == k + max(k - 2, 0)


def test_spot_check_map_keeps_the_first_zero_in_input_order():
    for values, zero in (([-0.0, 1.0, 0.0, -1.0], "-0.0"), ([0.0, -1.0, -0.0, 1.0], "0.0")):
        result, warned = outcome(spot_check_map, lambda x: -x, values)
        assert result == "False"
        assert [m for _, m in warned] == [f"map not non-decreasing on [-1.0, {zero}]",
                                          f"map not non-decreasing on [{zero}, 1.0]"]


# -- the slope-test memo ------------------------------------------------------

HOLDING = ([4.0, 1.0, 0.0, 2.0, 6.0], [1.0, 2.0, 3.0, 4.0, 5.0])
VIOLATED = ([0.0, 3.0, 1.0, 4.0, 9.0], [0.0, 0.5, 2.0, 2.5, 4.0])
SLOPE_OVERFLOW = ([-1e308, 1e308, 1e308], [0.0, 1.0, 2.0])  # as in test_verdict_rule.py


@st.composite
def witnessed_pairs(draw):
    """(a, t) of equal length: a arbitrary, t strictly increasing by more than tol.abs."""
    gaps = draw(st.lists(st.floats(1e-2, 1e3), min_size=1, max_size=10))
    t = [draw(st.floats(-1e3, 1e3))]
    for g in gaps:
        t.append(t[-1] + g)
    a = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(t), max_size=len(t)))
    return a, t


@settings(max_examples=300, deadline=None)
@given(witnessed_pairs(), st.sampled_from([Tolerance(), Tolerance(abs=0.0), Tolerance(abs=1e-3)]))
def test_memo_hit_equals_a_fresh_test(pair, tol):
    a, t = pair
    seq, wit = RealSeq(a), Witness(t)
    first = is_convex_wrt(seq, wit, tol)
    assert is_convex_wrt(seq, wit, tol) is first
    assert repr(first) == repr(is_convex_wrt(RealSeq(a), Witness(t), tol)) == repr(is_convex_wrt(a, t, tol))


@pytest.mark.parametrize("a, t, holds", [(*HOLDING, True), (*VIOLATED, False)])
def test_memo_hit_equals_a_fresh_test_on_equal_copies(a, t, holds):
    seq, wit = RealSeq(a), Witness(t)
    first = is_convex_wrt(seq, wit)
    assert first.holds is holds
    assert is_convex_wrt(seq, wit) is first
    assert repr(first) == repr(is_convex_wrt(copy.copy(seq), copy.copy(wit)))


def test_another_witness_or_tolerance_misses():
    seq = RealSeq([0.0, 1.0, 2.0 - 1e-6])  # slopes 1, 1 - 1e-6
    wit = Witness([0.0, 1.0, 2.0])
    strict = is_convex_wrt(seq, wit)
    loose = is_convex_wrt(seq, wit, Tolerance(abs=1e-3))
    assert not strict.holds and loose.holds
    assert is_convex_wrt(seq, wit) is strict
    assert is_convex_wrt(seq, wit, Tolerance(abs=1e-3)) is loose
    other = Witness([0.0, 1.0, 2.0])
    assert is_convex_wrt(seq, other) is not strict
    assert is_convex_wrt(seq, other) == strict
    # the same sequence against witnesses that die in turn: a reused id is not a hit
    for _ in range(50):
        assert is_convex_wrt(seq, Witness([0.0, 1.0, 2.0])).holds is False
        assert is_convex_wrt(seq, Witness([0.0, 1.5, 2.0])).holds is True


def test_overflow_raises_on_every_call():
    seq, wit = RealSeq(SLOPE_OVERFLOW[0]), Witness(SLOPE_OVERFLOW[1])
    for _ in range(3):
        with pytest.raises(NonFiniteArithmetic):
            is_convex_wrt(seq, wit)


def test_unit_witness_with_alternating_length():
    convex, bent = [4.0, 1.0, 0.0, 2.0, 6.0], [4.0, 1.0, 0.0, 2.0, 6.0, 7.0]
    seqs = {5: RealSeq(convex), 6: RealSeq(bent)}
    for _ in range(4):
        for n, values in ((5, convex), (6, bent)):
            assert repr(is_convex(seqs[n])) == repr(is_convex(values))
    assert is_convex(seqs[5]).holds and not is_convex(seqs[6]).holds


def test_a_witness_tested_against_itself_is_freed_by_reference_counting():
    t = Witness([0.0, 1.0, 3.0, 7.0])
    assert is_convex_wrt(t, t) is is_convex_wrt(t, t)
    alive = weakref.ref(t)
    gc.disable()
    try:
        del t
        assert alive() is None
    finally:
        gc.enable()


def test_verified_inputs_pickle_and_copy_without_the_memo():
    seq, wit = RealSeq(VIOLATED[0]), Witness(VIOLATED[1])
    report = is_convex_wrt(seq, wit)
    is_convex_wrt(wit, wit)
    for obj in (seq, wit):
        clones = [copy.copy(obj), copy.deepcopy(obj)]
        clones += [pickle.loads(pickle.dumps(obj, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones:
            assert type(clone) is type(obj) and clone == obj
            assert "_slope_tests" not in vars(clone)
    assert is_convex_wrt(pickle.loads(pickle.dumps(seq)), wit) == report


# -- builtin maps: proven on their declared interval ---------------------------

BUILTINS = ["identity", "exp", "relu@0", "relu@-2.5", "relu@40", "square"]


def sampled(psi):
    """The same map, hidden behind a plain lambda: spot_check_map samples it."""
    return lambda x: psi(x)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BUILTINS),
       st.lists(st.one_of(st.floats(-700.0, 700.0), st.integers(-5, 5), st.sampled_from([0.0, -0.0])),
                min_size=1, max_size=14))
def test_builtin_in_its_interval_matches_the_sampled_check(name, values):
    psi = parse_psi(name)
    if name == "square":
        values = [abs(v) for v in values]
    assert outcome(spot_check_map, psi, values) == outcome(spot_check_map, sampled(psi), values) == ("True", [])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=14))
def test_square_on_negative_values_warns_as_the_sampled_check(values):
    values = values + [-1.0, -2.0]
    psi = parse_psi("square")
    result, warned = outcome(spot_check_map, psi, values)
    assert (result, warned) == outcome(spot_check_map, sampled(psi), values)
    assert result == "False" and warned


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("values", [[0.0, math.nan, 1.0], [math.nan], [1.0, 2.0, math.inf]])
def test_builtin_on_non_finite_values_is_the_sampled_check(name, values):
    psi = parse_psi(name)
    assert outcome(spot_check_map, psi, values) == outcome(spot_check_map, sampled(psi), values)
    if name in ("identity", "exp", "square"):  # relu maps NaN to c
        assert outcome(spot_check_map, psi, values)[0][0] is NonFiniteArithmetic


@pytest.mark.parametrize("values", [[0.0, 800.0], [800.0, 1.0, -3.0], [709.0, 710.0]])
def test_exp_past_overflow_raises_as_the_sampled_check(values):
    psi = parse_psi("exp")
    result, _ = outcome(spot_check_map, psi, values)
    assert result[0] is OverflowError
    assert result == outcome(spot_check_map, sampled(psi), values)[0]


def test_square_past_overflow_raises_as_the_sampled_check():
    psi = parse_psi("square")
    values = [1.0, 1e200]
    assert outcome(spot_check_map, psi, values) == outcome(spot_check_map, sampled(psi), values)
    assert outcome(spot_check_map, psi, values)[0][0] is NonFiniteArithmetic
