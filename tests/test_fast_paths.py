"""The C-level fast paths and the numpy blocks agree with the loops they shortcut,
and the ψ spot check agrees with its reference loop.  Every test runs without
numpy except those that compare with numpy or read its state.

* ``Witness.of`` accepts in one C-level pass and otherwise takes its loop, so
  NaN entries, sub-tolerance gaps and non-increasing input raise as the loop
  alone does (kept here as ``witness_of_loop``).
* ``spot_check_map`` samples a map in the two plain loops kept here as
  ``spot_check_loop``: it returns and warns as they do, and calls the map
  once per distinct value and once per midpoint.  A validated ``RealSeq``
  gives the same result, warnings and calls as its list, proven or sampled;
  the engines that spot-check a validated sequence never convert it again,
  and its remembered extremes travel with no copy or pickle.
* The slope kernel ``_slopes`` equals the C-level chain of ``map`` calls it
  replaced (``slopes_chain``, which ``build_extension`` still streams into its
  tuple), bit for bit: signed zeros, subnormals, differences that overflow,
  and tiny and huge witness gaps.
* ``is_convex_wrt`` remembers its report per (sequence, witness, tolerance):
  a remembered report equals a fresh test on equal copies, anything else
  misses, a raise is never remembered, and the memo neither aliases a dead
  witness's id nor makes a cycle, a pickle or a copy.
* A builtin map whose declared interval holds the values is proven, not
  sampled: the range check observes what the sampled check of the same map
  behind a plain lambda observes, and any other case is that sampled check.
* ``scan_margin`` judges a list of gaps at C level, makes any other iterable
  a list first, and takes the tolerance scale only when a gap is negative:
  given the gaps (and labels) as a list or an iterator, it reports and raises
  as the eager rule kept here (``eager_rule``: the scale first, then every gap
  in order), bit for bit (-0.0 ties included), on edge gaps, operands and
  tolerances; and so do its callers against loops that keep their formulas
  (``REFERENCES``) on a seeded corpus.
* The two super-linear scans (``anchored_slope_check_all`` and
  ``collinearity_determinant_check(all_triples=True)``) report and raise from
  numpy blocks, at the block budgets 1, 7, 64 and the module's default, as
  from their stdlib loops: on seeded corpus and near-overflow pairs, on
  explicit block-boundary examples, and on a table of edge rows (tied ±0
  margins, ±1e308 rows, the tolerance's edges, a first violation and a
  smallest margin in different blocks).
  numpy runs exactly on operands proven finite (a finite anchored slope bound
  2 max|a| / min gap, which bounds every slope, or an all-triples scale that
  does not raise), so a block never meets a NaN.  A loaded numpy computes the
  blocks at any size, a scan where nothing is proven finite asks numpy for
  nothing, a blocked numpy falls back to the loops, and the scans leave
  numpy's error state and buffer size as they found them.  The anchored scan
  holds one block of gaps at a time; a small ``diagnose`` never imports
  numpy, and ``relconvex diagnose`` prints the same bytes with numpy and
  without.
"""

import copy
import gc
import json
import math
import os
import pickle
import random
import struct
import subprocess
import sys
import tracemalloc
import types
import warnings
import weakref
from pathlib import Path
from itertools import accumulate, combinations, count, islice, product
from operator import lt, sub, truediv

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import relconvex
from relconvex import (
    CheckReport, ConvexMapWarning, RealSeq, ShapeKind, Tolerance, Witness, anchored_slope_check_all,
    classify_shape, collinearity_determinant_check, increment_growth_check, is_convex, is_convex_wrt,
    make_relu, neighbor_chord_check, parse_psi, spot_check_map,
)
from relconvex import diagnostics, inequalities, seqcore
from relconvex.errors import NonFiniteArithmetic, NotStrictlyIncreasing, WitnessNotIncreasing
from relconvex.oracles import gen_relative_convex_pair
from relconvex.inequalities import _proven_interval
from relconvex.seqcore import DEFAULT_TOL, _slopes, paired, scan_margin


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


def test_scan_margin_keeps_the_first_of_tied_zeros():
    assert repr(scan_margin([0.0, -0.0], DEFAULT_TOL, ())[1]) == "0.0"
    assert repr(scan_margin([-0.0, 0.0], DEFAULT_TOL, ())[1]) == "-0.0"
    assert scan_margin([], DEFAULT_TOL, ()) == (None, math.inf)


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
    with pytest.raises(WitnessNotIncreasing,
                       match=r"^gap t\[3\] - t\[2\] = -1.0 is not above the strictness tolerance 0.0$"):
        Witness((0.0, 2.0, 1.0))
    # the constructor's floor is 0, fixed: no caller passes one that lets a decrease through
    with pytest.raises(TypeError):
        Witness([2.0, 1.0], None, -5.0)
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
        self.args = []

    def __call__(self, x):
        self.calls += 1
        self.args.append(repr(x))
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
    if len(values) >= 2:
        # a validated sequence is read as given: the same result, warnings and ψ calls as its list,
        # both sampled and, for a builtin that declares its interval, proven
        for declared in (None, _proven_interval(MAPS[name])):
            from_list, from_seq = Counting(MAPS[name]), Counting(MAPS[name])
            from_list._convex_on = from_seq._convex_on = declared
            seq = RealSeq(values)
            assert outcome(spot_check_map, from_list, values) == outcome(spot_check_map, from_seq, seq)
            assert from_list.args == from_seq.args


def test_spot_check_map_keeps_the_first_zero_in_input_order():
    for values, zero in (([-0.0, 1.0, 0.0, -1.0], "-0.0"), ([0.0, -1.0, -0.0, 1.0], "0.0")):
        result, warned = outcome(spot_check_map, lambda x: -x, values)
        assert result == "False"
        assert [m for _, m in warned] == [f"map not non-decreasing on [-1.0, {zero}]",
                                          f"map not non-decreasing on [{zero}, 1.0]"]


@pytest.mark.parametrize("engine, args", [
    (relconvex.hhf_bounds, ("a", "t", "p")),
    (relconvex.niezgoda_bound, ("a", "p")),
    (relconvex.convex_hhf_bounds, ("a", "p")),
    (relconvex.psi_preservation_check, ("a", "t")),
])
@pytest.mark.parametrize("psi", ["relu@0", "square", "sampled"])
def test_engines_spot_check_a_validated_sequence_without_converting_it(engine, args, psi, monkeypatch):
    seq, wit = RealSeq([4.0, 1.0, 0.0, 2.0, 6.0]), Witness([1.0, 2.0, 3.0, 4.0, 5.0])
    pv = relconvex.WeightVec([1.0] * 5)
    seqcore.unit_witness(5)  # cached before the count: it converts 1..5 once
    psi = sampled(parse_psi("relu@0")) if psi == "sampled" else parse_psi(psi)
    converted = []

    def counting(values, name=None):
        converted.append(values)
        return convert(values, name)

    convert = seqcore._reals
    monkeypatch.setattr(seqcore, "_reals", counting)
    monkeypatch.setattr(inequalities, "_reals", counting)
    engine(*({"a": seq, "t": wit, "p": pv}[k] for k in args), psi)
    assert not [v for v in converted if v is seq or v is seq.values]
    # psi_preservation_check builds the mapped sequence, and nothing else is converted
    assert len(converted) == (engine is relconvex.psi_preservation_check)


# -- the slope kernel ----------------------------------------------------------


def slopes_chain(v, over):
    """The C-level chain the kernel replaced: two map(sub) steps divided by map(truediv)."""
    return list(map(truediv, map(sub, islice(v, 1, None), v), map(sub, islice(over, 1, None), over)))


edge_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@st.composite
def slope_inputs(draw):
    """(v, over) of equal length: v finite with edge entries, over strictly increasing by steps
    from one ulp (or one subnormal) to ones whose differences overflow."""
    over = [draw(st.sampled_from([-1.7976931348623157e308, -1e308, -1.0, -0.0, 0.0, 5e-324])
                 | st.floats(-1e300, 1e300))]
    steps = st.sampled_from(["ulp", 5e-324, 1e-300, 1.0, 1e300, 1e308, 1.7976931348623157e308])
    for step in draw(st.lists(steps | st.floats(1e-6, 1e6), min_size=1, max_size=11)):
        nxt = math.nextafter(over[-1], math.inf) if step == "ulp" else over[-1] + step
        if over[-1] < nxt < math.inf:
            over.append(nxt)
    if len(over) < 2:
        over.append(math.nextafter(over[-1], math.inf))
    v = draw(st.lists(edge_floats, min_size=len(over), max_size=len(over)))
    return v, over


@settings(max_examples=500, deadline=None)
@given(slope_inputs())
@example(([1e308, -1e308, 1e308], [-1e308, 1e308, 1.7976931348623157e308]))
@example(([-0.0, 0.0, -0.0], [0.0, 5e-324, 1e-323]))
def test_slope_kernel_equals_the_chain_bit_for_bit(pair):
    v, over = pair
    assert all(o1 > o0 for o0, o1 in zip(over, over[1:]))
    fused = _slopes(v, over)
    assert type(fused) is list
    assert [struct.pack("d", x) for x in fused] == [struct.pack("d", x) for x in slopes_chain(v, over)]


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
        assert obj.extremes == (min(obj.values), max(obj.values))
        for clone in clones:
            assert type(clone) is type(obj) and clone == obj
            assert "_slope_tests" not in vars(clone)
            assert "extremes" not in vars(clone)
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


@pytest.mark.parametrize("values", [[1e308, 1e308, 5.0, -1.0], [-1e308, 3.0, -1e308, 2.0]])
def test_finite_values_whose_sum_overflows_are_proven_in_range(values):
    # the one-sum screen overflows, so the per-entry scan finds every value finite
    psi = Counting(MAPS["identity"])
    psi._convex_on = (-math.inf, math.inf)  # declared as the builtin identity declares it
    assert outcome(spot_check_map, psi, values) == ("True", [])
    assert psi.calls == 2  # the smallest and the largest value: proven, not sampled


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


# -- the lazy kernel: the scale only for a negative gap ------------------------------

KERNEL_TOLS = [Tolerance(), Tolerance(0.0, 0.0), Tolerance(1e-3, 1e-12)]
kernel_floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-9, -1e-9, -1.5e-9]),
)


def eager_rule(gaps, tol, operands, labels=None):
    """The rule the kernel shortcuts: the scale taken first, then every gap judged in order."""
    allowed = tol.allowed(operands)
    first, margin = None, math.inf
    for label, gap in zip(count(1) if labels is None else labels, gaps):
        if math.isnan(gap):
            raise NonFiniteArithmetic(f"gap {label!r} is NaN")
        if gap < margin:
            margin = gap
        if first is None and gap < -allowed:
            first = label
    return first, margin


@settings(max_examples=500, deadline=None)
@given(st.lists(kernel_floats, max_size=12), st.lists(kernel_floats, max_size=6), st.sampled_from(KERNEL_TOLS),
       st.booleans(), st.sampled_from([list, iter]), st.sampled_from([list, tuple, iter]))
# finite operands whose sum overflows, judged at their true scale (1e296 here)
@example([-1e-3, 2.0], [1e308, 1e308, -1e308], KERNEL_TOLS[2], False, list, list)
@example([5.0, -1e300], [1e308, 1e308, -1e308], KERNEL_TOLS[2], True, iter, tuple)
# gaps whose sum is NaN without a NaN among them
@example([math.inf, -1.0, -math.inf], [1.0], KERNEL_TOLS[0], True, list, list)
def test_lazy_kernel_equals_the_eager_rule(gaps, operands, tol, labelled, form, operand_form):
    # a list of gaps is judged at C level, any other iterable (its labels too) made a list first
    labels = [f"pair {k}" for k in range(len(gaps))] if labelled else None
    lazy = outcome(scan_margin, form(gaps), tol, operand_form(operands), labels and form(labels))
    assert lazy == outcome(eager_rule, gaps, tol, operands, labels)


def test_lazy_kernel_equals_the_eager_rule_on_every_edge_combination():
    # both screens rely on sum() of floats propagating inf and NaN, which Python 3.12
    # changed to compensated summation: 11 gap lists x 9 operand lists x 3 tolerances x 2 forms
    inf, nan = math.inf, math.nan
    gap_lists = [[], [0.0, -0.0], [-0.0, 0.0], [1.0, -1e-9, -1.5e-9], [-1e300, 2.0], [inf, -1.0],
                 [-inf, 1.0], [inf, -inf], [1.0, nan, -2.0], [nan], [1e308, 1e308, -1.0]]
    operand_lists = [[], [0.0, -0.0], [1.0, -7.5], [1e308, 1e308, -1e308], [inf, 1.0], [1.0, -inf],
                     [inf, -inf], [2.0, nan], [nan, 2.0]]
    for gaps, operands, tol, form in product(gap_lists, operand_lists, KERNEL_TOLS, (list, tuple)):
        lazy = outcome(scan_margin, list(gaps), tol, form(operands))
        assert lazy == outcome(eager_rule, gaps, tol, operands), (gaps, operands, tol)


@pytest.mark.parametrize("operands, error", [
    ([1.0, math.inf], "compared quantities reach inf"),
    ([-math.inf, 1.0], "compared quantities reach inf"),
    ([1.0, math.nan], "compared quantities reach nan"),
    ([math.inf, -math.inf], "compared quantities reach nan"),
])
def test_a_non_finite_operand_raises_before_a_nan_gap(operands, error):
    # as the eager rule: the scale is taken first, whatever the gaps are
    for gaps in ([1.0, 2.0], [math.nan], [-5.0, math.nan]):
        with pytest.raises(NonFiniteArithmetic, match=error):
            scan_margin(gaps, DEFAULT_TOL, operands)


# Loops that keep each caller's formulas, judged by eager_rule.  Validation and
# classify_shape are the library's: they are not what the kernel changes.

def ref_slope_test(a, t, tol):
    seq, wit = paired(a, t, tol)
    av, tv = seq.values, wit.values
    ratios = [(av[i + 1] - av[i]) / (tv[i + 1] - tv[i]) for i in range(len(av) - 1)]
    first, margin = eager_rule([ratios[i + 1] - ratios[i] for i in range(len(ratios) - 1)], tol, ratios)
    return CheckReport(first is None, first, margin, tol)


def ref_is_convex(a, t, tol):
    rep = ref_slope_test(a, [float(i) for i in range(1, len(a) + 1)], tol)
    first = None if rep.first_violation is None else rep.first_violation + 1
    return CheckReport(rep.holds, first, rep.margin / 2, tol)


def ref_chord(a, t, tol):
    seq, wit = paired(a, t, tol)
    av, tv = seq.values, wit.values
    gaps = []
    for i in range(1, len(av) - 1):
        left, right = tv[i] - tv[i - 1], tv[i + 1] - tv[i]
        gaps.append((right * av[i - 1] + left * av[i + 1]) / (left + right) - av[i])
    first, margin = eager_rule(gaps, tol, av, count(2))
    return CheckReport(first is None, first, margin, tol)


def ref_anchored_all(a, t, tol):
    seq, wit = paired(a, t, tol)
    av, tv = seq.values, wit.values
    first, margin = None, math.inf
    for s0 in range(len(av) - 1):
        slopes = [(av[i] - av[s0]) / (tv[i] - tv[s0]) for i in range(s0 + 1, len(av))]
        row_first, row_margin = eager_rule(
            [slopes[k + 1] - slopes[k] for k in range(len(slopes) - 1)], tol, slopes, count(s0 + 3))
        first = row_first if first is None else first
        margin = min(margin, row_margin)
    return CheckReport(first is None, first, margin, tol)


def ref_determinants(a, t, tol, all_triples):
    seq, wit = paired(a, t, tol)
    av, tv = seq.values, wit.values
    n = len(av)
    triples = list(combinations(range(n), 3)) if all_triples else [(i, i + 1, i + 2) for i in range(n - 2)]
    terms = [((tv[k] - tv[m]) * av[l], (tv[k] - tv[l]) * av[m], (tv[m] - tv[l]) * av[k])
             for l, m, k in triples]
    if all_triples:
        peaks = ([(tv[-1] - tv[l + 1]) * abs(av[l]) for l in range(n - 2)]
                 + [(tv[-1] - tv[0]) * abs(av[m]) for m in range(1, n - 1)]
                 + [(tv[k - 1] - tv[0]) * abs(av[k]) for k in range(2, n)])
    else:
        peaks = [abs(x) for term in terms for x in term]
    first, margin = eager_rule([p1 - p2 + p3 for p1, p2, p3 in terms], tol, peaks + [1.0], triples)
    first = None if first is None else tuple(i + 1 for i in first)
    return CheckReport(first is None, first, margin, tol)


def ref_growth(a, t, tol):
    seq, wit = paired(a, t, tol)
    shape = classify_shape(seq, tol).variant
    if shape is not ShapeKind.STRICTLY_INCREASING:
        raise NotStrictlyIncreasing(f"a must be strictly increasing, but its profile is {shape.value}")
    av, tv = seq.values, wit.values
    da = [av[i + 1] - av[i] for i in range(len(av) - 1)]
    dt = [tv[i + 1] - tv[i] for i in range(len(tv) - 1)]
    gaps = [(da[k + 1] - da[k]) / da[k] - (dt[k + 1] - dt[k]) / dt[k] for k in range(len(da) - 1)]
    units = [g * da[k] / dt[k + 1] for k, g in enumerate(gaps)]
    first, _ = eager_rule(units, tol, [d / e for d, e in zip(da, dt)])
    return CheckReport(first is None, first, min(gaps, default=math.inf), tol)


REFERENCES = {
    "slope test": (is_convex_wrt, ref_slope_test),
    "ordinary": (lambda a, t, tol: is_convex(a, tol), ref_is_convex),
    "chord": (neighbor_chord_check, ref_chord),
    "anchored": (anchored_slope_check_all, ref_anchored_all),
    "determinants": (collinearity_determinant_check, lambda a, t, tol: ref_determinants(a, t, tol, False)),
    "all triples": (lambda a, t, tol: collinearity_determinant_check(a, t, tol, all_triples=True),
                    lambda a, t, tol: ref_determinants(a, t, tol, True)),
    "growth": (increment_growth_check, ref_growth),
}


def corpus_pair(rng):
    """A seeded (a, t) with n <= 40: convex, increasing (convex or concave), lifted in or beyond the
    tolerance band, noise, constant, signed zeros, or magnitudes that overflow; t unit, mixed, wide
    or tiny."""
    n = rng.randint(2, 40)
    spacing = rng.choice(["unit", "mixed", "wide", "tiny"])
    if spacing == "unit":
        t = [float(i) for i in range(1, n + 1)]
    else:
        lo, hi = {"mixed": (1e-2, 10.0), "wide": (1e100, 1e300), "tiny": (1e-8, 1e-6)}[spacing]
        t = list(accumulate((rng.uniform(lo, hi) for _ in range(n - 1)), initial=rng.uniform(-100.0, 100.0)))
    kind = rng.choice(["convex", "increasing", "concave", "lifted", "huge", "noise", "flat", "zeros",
                       "overflow"])
    if kind in ("convex", "increasing", "concave", "lifted", "huge"):
        rising = kind in ("increasing", "concave") or kind == "lifted" and rng.random() < 0.5
        slopes = sorted((rng.uniform(0.01 if rising else -5.0, 5.0) for _ in range(n - 1)),
                        reverse=kind == "concave")
        rises = (s * (t[k + 1] - t[k]) for k, s in enumerate(slopes))
        a = list(accumulate(rises, initial=rng.uniform(-10, 10)))
        if kind == "lifted" and n > 2:
            a[rng.randrange(1, n - 1)] += rng.choice([1.0, 1e-3, 2e-9, 7.5e-10, -7.5e-10, 5e-10])
        if kind == "huge":
            a = [x * 1e300 for x in a]
    elif kind == "noise":
        a = [rng.uniform(-1e3, 1e3) for _ in range(n)]
    elif kind == "flat":
        a = [rng.choice([0.0, 1.0, -2.5])] * n
    elif kind == "zeros":
        a = [rng.choice([0.0, -0.0]) for _ in range(n)]
    else:
        a = [rng.choice([0.0, 1e308, -1e308, 1.7e308]) for _ in range(n)]
    return a, t


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_callers_equal_the_loops_that_keep_their_formulas(name):
    check, reference = REFERENCES[name]
    rng = random.Random(20261019)
    for _ in range(150):
        a, t = corpus_pair(rng)
        tol = rng.choice(KERNEL_TOLS)
        assert outcome(check, a, t, tol) == outcome(reference, a, t, tol), (a, t, tol)


# -- numpy blocks of the super-linear scans -------------------------------------------

SCANS = {
    "anchored": anchored_slope_check_all,
    "all triples": lambda a, t, tol: collinearity_determinant_check(a, t, tol, all_triples=True),
}


@pytest.fixture(scope="module")
def np():
    """numpy, for the tests that need its blocks: they skip without it."""
    return pytest.importorskip("numpy")


def with_cutoffs(cutoff, check, *args):
    """``outcome(check, *args)`` with the numpy import cutoff at ``cutoff``: 0 takes the
    numpy rows, inf (with numpy hidden) the stdlib ones."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagnostics, "_NUMPY_IMPORT_CUTOFF", cutoff)
        if cutoff == math.inf:
            mp.setitem(sys.modules, "numpy", None)
        return outcome(check, *args)


class Recording(types.ModuleType):
    """A numpy in ``sys.modules`` that records each name a scan takes from it, and gives
    ``real``'s (with no ``real`` behind it, taking a name fails)."""

    def __init__(self, real=None):
        super().__init__("numpy")
        self.real, self.taken = real, []

    def __getattr__(self, name):
        self.taken.append(name)
        return getattr(self.real, name)


def slope_bound(a, t):
    """2 max|a| over the least witness gap: when finite, it bounds every anchored slope."""
    return 2.0 * max(map(abs, a)) / min(map(sub, t[1:], t))


bound_floats = st.one_of(
    st.floats(-1e307, 1e307),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 8e307, -8e307, 1e308, -1e308, 5e-324, 1e150, -1e150]),
)


@st.composite
def edge_pairs(draw):
    """(a, t) of n = 2..14 near overflow: t strictly increasing, its gaps from 5e-324 to past max float."""
    n = draw(st.integers(2, 14))
    a = draw(st.lists(bound_floats, min_size=n, max_size=n))
    points = st.one_of(bound_floats, st.sampled_from([1e-323, 1.7e308, -1.7e308]))
    return a, sorted(draw(st.lists(points, min_size=n, max_size=n, unique=True)))


FIRST = "CheckReport(holds=False, first_violation="


def reach(scale):
    return NonFiniteArithmetic, f"compared quantities reach {scale}"


def wants(anchored=None, triples=None):
    """What the stdlib loops give on an example, per scan: a part of the report, or the error."""
    return {name: want for name, want in (("anchored", anchored), ("all triples", triples)) if want}


def block_boundary_cases():
    """(a, t, wants) whose numpy scans span many blocks at tiny budgets: seeded ``corpus_pair`` draws,
    then at n = 50 and 130 (t = 0..n-1 unless said otherwise):

    * i² lifted by 2.5 at 0-based n - 5: only anchors n - 7 and n - 6, and first indices from n - 7,
      are violated, so the first violation lies in a later block;
    * i² lifted at 3, ending in -1e308, 1e308: early rows violate, and then the single-slope last
      anchor row has an infinite slope and raises;
    * i² lifted at 3, ending in 0, 1.7e308, -1.7e308, 0 at t steps of 0.25: anchor n - 4 has slopes
      +inf and -inf (a NaN scale) and raises after the violating rows before it;
    * zeros ending in -1e308, 0, 1e308: the rows before anchor n - 3 violate, and its slopes 1e308
      and inf have a non-negative gap, so only its last slope says that it raises;
    * ±0.0 patterns whose first zero margin is -0.0 (anchored, then all triples) in the first
      block, or 0.0 in the first block and -0.0 first in a later one;
    * i² lifted by n² at 0-based 2 (the first rows violate) and at n - 3 (every row before it
      violates), so whole blocks are judged as violated;
    * zeros ending in -1e300, 0.0, 0.0, -0.0, 1e301, the last t step 1e-8: in the last block at a
      budget of 64 (anchors n - 5 .. n - 2), anchor n - 5 violates (as the anchors before n - 6 do),
      anchor n - 4 has the margin -0.0, and the last anchor's one slope overflows, so it raises.
    """
    rng = random.Random(5)
    cases = [(*corpus_pair(rng), {}) for _ in range(40)]
    for n in (50, 130):
        t = [float(i) for i in range(n)]
        square = [float(i * i) for i in range(n)]
        late, overflow, nan_row, early, most = (list(square) for _ in range(5))
        late[n - 5] += 2.5
        overflow[3] += 50.0
        overflow[-2:] = [-1e308, 1e308]
        nan_row[3] += 50.0
        nan_row[-4:] = [0.0, 1.7e308, -1.7e308, 0.0]
        early[2] += float(n * n)
        most[n - 3] += float(n * n)
        zeros = [0.0] * (n - 3)
        cases += [
            (late, t, wants(f"{FIRST}{n - 3},", f"{FIRST}({n - 6},")),
            (overflow, t, wants(reach("inf"), reach("inf"))),
            (nan_row, t[:-3] + [n - 3.75, n - 3.5, n - 3.25], wants(reach("nan"), reach("inf"))),
            (zeros + [-1e308, 0.0, 1e308], t, wants(reach("inf"), reach("inf"))),
            ([0.0, 0.0, -0.0] + zeros, t, wants("margin=-0.0,", "margin=0.0,")),
            ([-0.0, 0.0, -0.0] + zeros, t, wants("margin=0.0,", "margin=-0.0,")),
            (zeros + [-0.0, 0.0, -0.0], t, wants("margin=0.0,", "margin=0.0,")),
            (early, t, wants(f"{FIRST}4,", f"{FIRST}(1, 3, 4)")),
            (most, t, wants(f"{FIRST}{n - 1},", f"{FIRST}(1, {n - 2}, {n - 1})")),
            ([0.0] * (n - 5) + [-1e300, 0.0, 0.0, -0.0, 1e301], t[:-1] + [n - 2 + 1e-8],
             wants(reach("inf"), f"{FIRST}(1, 2, {n - 4})")),
        ]
    return cases


def with_examples(cases):
    """One hypothesis ``@example(case=...)`` per (a, t, wants) case, at the default tolerance."""
    def decorate(test):
        for a, t, want in cases:
            test = example(case=(a, t, DEFAULT_TOL, want))(test)
        return test
    return decorate


def assert_blocks_equal_loops(name, a, t, tol, want, np):
    """Scan ``name`` of (a, t) reports and raises from numpy blocks, at the block budgets 1, 7, 64
    and the module's default, as from its stdlib loops, and gives ``want[name]`` there if given; numpy runs exactly
    on operands proven finite (a finite slope bound, which bounds every anchored slope, or an
    all-triples scale that does not raise)."""
    # a budget of 1 makes every row its own block (the last anchor row one slope and no gap), 7 and
    # 64 join the short rows at the end of a scan into blocks of many rows, and the default is read
    # before any budget is patched
    budgets = (1, 7, 64, diagnostics._BLOCK_ELEMENTS)
    wit = Witness(t)
    stdlib = with_cutoffs(math.inf, SCANS[name], a, wit, tol)
    if name in want:
        assert stdlib[0] == want[name] if isinstance(want[name], tuple) else want[name] in stdlib[0]
    if name == "anchored":
        proven = math.isfinite(slope_bound(a, t))
        assert not proven or all(math.isfinite((a[i] - a[s]) / (t[i] - t[s]))
                                 for s, i in combinations(range(len(a)), 2))
    else:
        proven = not isinstance(stdlib[0], tuple)
    numpy = Recording(np)
    for budget in budgets:
        numpy.taken.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagnostics, "_BLOCK_ELEMENTS", budget)
            mp.setitem(sys.modules, "numpy", numpy)
            assert with_cutoffs(0, SCANS[name], a, wit, tol) == stdlib, budget
        assert bool(numpy.taken) == proven, budget


@pytest.mark.parametrize("name", sorted(SCANS))
@settings(max_examples=150, deadline=None)
@given(case=st.tuples(st.one_of(st.randoms(use_true_random=False).map(corpus_pair), edge_pairs()),
                      st.sampled_from(KERNEL_TOLS)).map(lambda case: (*case[0], case[1], {})))
@with_examples(block_boundary_cases())
def test_numpy_blocks_equal_the_stdlib_loops_at_any_block_budget(name, case, np):
    # corpus_pair: convex, lifted, noisy, 1e300-scaled and overflowing data, n <= 40; edge_pairs:
    # near overflow, with witness gaps below tol.abs
    a, t, tol, want = case
    assume(all(map(lt, t, t[1:])))  # a wide corpus t may lose a step to rounding
    assert_blocks_equal_loops(name, a, t, tol, want, np)


UNIT4 = [1.0, 2.0, 3.0, 4.0]


def dipped_and_lifted(n):
    """i² dipped by 20,000 at 0-based 2 and lifted by n² at n - 5."""
    a = [float(i * i) for i in range(n)]
    a[2] -= 20000.0
    a[n - 5] += float(n * n)
    return a


@pytest.mark.parametrize("name", sorted(SCANS))
@pytest.mark.parametrize("a, t, tol, want", [
    pytest.param([0.0, 8e307, -8e307, 8e307], UNIT4, DEFAULT_TOL, wants(triples=reach("inf")),
                 id="finite slope bound, all-triples scale overflows"),
    # the stdlib rows run: the last anchor's slope -2e308 raises
    pytest.param([0.0, 1e308, -1e308], UNIT4[:3], DEFAULT_TOL, wants(reach("inf")),
                 id="slope bound overflows"),
    # the all-triples scale 1.6e308 is finite, and its blocks meet the -inf determinant -1e308 - 1.6e308
    pytest.param([-1e308, 8e307, 0.0], UNIT4[:3], DEFAULT_TOL, wants(triples="holds=False,"),
                 id="slope bound overflows, all-triples determinant -inf"),
    # a violation at anchor 1, then an infinite slope from anchor 4: every row is judged, so the
    # row after a violating one still raises
    pytest.param([0.0, 1.0, 0.0, 1e308, -1e308], [0.0, *UNIT4], DEFAULT_TOL, wants(reach("inf"), reach("inf")),
                 id="a raising row after a violating row"),
    # slopes over a witness span that overflows: inf / inf is NaN
    pytest.param([-1e308, 0.0, 1e308], [-1e308, 0.0, 1e308], DEFAULT_TOL, wants(reach("nan")),
                 id="witness span overflows"),
    # a zero value times an overflowing witness span: a NaN peak
    pytest.param([1.0, 0.0, 2.0, 0.0, 5.0], [-1e308, -5e307, 0.0, 5e307, 1e308], DEFAULT_TOL,
                 wants(triples=reach("nan")), id="zero times an overflowing span"),
    # anchor 1's gaps are [0.0, -0.0], then the reverse: the margin is the first of tied zeros
    pytest.param([0.0, 0.0, 0.0, -0.0], UNIT4, DEFAULT_TOL, wants("margin=0.0,"), id="tied zeros, 0.0 first"),
    pytest.param([0.0, 0.0, -0.0, 0.0], UNIT4, DEFAULT_TOL, wants("margin=-0.0,"), id="tied zeros, -0.0 first"),
    # anchor 1's slopes are -100, -100.5, -1: the gap -0.5 holds at the scale 100.5 (slack 1.005),
    # not at the largest slope's magnitude 1 (slack 0.01)
    pytest.param([0.0, -100.0, -201.0, -3.0], [0.0, 1.0, 2.0, 3.0], Tolerance(0.0, 0.01),
                 wants("holds=True, first_violation=None, margin=-0.5,"), id="row scale from its largest magnitude"),
    # zero gaps before the first negative one, judged with no slack: a zero is not below -0.0
    pytest.param([0.0, 0.0, 0.0, 0.0, 1.0, 0.0], [0.0, *UNIT4, 5.0], Tolerance(0.0, 0.0),
                 wants(f"{FIRST}6,", f"{FIRST}(1, 5, 6)"), id="zero gaps with no slack"),
    # the gap -7.5e-10 holds within tol.abs (the slope test's margin is -1.5e-9)
    pytest.param([0.0, 7.5e-10, 0.0], [0.0, 1.0, 2.0], DEFAULT_TOL,
                 wants("holds=True, first_violation=None, margin=-7.5e-10,"), id="a gap within tol.abs"),
    # the dip makes the first violation, in the first rows; the lift makes anchor 125's deepest
    # gap, and the dip the deepest determinant in the row of first index 3 (a lift's deepest
    # determinant is always in the first row).  At n = 130 the all-triples rows of first index 1
    # and 3 fall in different blocks at every budget, the anchored rows at the budgets 1, 7 and 64
    pytest.param(dipped_and_lifted(130), [float(i) for i in range(130)], DEFAULT_TOL,
                 wants(f"{FIRST}3, margin=-16899.0,", f"{FIRST}(1, 2, 3), margin=-2503998.0,"),
                 id="first violation and smallest margin in different blocks"),
])
def test_numpy_blocks_equal_the_stdlib_loops_on_edge_rows(name, a, t, tol, want, np):
    assert_blocks_equal_loops(name, a, t, tol, want, np)


@pytest.mark.parametrize("name, a, proven", [
    ("anchored", [4.0, 1.0, 0.0, 2.0, 6.5], True),
    ("all triples", [4.0, 1.0, 0.0, 2.0, 6.5], True),
    # the slope bound 2e308 / 1 overflows: the stdlib rows judge the scan, and the last anchor's
    # one slope, inf, raises after anchor 1 violates
    ("anchored", [0.0, 1.0, 0.0, 1e308, -1e308], False),
    # the all-triples scale raises before any row
    ("all triples", [1e308, -1e308, 1e308, 0.0, 1.0], False),
])
def test_a_loaded_numpy_computes_blocks_at_any_size_on_operands_proven_finite(name, a, proven, request):
    # "loaded": in sys.modules, at the default import cutoff; where nothing is proven finite, a
    # numpy that is not there (as in the jobs without it) is never asked for a name
    numpy = Recording(request.getfixturevalue("np") if proven else None)
    t = [1.0, 2.0, 3.0, 4.0, 5.0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "numpy", numpy)
        loaded = outcome(SCANS[name], a, t, DEFAULT_TOL)
    assert bool(numpy.taken) == proven
    assert loaded == with_cutoffs(math.inf, SCANS[name], a, t, DEFAULT_TOL)
    assert loaded[0][0] is NonFiniteArithmetic if not proven else loaded[0].startswith("CheckReport(holds=True,")


@pytest.mark.parametrize("name", sorted(SCANS))
@pytest.mark.parametrize("a, want", [
    ([4.0, 1.0, 0.0, 2.0, 6.5], "CheckReport(holds=True,"),
    ([4.0, 1.0, 3.0, 2.0, 6.5], "CheckReport(holds=False,"),
    # the anchored slope bound overflows, so its stdlib rows raise; the all-triples scale raises first
    ([1e308, -1e308, 1e308, 0.0, 1.0], NonFiniteArithmetic),
])
def test_the_numpy_scans_restore_the_error_state_and_buffer_size(name, a, want, np):
    before = np.getbufsize(), np.geterr()
    result, _ = outcome(SCANS[name], a, [1.0, 2.0, 3.0, 4.0, 5.0], DEFAULT_TOL)
    assert (np.getbufsize(), np.geterr()) == before
    assert result[0] is want if want is NonFiniteArithmetic else result.startswith(want)


@pytest.mark.parametrize("name", sorted(SCANS))
@pytest.mark.parametrize("seed", [9, 11])  # a lifted pair that the all-triples scan rejects; a convex one
def test_blocked_numpy_falls_back_to_the_stdlib_rows(name, seed, monkeypatch):
    a, t = corpus_pair(random.Random(seed))
    stdlib = with_cutoffs(math.inf, SCANS[name], a, t, DEFAULT_TOL)
    assert stdlib[0].startswith("CheckReport(")
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert with_cutoffs(0, SCANS[name], a, t, DEFAULT_TOL) == stdlib


def test_the_numpy_anchored_scan_holds_one_block_at_a_time(np):
    # at n = 2,000 all (n - 1)(n - 2)/2 gaps at once would take about 16 MiB; the blocks of
    # _BLOCK_ELEMENTS gaps each, with their slopes and masks, stay far below 1 MiB
    a, t = gen_relative_convex_pair(2000, 1)
    tracemalloc.start()
    try:
        report = anchored_slope_check_all(a, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds
    assert peak < 2**20


# relconvex diagnose in a new interpreter, with numpy blocked, imported first, or left to the scans
DIAGNOSE = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
elif sys.argv[1] == "imported":
    import numpy
from relconvex.cli import main
code = main(["diagnose", "--input", sys.argv[2]])
print(json.dumps([code, sys.modules.get("numpy") is not None]))
"""


def diagnose_in_child(path, numpy):
    """(report, exit code, whether numpy is loaded after it) of ``relconvex diagnose`` on ``path``."""
    paths = [str(Path(relconvex.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", DIAGNOSE, numpy, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report, status = proc.stdout.splitlines()
    return (report, *json.loads(status))


def convex_and_lifted(tmp_path, n):
    """Files of a seeded convex pair at random steps and slopes, and of it with a[n // 2] raised by 1,
    which sends rows through the judge of rows that do not plainly hold."""
    rng = random.Random(n)
    t = list(accumulate((rng.uniform(0.01, 10.0) for _ in range(n - 1)), initial=0.0))
    slopes = sorted(rng.uniform(-5.0, 5.0) for _ in range(n - 1))
    a = list(accumulate((s * (t[k + 1] - t[k]) for k, s in enumerate(slopes)), initial=1.0))
    paths = [tmp_path / "convex.json", tmp_path / "lifted.json"]
    paths[0].write_text(json.dumps({"a": a, "t": t}))
    a[n // 2] += 1.0
    paths[1].write_text(json.dumps({"a": a, "t": t}))
    return paths


def test_a_small_diagnose_leaves_numpy_unloaded(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"a": [(i - 20.5) ** 2 for i in range(64)], "t": [float(i) for i in range(64)]}))
    report, code, loaded = diagnose_in_child(path, "unloaded")
    assert code == 0 and json.loads(report)["margin_or_slacks"]["agree"] is True and not loaded


def test_diagnose_above_the_numpy_import_cutoff_runs_the_stdlib_scans(tmp_path):
    # n = 1,100 gives 2**19+ anchored gaps, where the scan would import numpy if it could
    report, code, loaded = diagnose_in_child(convex_and_lifted(tmp_path, 1100)[0], "blocked")
    assert code == 0 and json.loads(report)["margin_or_slacks"]["agree"] is True and not loaded


@pytest.mark.parametrize("n, numpy", [(12, "imported"), (64, "imported"), (1100, "unloaded")])
def test_diagnose_prints_the_same_bytes_from_numpy_blocks_and_stdlib_loops(tmp_path, n, numpy, np):
    for path in convex_and_lifted(tmp_path, n):
        report, code, loaded = diagnose_in_child(path, numpy)
        assert loaded and (report, code, False) == diagnose_in_child(path, "blocked")
