"""Work done once per frozen input, observed only through its results.

* Weighted means and centred sums are remembered on the ``WeightVec``: calls
  on shared objects, in any order, report and raise exactly as calls on fresh
  copies do; a dead object's reused id misses, a raise is never remembered,
  a copy or pickle starts empty, the memo makes no reference cycle, and
  calls on raw lists leave a bounded number of entries, all of them dead.
* ``pecaric_check`` shares the cached ``unit_weights(n)``.
* A witness whose values are 1..n and weights that are all 1.0 skip the exact ÷1
  and ×1, however they were built, and a moment of one vector with itself takes
  each deviation once: every engine on them reports and raises exactly as with
  those fast paths forced off.  A failed precondition at 1..m leaves the cached
  ``unit_witness(n)`` in place.
* The value sum p_i ψ(a_i) of the HHF engines is remembered on the
  ``WeightVec`` per (sequence, map) for a builtin map only; any other
  callable is called anew.  A raise is not remembered.
* The majorization engines evaluate the polygonal line point by point, bit
  for bit as the extension's slopes did, and never build the extension.
* ``Witness.of`` judges the gaps once, with the same errors as before.
"""

import copy
import gc
import math
import pickle
import sys
import warnings
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relconvex
from relconvex import (
    RealSeq, Tolerance, WeightVec, Witness, build_extension, convex_hhf_bounds, cov_functional,
    hhf_bounds, integer_majorization_check, is_convex_wrt, lupas_check, majorization_inequality_check,
    niezgoda_bound, parse_psi, pecaric_check, weighted_mean,
)
from relconvex import functionals, inequalities, polyext, seqcore
from relconvex.errors import (
    LengthError, NonFiniteArithmetic, OutOfDomain, PreconditionViolation, WitnessNotIncreasing,
)
from relconvex.functionals import _fsum, unit_weights
from relconvex.seqcore import unit_witness


def outcome(fn, *args, **kwargs):
    """(repr of the result or (error type, message), warnings): all a caller observes."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(fn(*args, **kwargs))
        except Exception as err:  # noqa: BLE001 - the error itself is compared
            result = (type(err), str(err))
    return result, [(w.category, str(w.message)) for w in caught]


def live_entries(obj):
    """The memo entries of ``obj`` whose objects are all alive, and the number of all entries."""
    entries = vars(obj).get("_moments", {})
    return [e for e in entries.values() if e[0]() is not None and e[1]() is not None], len(entries)


# -- remembered moments equal fresh ones ------------------------------------------


@st.composite
def instances(draw):
    """(a, b, t, p, ac, bc) of one length n <= 40: t increasing, the sequences convex or arbitrary."""
    n = draw(st.integers(2, 40))
    gaps = draw(st.lists(st.floats(1e-2, 1e3), min_size=n - 1, max_size=n - 1))
    t = [draw(st.floats(-1e3, 1e3))]
    for g in gaps:
        t.append(t[-1] + g)
    vec = st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)
    if draw(st.booleans()):  # convex against t and against 1..n, so that the sums are reached
        a, b = [(x - t[n // 2]) ** 2 for x in t], [abs(x - t[0]) for x in t]
        ac, bc = [float((i - n // 2) ** 2) for i in range(n)], [abs(i - n / 3) for i in range(n)]
    else:
        a, b, ac, bc = draw(vec), draw(vec), draw(vec), draw(vec)
    p = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=n, max_size=n))
    if not sum(p) > 0:
        p[0] = 1.0
    return a, b, t, p, ac, bc


CALLS = {
    "mean_t": lambda o, sv, psi: weighted_mean(o["T"], o["P"]),
    "mean_a": lambda o, sv, psi: weighted_mean(o["A"], o["P"]),
    "cov_at": lambda o, sv, psi: cov_functional(o["A"], o["T"], o["P"]),
    "cov_ta": lambda o, sv, psi: cov_functional(o["T"], o["A"], o["P"]),
    "cov_bb": lambda o, sv, psi: cov_functional(o["B"], o["B"], o["P"]),
    "lupas": lambda o, sv, psi: lupas_check(o["A"], o["B"], o["T"], o["P"], skip_verify=sv),
    "lupas_ba": lambda o, sv, psi: lupas_check(o["B"], o["A"], o["T"], o["P"], skip_verify=sv),
    "pecaric": lambda o, sv, psi: pecaric_check(o["AC"], o["BC"], skip_verify=sv),
    "hhf": lambda o, sv, psi: hhf_bounds(o["A"], o["T"], o["P"], psi, skip_verify=sv),
    "niezgoda": lambda o, sv, psi: niezgoda_bound(o["AC"], o["P"], psi, skip_verify=sv),
    "convex_hhf": lambda o, sv, psi: convex_hhf_bounds(o["AC"], o["P"], psi, skip_verify=sv),
}


def objects(a, b, t, p, ac, bc):
    return {"A": RealSeq(a), "B": RealSeq(b), "T": Witness(t), "P": WeightVec(p),
            "AC": RealSeq(ac), "BC": RealSeq(bc)}


@settings(max_examples=200, deadline=None)
@given(instances(),
       st.lists(st.tuples(st.sampled_from(sorted(CALLS)), st.booleans()), min_size=1, max_size=20),
       st.sampled_from(["identity", "exp", "relu@0", "square"]))
@example(([4, 1, 0, 2, 6], [9, 4, 1, 0, 1], [1, 2, 3.5, 4, 5], [1, 2, 3, 2, 1], [4, 1, 0, 2, 6], [9, 4, 1, 0, 1]),
         [("lupas", False), ("pecaric", False), ("cov_at", False)] * 2, "identity")
def test_calls_on_shared_objects_equal_calls_on_fresh_copies(inst, order, psi_name):
    psi = parse_psi(psi_name)
    shared = objects(*inst)
    for name, skip_verify in order:
        fresh = objects(*inst)
        raw = {k: list(v) for k, v in fresh.items()}
        # raw lists are remembered too, beside a shared WeightVec or not
        for other in (fresh, raw, dict(raw, P=shared["P"])):
            assert outcome(CALLS[name], shared, skip_verify, psi) == outcome(CALLS[name], other, skip_verify, psi)


# -- the unit objects' omissions change no bit -------------------------------------

#: ±0.0, the smallest subnormal and a larger one, the smallest normal, and ±1e308 whose
#: differences and moments overflow
EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308)


@st.composite
def unit_instances(draw):
    """(a, b, w, pidx, qidx) of one length n <= 40: a convex against 1..n or arbitrary, with edge
    values, and positive weights w."""
    n = draw(st.integers(2, 40))
    entry = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(EDGES))
    if draw(st.booleans()):  # convex, so that the verified engines reach their sums
        c, scale = draw(st.integers(0, n - 1)), draw(st.sampled_from((1.0, 1e-310, 1e300)))
        a = [scale * (i - c) ** 2 for i in range(n)]
    else:
        a = draw(st.lists(entry, min_size=n, max_size=n))
    b = draw(st.lists(entry, min_size=n, max_size=n))
    w = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    k = draw(st.integers(2, max(n - 1, 2)))
    pidx, qidx = ([k, k], [k - 1, k + 1]) if n > 2 else ([1, 2], [2, 1])
    return a, b, w, pidx, qidx


def unit_outcomes(twin, a, b, w, pidx, qidx, skip_verify, psi):
    """The outcome of every engine that runs on the unit witness or the unit weights, looked up
    on their modules at call time, and of the moments of one vector with ``twin`` of it."""
    n = len(a)
    t, p, seq, wv = seqcore.unit_witness(n), inequalities.unit_weights(n), RealSeq(a), WeightVec(w)
    return [
        outcome(relconvex.is_convex, a),
        outcome(pecaric_check, a, b, skip_verify=skip_verify),
        outcome(niezgoda_bound, a, p, psi, skip_verify=skip_verify),
        outcome(convex_hhf_bounds, a, p, psi, skip_verify=skip_verify),
        outcome(integer_majorization_check, a, pidx, qidx, skip_verify=skip_verify),
        outcome(relconvex.lupas_constant, t),
        outcome(cov_functional, t, twin(t), p),
        outcome(cov_functional, seq, twin(seq), p),
        outcome(cov_functional, seq, twin(seq), wv),
        outcome(lupas_check, a, b, t, p, skip_verify=skip_verify),
    ]


@settings(max_examples=300, deadline=None)
@given(unit_instances(), st.booleans(), st.sampled_from(["identity", "exp", "relu@0", "square"]))
@example(([0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0], [1.0] * 4, [2, 2], [1, 3]), False, "identity")
@example(([0.0, 0.0, -0.0], [-0.0, -0.0, -0.0], [1.0, 2.0, 3.0], [2, 2], [1, 3]), True, "square")
@example(([5e-324, 0.0, 5e-324, 1e-310], [1e-310, -5e-324, 2e-310, 0.0], [3.0, 1.0, 2.0, 1e-3], [2, 3], [1, 4]),
         True, "relu@0")
@example(([2.2250738585072014e-308, 5e-324, 2.2250738585072014e-308], [5e-324, -5e-324, 5e-324],
          [1.0, 1e3, 1.0], [2, 2], [1, 3]), False, "identity")
# the weighted variance of a: (w d) d and w (d d) round apart on these values
@example(([-4.0, -9.4, 7.3, -0.5], [1.0, 2.0, 3.0, 4.0], [2.2, 2.6, 2.2, 2.8], [2, 3], [1, 4]), True, "identity")
@example(([1e308, -1e308, 1e308], [-1e308, 1e308, 1e308], [1.0, 1.0, 1.0], [2, 2], [1, 3]), True, "identity")
@example(([1e308, 0.0, 1e308], [1e308, 0.0, 1e308], [0.5, 2.0, 0.5], [2, 2], [1, 3]), False, "exp")
@example(([-1e308, 1e308], [1e308, -1e308], [1.0, 2.0], [1, 2], [2, 1]), True, "identity")
@example(([float((i - 20) ** 2) for i in range(40)], [abs(i - 13.5) for i in range(40)],
          [1.0 + i % 7 for i in range(40)], [20, 20], [19, 21]), False, "exp")
def test_calls_on_the_unit_fast_paths_equal_calls_with_the_unit_predicates_forced_false(
        inst, skip_verify, psi_name):
    psi = parse_psi(psi_name)
    # fresh unit objects each time, so that moments remembered by an earlier call are not reused
    seqcore.unit_witness.cache_clear()
    functionals.unit_weights.cache_clear()
    fast = unit_outcomes(lambda v: v, *inst, skip_verify, psi)
    seqcore.unit_witness.cache_clear()
    functionals.unit_weights.cache_clear()
    values_are_unit, wording = Witness.__dict__["_unit"].func, inequalities._require_convex_wrt.__code__

    def kernels_general(self):  # a failed precondition at 1..n is still worded as is_convex words it
        return sys._getframe(1).f_code is wording and values_are_unit(self)

    with mock.patch.object(Witness, "_unit", property(kernels_general)), \
            mock.patch.object(WeightVec, "_unit", property(lambda self: False)):
        assert not unit_witness(2)._unit and not unit_weights(2)._unit
        assert fast == unit_outcomes(copy.copy, *inst, skip_verify, psi)


def forbidden(*args):
    raise AssertionError("a unit fast path was not taken")


def centred_unweighted(x, mx, y=None, my=0.0, w=None, total=1.0, centred=functionals._centred):
    if w is not None:
        forbidden()
    return centred(x, mx, y, my, w, total)


@settings(max_examples=100, deadline=None)
@given(unit_instances(), st.booleans())
@example(([0.0, 1.0, 0.0], [0.0, 1.0, 4.0], [1.0] * 3, [2, 2], [1, 3]), False)
def test_unit_valued_objects_take_the_fast_paths_however_built(inst, skip_verify):
    a, b = inst[:2]
    n = len(a)

    def calls(t, p):
        return [
            outcome(is_convex_wrt, a, t),
            outcome(lupas_check, a, b, t, p, skip_verify=skip_verify),
            outcome(cov_functional, a, b, p),
            outcome(cov_functional, t, t, p),
            outcome(weighted_mean, a, p),
        ]

    seqcore.unit_witness.cache_clear()
    functionals.unit_weights.cache_clear()
    built = [
        (Witness([float(i) for i in range(1, n + 1)]), WeightVec([1.0] * n)),
        (copy.copy(unit_witness(n)), pickle.loads(pickle.dumps(unit_weights(n)))),
    ]
    # dividing by the gaps, or multiplying by the weights, raises
    with mock.patch.object(seqcore, "_slopes", forbidden), mock.patch.object(functionals, "mul", forbidden), \
            mock.patch.object(functionals, "_centred", centred_unweighted):
        cached = calls(unit_witness(n), unit_weights(n))
        assert "a unit fast path was not taken" not in repr(cached)
        for t, p in built:
            assert calls(t, p) == cached


def test_a_failed_precondition_keeps_the_cached_unit_witness():
    kept = unit_witness(5)
    bumped, curved, p = [0.0, 1.0, 0.0], [0.0, 1.0, 4.0], [1.0, 1.0, 1.0]
    with pytest.raises(PreconditionViolation, match="^a is not convex: interior index 2 "):
        lupas_check(bumped, curved, [1.0, 2.0, 3.0], p)  # t = 1..3, worded as is_convex words it
    with pytest.raises(PreconditionViolation, match="^a is not convex w.r.t. t: slope pair 1 "):
        lupas_check(bumped, curved, [1.0, 2.0, 4.0], p)
    assert unit_witness(5) is kept


def test_the_order_of_a_pair_is_part_of_its_key():
    # (w (x - mx)) (y - my) and (w (y - my)) (x - mx) round apart on these values
    x = RealSeq([-5.338310994848547, -5.382669169180314, -5.624379253246228, -0.8079306852453279,
                 -4.204367708190288])
    y = RealSeq([-9.570205894681823, 6.751559513251458, 1.129086453048668, 2.8458872586489115,
                 -6.281874682105646])
    p = WeightVec([2.978375895310589, 2.5938449335063405, 0.45058088343683855, 1.0648160375443745,
                   2.1923047819914783])
    for _ in range(2):
        assert repr(cov_functional(x, y, p)) == "1.4386261209571638"
        assert repr(cov_functional(y, x, p)) == "1.4386261209571642"


def test_a_dead_objects_reused_id_misses():
    p = WeightVec([1.0, 2.0, 3.0])
    for _ in range(50):
        assert weighted_mean(RealSeq([0.0, 3.0, 6.0]), p) == 4.0
        assert weighted_mean(RealSeq([6.0, 3.0, 0.0]), p) == 2.0
        assert cov_functional(RealSeq([1.0, 2.0, 3.0]), RealSeq([1.0, 2.0, 3.0]), p) == 5 / 9
        assert cov_functional(RealSeq([1.0, 1.0, 1.0]), RealSeq([1.0, 2.0, 3.0]), p) == 0.0
    assert live_entries(p)[1] <= 9  # the entries of dead sequences go as the memo reaches 8 entries


def test_an_overflow_raises_on_every_call():
    x = RealSeq([1e308, -1e308, 0.0])
    y = RealSeq([1e308, 5e307, -1e308])
    p = WeightVec([1.0, 1.0, 1.0])
    for _ in range(3):
        with pytest.raises(NonFiniteArithmetic):
            cov_functional(x, y, p)
    assert live_entries(p)[1] == 2  # the two means; the sum raised
    big = RealSeq([1e308, 1e308])
    for _ in range(3):
        with pytest.raises(NonFiniteArithmetic):
            weighted_mean(big, WeightVec([1.0, 1.0]))


def test_weights_copy_and_pickle_without_the_memo():
    a, t = RealSeq([4.0, 1.0, 0.0, 2.0, 6.0]), Witness([1.0, 2.0, 3.5, 4.0, 5.0])
    p = WeightVec([1.0, 2.0, 3.0, 2.0, 1.0])
    report = lupas_check(a, a, t, p)
    assert len(live_entries(p)[0]) == 5  # means of a and t; S(t,t), S(a,a), S(a,t)
    clones = [copy.copy(p), copy.deepcopy(p)]
    clones += [pickle.loads(pickle.dumps(p, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert type(clone) is WeightVec and clone == p
        assert "_moments" not in vars(clone)
        assert repr(lupas_check(a, a, t, clone)) == repr(report)


def test_weights_are_freed_by_reference_counting():
    p = WeightVec([1.0, 2.0, 3.0])
    x = RealSeq([1.0, 5.0, 2.0])
    weighted_mean(p, p)  # the weights themselves as the data vector
    cov_functional(x, p, p)
    assert live_entries(p)[1] == 3
    alive = weakref.ref(p)
    gc.disable()
    try:
        del p
        assert alive() is None
    finally:
        gc.enable()


def test_calls_on_raw_lists_leave_a_bounded_number_of_dead_entries():
    a, b, t = [4.0, 1.0, 0.0, 2.0, 6.0], [9.0, 4.0, 1.0, 0.0, 1.0], [1.0, 2.0, 3.0, 4.0, 5.0]
    p, seq = WeightVec([1.0, 2.0, 3.0, 2.0, 1.0]), RealSeq(a)
    psi = parse_psi("identity")
    unit_weights.cache_clear()  # a test before may have left moments on the cached instance
    memos = [(p, "_moments"), (unit_weights(len(a)), "_moments"), (seq, "_slope_tests")]
    unit = unit_witness(len(a))
    calls = [
        lambda: is_convex_wrt(seq, list(t)),
        lambda: weighted_mean(list(t), p),
        lambda: cov_functional(list(a), list(t), p),
        lambda: lupas_check(list(a), list(b), list(t), p),
        lambda: pecaric_check(list(a), list(b)),
        lambda: hhf_bounds(list(a), list(t), p, psi),
        lambda: niezgoda_bound(list(a), p, psi),
        lambda: convex_hhf_bounds(list(a), p, psi),
    ]
    for call in calls:
        for _ in range(100):
            call()
        gc.collect()
        for owner, memo in memos:
            entries = [(x(), y()) for x, y, _ in vars(owner).get(memo, {}).values()]
            assert len(entries) <= 16
            # an entry whose objects all live holds only the cached unit witness, which stays alive
            assert all(x is None or y is None or x is y is unit for x, y in entries), call


def test_pecaric_shares_the_cached_unit_weights():
    a, b = RealSeq([4.0, 1.0, 0.0, 2.0, 6.0]), RealSeq([9.0, 4.0, 1.0, 0.0, 1.0])
    units = unit_weights(5)
    assert unit_weights(5) is units and units.values == (1.0,) * 5 and units.total == 5.0
    report = pecaric_check(a, b)
    assert len(live_entries(units)[0]) == 7  # means of a, b, 1..n; S(t,t), S(a,b), S(a,t), S(b,t)
    assert pecaric_check(a, b) == report
    assert repr(report) == repr(pecaric_check(list(a), list(b)))


class CountingMap:
    """The identity, counting its calls; ``builtin`` declares the interval a builtin map declares."""

    def __init__(self, builtin):
        self.calls = 0
        if builtin:
            self._convex_on = (-math.inf, math.inf)

    def __call__(self, x):
        self.calls += 1
        return x


@pytest.mark.parametrize("builtin", [True, False])
def test_the_psi_sum_is_remembered_for_a_builtin_map_only(builtin):
    a, p = RealSeq([4.0, 1.0, 0.0, 2.0, 6.0]), WeightVec([1.0, 2.0, 3.0, 2.0, 1.0])
    psi = CountingMap(builtin)
    reports = []
    for engine in (niezgoda_bound, convex_hhf_bounds, convex_hhf_bounds):
        before = psi.calls
        reports.append(outcome(engine, a, p, psi))
        # the range check (builtin) or the samples (any other map), lower and upper, then the sum
        spot = 2 if builtin else 5 + 3
        summed = builtin and engine is not niezgoda_bound
        assert psi.calls - before == spot + 4 + (0 if summed else len(a))
    fresh = [outcome(engine, list(a), list(p), CountingMap(builtin))
             for engine in (niezgoda_bound, convex_hhf_bounds, convex_hhf_bounds)]
    assert reports == fresh


class SlottedIdentity:
    """A map declaring the builtin interval that takes no weak reference."""

    __slots__ = ()
    _convex_on = (-math.inf, math.inf)

    def __call__(self, x):
        return x


def test_a_map_without_weak_references_is_called_anew():
    a, p = RealSeq([4.0, 1.0, 0.0, 2.0, 6.0]), WeightVec([1.0, 2.0, 3.0, 2.0, 1.0])
    for engine in (niezgoda_bound, convex_hhf_bounds):
        assert outcome(engine, a, p, SlottedIdentity()) == outcome(engine, a, p, parse_psi("identity"))


def test_a_raising_psi_sum_is_not_remembered():
    a, p = RealSeq([0.0, 400.0, 800.0]), WeightVec([1.0, 1.0, 1.0])
    for _ in range(2):
        with pytest.raises(OverflowError):
            niezgoda_bound(a, p, math.exp, skip_verify=True)
    assert live_entries(p)[1] == 0  # the sum raised, before the mean of the witness is taken


# -- the point evaluator -------------------------------------------------------


def slope_eval(ext, x, tol=relconvex.DEFAULT_TOL):
    """The evaluation through the extension's stored slopes, as it was written before."""
    t = ext.breakpoints_t
    x = min(max(float(x), t[0]), t[-1])
    i = max(k for k in range(len(t)) if t[k] <= x)
    if x == t[i]:
        return ext.breakpoints_a[i]
    return ext.breakpoints_a[i] + ext.slopes[i] * (x - t[i])


@st.composite
def majorized_points(draw):
    """(a, t, pvec, qvec): qvec holds breakpoints, both endpoints and points clamped
    within tol.abs; pvec replaces some pairs of qvec by their midpoint, so pvec ≺ qvec."""
    n = draw(st.integers(2, 40))
    gaps = draw(st.lists(st.floats(1e-2, 1e3), min_size=n - 1, max_size=n - 1))
    t = [draw(st.floats(-1e3, 1e3))]
    for g in gaps:
        t.append(t[-1] + g)
    a = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    inside = st.one_of(st.sampled_from(t), st.floats(t[0], t[-1]),
                       st.sampled_from([t[0] - 5e-10, t[-1] + 5e-10, t[0], t[-1]]))
    qvec, pvec = [], []
    for _ in range(draw(st.integers(1, 6))):
        u, v = draw(inside), draw(inside)
        qvec += [u, v]
        m = min(max((u + v) / 2, t[0]), t[-1])
        pvec += [m, m] if draw(st.booleans()) else [u, v]
    return a, t, pvec, qvec


@settings(max_examples=300, deadline=None)
@given(majorized_points())
def test_majorization_margin_equals_the_extension_sums(case):
    a, t, pvec, qvec = case
    ext = build_extension(a, t)
    for x in pvec + qvec + t:
        assert repr(ext.eval(x)) == repr(slope_eval(ext, x))
    got = outcome(majorization_inequality_check, a, t, pvec, qvec, skip_verify=True)
    if not isinstance(got[0], str):  # the majorization precondition may fail by rounding
        assert got[0][0] is PreconditionViolation
        return
    lhs = _fsum(slope_eval(ext, x) for x in pvec)
    rhs = _fsum(slope_eval(ext, x) for x in qvec)
    assert repr(majorization_inequality_check(a, t, pvec, qvec, skip_verify=True).margin) == repr(rhs - lhs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40), st.data())
def test_integer_majorization_margin_equals_the_extension_sums(a, data):
    n = len(a)
    qidx = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=12).filter(lambda v: len(v) % 2 == 0))
    pidx = []
    for u, v in zip(qidx[::2], qidx[1::2]):
        pidx += [(u + v) // 2, (u + v + 1) // 2]  # a transfer between u and v: pidx ≺ qidx
    ext = build_extension(a, unit_witness(n))
    margin = _fsum(map(slope_eval, [ext] * len(qidx), qidx)) - _fsum(map(slope_eval, [ext] * len(pidx), pidx))
    report = integer_majorization_check(a, pidx, qidx, skip_verify=True)
    assert repr(report.margin) == repr(margin)


def test_points_beyond_the_tolerance_are_out_of_domain():
    a, t = [4.0, 1.0, 0.0, 2.0, 6.0], [1.0, 2.0, 3.0, 4.0, 5.0]
    ext = build_extension(a, t)
    tol = Tolerance()
    assert ext.eval(1.0 - 0.5 * tol.abs) == 4.0 and ext.eval(5.0 + 0.5 * tol.abs) == 6.0
    for x in (1.0 - 2 * tol.abs, 5.0 + 2 * tol.abs, math.inf, -math.inf, math.nan):
        if x == x:
            with pytest.raises(OutOfDomain):
                ext.eval(x)
        with pytest.raises(PreconditionViolation, match="lies outside the witness range"):
            majorization_inequality_check(a, t, [3.0, x], [2.0, 4.0])


def test_the_majorization_engines_never_build_the_extension(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("build_extension reached")

    monkeypatch.setattr(polyext, "build_extension", boom)
    monkeypatch.setattr(relconvex, "build_extension", boom)
    a = [4.0, 1.0, 0.0, 2.0, 6.0]
    assert majorization_inequality_check(a, [1.0, 2.0, 3.0, 4.0, 5.0], [2.5, 3.5], [1.5, 4.5]).holds
    assert integer_majorization_check(a, [2, 3], [1, 4]).holds


# -- Witness.of judges the gaps once --------------------------------------------


@pytest.mark.parametrize(
    "values, tol, error, message",
    [
        ([0.0, math.nan, 2.0], Tolerance(), WitnessNotIncreasing,
         "gap t[2] - t[1] = nan is not above the strictness tolerance 1e-09"),
        ([math.nan, 1.0], Tolerance(), WitnessNotIncreasing,
         "gap t[2] - t[1] = nan is not above the strictness tolerance 1e-09"),
        ([0.0, 1.0, math.inf], Tolerance(), ValueError, "entry 3 is not finite: inf"),
        ([-math.inf, 0.0, 1.0], Tolerance(), ValueError, "entry 1 is not finite: -inf"),
        ([math.inf, 0.0], Tolerance(), WitnessNotIncreasing,
         "gap t[2] - t[1] = -inf is not above the strictness tolerance 1e-09"),
        ([0.0, math.inf, math.inf], Tolerance(), WitnessNotIncreasing,
         "gap t[3] - t[2] = nan is not above the strictness tolerance 1e-09"),
        ([0.0, 1.0, 1.0], Tolerance(), WitnessNotIncreasing,
         "gap t[3] - t[2] = 0.0 is not above the strictness tolerance 1e-09"),
        ([0.0, -0.0], Tolerance(abs=0.0), WitnessNotIncreasing,
         "gap t[2] - t[1] = -0.0 is not above the strictness tolerance 0.0"),
        ([0.0, 2.0, 1.0], Tolerance(), WitnessNotIncreasing,
         "gap t[3] - t[2] = -1.0 is not above the strictness tolerance 1e-09"),
        ([0.0, 1.0, 1.0 + 5e-10], Tolerance(), WitnessNotIncreasing,
         "gap t[3] - t[2] = 5.000000413701855e-10 is not above the strictness tolerance 1e-09"),
        ([0.0, 1e-3, 2e-3], Tolerance(abs=1e-3), WitnessNotIncreasing,
         "gap t[2] - t[1] = 0.001 is not above the strictness tolerance 0.001"),
        ([3.0], Tolerance(), LengthError, "witness needs at least 2 entries, got 1"),
        ([math.nan], Tolerance(), LengthError, "witness needs at least 2 entries, got 1"),
        ([], Tolerance(), LengthError, "witness needs at least 2 entries, got 0"),
    ],
)
def test_witness_of_errors(values, tol, error, message):
    with pytest.raises(error) as err:
        Witness.of(values, tol)
    assert type(err.value) is error and str(err.value) == message


def test_witness_of_equals_the_constructor():
    wit = Witness.of([0, 1, 2.5])
    assert type(wit) is Witness and wit == Witness((0.0, 1.0, 2.5))
    assert all(type(v) is float for v in wit.values)
    assert Witness.of([0.0, 5e-324], Tolerance(abs=0.0)).values == (0.0, 5e-324)
