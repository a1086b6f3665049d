"""Regression tests: self-consistent scan reports, translation-safe degeneracy
guard, covariance sums and HHF mean, CLI robustness on arithmetic overflow and
non-finite values, the pair generator at large n, the finite "not
applicable" report and the interval witness at every length, on steep runs
and on intervals too narrow or too wide to subdivide, or with an end that is
not finite, or whose constructed witness fails the slope test, and a slope
recursion that overflows."""

import hashlib
import json
import math
import random
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pytest

from relconvex import (
    anchored_slope_check,
    anchored_slope_check_all,
    bounded_monotone_diagnostic,
    collinearity_determinant_check,
    construct_witness,
    construct_witness_on_interval,
    cov_functional,
    hhf_bounds,
    increment_growth_check,
    is_convex_wrt,
    lupas_check,
    neighbor_chord_check,
    parse_psi,
    psi_identity,
)
from relconvex.seqcore import Tolerance, Witness
from relconvex.cli import main
from relconvex.errors import IntervalError, RelConvexError, WitnessLostConvexity, WitnessNotIncreasing
from relconvex.oracles import gen_relative_convex_pair


def scan_reports(a, t):
    """Every report of the six margin scans on (a, t)."""
    reports = [
        is_convex_wrt(a, t),
        neighbor_chord_check(a, t),
        collinearity_determinant_check(a, t),
        collinearity_determinant_check(a, t, all_triples=True),
        anchored_slope_check_all(a, t),
    ]
    reports += [anchored_slope_check(a, t, anchor) for anchor in range(1, len(a))]
    for probe in (increment_growth_check, lambda a, t: bounded_monotone_diagnostic(a, t, max(a), 0.0)):
        try:
            reports.append(probe(a, t))
        except RelConvexError:
            pass  # hypotheses not met on this input
    return reports


def test_determinant_check_agrees_with_itself_and_the_slope_test():
    # tiny wobble next to huge values: a per-triple scale flagged (1, 2, 3)
    # while the global scale let the verdict hold
    a = [0.0, 1e-7, 0.0, 1e6, 4e6]
    t = [1.0, 2.0, 3.0, 4.0, 5.0]
    slope = is_convex_wrt(a, t)
    for all_triples in (False, True):
        rep = collinearity_determinant_check(a, t, all_triples=all_triples)
        assert rep.holds == (rep.first_violation is None)
        assert rep.holds == slope.holds


magnitudes = st.sampled_from([1e-9, 1e-7, 1e-3, 1.0, 1e3, 1e6, 1e9])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-1.0, 1.0), magnitudes), min_size=2, max_size=9),
    st.lists(st.floats(0.01, 10.0), min_size=8, max_size=8),
)
@example([(0.0, 1.0), (1.0, 1e-7), (0.0, 1.0), (1.0, 1e6), (4.0, 1e6)], [1.0] * 8)
def test_every_scan_report_holds_exactly_without_a_violation(cells, gaps):
    a = [x * m for x, m in cells]
    t = [0.0]
    for g in gaps[: len(a) - 1]:
        t.append(t[-1] + g)
    for rep in scan_reports(a, t):
        assert rep.holds == (rep.first_violation is None)


def test_lupas_guard_is_translation_safe():
    a = [float(i * i) for i in range(1, 8)]
    b = [float(i ** 3) for i in range(1, 8)]
    unit = [float(i) for i in range(1, 8)]
    base = lupas_check(a, b, unit, [1.0] * 7)
    shifted = lupas_check(a, b, [1e7 + x for x in unit], [1.0] * 7)
    assert base.holds and shifted.holds
    assert math.isclose(shifted.lhs, base.lhs, rel_tol=1e-12)
    assert math.isclose(shifted.rhs, base.rhs, rel_tol=1e-9)


def run_cli(capsys, tmp_path, argv, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code = main(argv + ["--input", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_cli_overflow_is_an_error_report_not_a_traceback(capsys, tmp_path):
    payload = {"a": [800, 1, 0, 2, 801], "t": [1, 2, 3, 4, 5]}
    code, out, err = run_cli(capsys, tmp_path, ["hhf", "--psi", "exp"], payload)
    assert code == 2
    report = strict_json(out)
    assert report["verdict"] == "error"
    assert "OverflowError" in report["margin_or_slacks"]["message"]
    assert err.startswith("error: ")


def test_cli_writes_non_finite_values_as_null(capsys, tmp_path):
    code, out, _ = run_cli(capsys, tmp_path, ["check"], {"a": [1, 2]})
    assert code == 0
    report = strict_json(out)
    assert report["margin_or_slacks"] == {"margin": None, "first_violation": None}


def test_pair_generator_valid_at_large_n():
    for seed in range(40):
        a, t = gen_relative_convex_pair(10_000, seed)
        assert len(a) == len(t) == 10_000
        assert is_convex_wrt(a, t).holds


@pytest.mark.parametrize("seed", range(8))
def test_pair_generator_valid_at_the_largest_benchmark_n(seed):
    # the benchmark draws pairs at n = 10^5 and counts an invalid one as a wrong output
    a, t = gen_relative_convex_pair(100_000, seed)
    assert len(a) == len(t) == 100_000
    assert is_convex_wrt(a, t).holds


def test_pair_generator_unchanged_for_small_n():
    # recorded from the stdlib random.Random streams: instances up to n = 64 are bit-identical
    digest = hashlib.sha256()
    for n in (2, 5, 17, 64):
        for seed in range(40):
            a, t = gen_relative_convex_pair(n, seed)
            digest.update(repr((a.values, t.values)).encode())
    assert digest.hexdigest() == "ad1b41ed2e2e7dd69adea1cef1d64b11d50d0a29e84573c3b166ad112915defb"


# -- centred covariance sums on translated witnesses --------------------------

UNIT7 = [float(i) for i in range(1, 8)]
P7 = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]
VAR7 = 3.3017751479289945  # weighted variance of 1..7 under P7: 558/169


@pytest.mark.parametrize("offset", [0.0, 1e7, 3e8, 1e9])
def test_lupas_check_is_right_on_translated_witnesses(offset):
    # a = b = t - offset is affine in t, so lhs = rhs = the variance;
    # the one-pass E[xy] - E[x]E[y] gave rhs 0.681 at 3e8 and S(t,t) = -256 at 1e9
    t = [offset + x for x in UNIT7]
    assert cov_functional(t, t, P7) == pytest.approx(VAR7, rel=1e-12)
    rep = lupas_check(UNIT7, UNIT7, t, P7)
    assert rep.lhs == pytest.approx(VAR7, rel=1e-12)
    assert rep.rhs == pytest.approx(VAR7, rel=1e-12)
    assert rep.holds


# t and t + 838,854: the mean of the translated t rounded at the scale of 838,854, which put gamma
# at 0.20000000000376986 and slack_lower at -1.1e-9, so the translated instance was violated
HHF_A, HHF_P = [0.0, 296.45415876433253, 304.45415876433253], [4, 1, 0]
HHF_T = [0.0, 37.05676984554157, 38.05676984554157]
HHF_T_MOVED = [838854.0, 838891.0567698455, 838892.0567698455]


def test_hhf_bounds_hold_on_a_translated_witness(capsys, tmp_path):
    rep = hhf_bounds(HHF_A, HHF_T_MOVED, HHF_P, psi_identity)
    assert rep == hhf_bounds(HHF_A, HHF_T, HHF_P, psi_identity)
    assert rep.holds and rep.gamma_t == 0.2 and rep.slack_lower == 0.0
    payload = {"a": HHF_A, "t": HHF_T_MOVED, "p": HHF_P}
    code, out, _ = run_cli(capsys, tmp_path, ["hhf", "--psi", "identity"], payload)
    assert code == 0
    report = strict_json(out)
    assert report["verdict"] == "holds" and report["margin_or_slacks"]["gamma_t"] == 0.2


@pytest.mark.parametrize("t, p, m, gamma", [
    # t_3 - t_1 rounds to t_2 - t_1 = 1e10, so gamma is taken over the gap t_3 - t_2 = 2e-9 itself
    ([-1e10, 0.0, 2e-9], [0, 1, 0], 2, 0.0),
    ([-1e10, 0.0, 2e-9], [0, 1, 1], 2, 0.0),
    ([-1e10, 0.0, 2e-9], [0, 0, 1], 2, 0.0),
    # t_3 - t_1 overflows, so the mean -5e307 is measured in t / 16
    ([-1e308, 0.0, 1e308], [1, 1, 0], 1, 0.5),
])
def test_hhf_floor_and_gamma_where_differences_from_t1_round_or_overflow(t, p, m, gamma):
    rep = hhf_bounds([1.0, 0.0, 0.0], t, p, psi_identity)
    assert (rep.m, rep.gamma_t) == (m, gamma)


# t_3 - t_1 overflows: lambda was (t_3 - M) / inf = 0, so the upper bound was psi(a_3) = 1 and the
# sandwich failed through overflow alone; measured in t / 16 it is 0.5, as on t = [-1, 0, 1]
@pytest.mark.parametrize("t", [[-1.0, 0.0, 1.0], [-1e308, 0.0, 1e308]], ids=["unit", "span overflows"])
def test_hhf_bounds_measure_a_witness_whose_span_overflows_as_its_scaled_copy(t, capsys, tmp_path):
    rep = hhf_bounds([3.0, 0.0, 1.0], t, [1.0, 1.0, 1.0], psi_identity)
    assert rep.holds and (rep.m, rep.gamma_t, rep.lambda_t, rep.upper) == (2, 0.0, 0.5, 2.0)
    payload = {"a": [3, 0, 1], "t": t, "p": [1, 1, 1]}
    code, out, _ = run_cli(capsys, tmp_path, ["hhf", "--psi", "identity"], payload)
    report = strict_json(out)
    assert (code, report["verdict"], report["margin_or_slacks"]["lambda_t"]) == (0, "holds", 0.5)


def outcome(fn, *args, **kwargs):
    """The repr of the result, or the error's type and message."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return type(err), str(err)


# t_n - t_1 overflows for t from -1.65e308 to 1.65e308: with P < 2**e, hhf_bounds measures t
# scaled by 2**-(2 + e), so it reports what it reports on that scaled witness, whose span is finite
@settings(max_examples=300, deadline=None)
@given(st.integers(3, 9).flatmap(lambda n: st.tuples(
           st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
           st.lists(st.floats(-1.6e308, 1.6e308), min_size=n - 2, max_size=n - 2, unique=True),
           st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e6, 7e300]), min_size=n, max_size=n))),
       st.sampled_from(["identity", "exp", "relu@0", "square"]))
def test_hhf_bounds_on_an_overflowing_span_equal_them_on_the_scaled_witness(case, psi_name):
    a, inner, p = case
    assume(any(p))
    t = [-1.65e308, *sorted(inner), 1.65e308]
    scale = math.ldexp(1.0, -2 - max(math.frexp(math.fsum(p))[1], 0))
    scaled = [x * scale for x in t]
    assume(all(u < v for u, v in zip(scaled, scaled[1:])))  # no two entries underflow to one value
    psi = parse_psi(psi_name)
    # Witness objects, whose gaps are not judged again at tol.abs (some small ones fall below it)
    assert outcome(hhf_bounds, a, Witness(t), p, psi, skip_verify=True) == \
        outcome(hhf_bounds, a, Witness(scaled), p, psi, skip_verify=True)


# -- bounded_monotone_diagnostic: a finite "not applicable" report -----------


def test_not_applicable_report_is_finite_and_names_the_short_gap():
    rep = bounded_monotone_diagnostic([3.0, 2.0, 1.0], [0.0, 0.5, 1.0], 3.0, 1.0)
    assert not rep.applicable and not rep.holds
    assert rep.first_violation == 1 and rep.margin == -0.5
    # first short gap 0.5 at step 2; the margin is the smallest gap 0.25 minus alpha
    rep = bounded_monotone_diagnostic([3.0, 1.0, 0.5, 0.25], [0.0, 2.0, 2.5, 2.75], 3.0, 1.0)
    assert not rep.applicable and rep.first_violation == 2 and rep.margin == -0.75
    # a gap equal to alpha is not short
    assert bounded_monotone_diagnostic([3.0, 2.0, 1.0], [0.0, 1.0, 2.0], 3.0, 1.0).applicable


# -- construct_witness_on_interval: a witness at every length ----------------

SQUARE_2000 = [float((i - 1000) ** 2) for i in range(2000)]


def test_interval_witness_that_rounding_broke_is_rebuilt():
    # a thousand steps in one run: consecutive slopes must stay apart after
    # rounding, which the growth factor 1+g of each step's slope ensures
    for a in (SQUARE_2000, SQUARE_2000[1000:], SQUARE_2000[:1001]):
        wit = construct_witness_on_interval(a, 0.0, 1.0)
        assert wit[0] == 0.0 and wit[-1] == 1.0
        assert is_convex_wrt(a, wit).holds
    wit = construct_witness_on_interval(SQUARE_2000[900:1100], 0.0, 1.0)
    assert is_convex_wrt(SQUARE_2000[900:1100], wit).holds


# increments from 1.5e-8 to 8.8e7 in one run: the small steps after the huge
# one need gaps above the rounding of t near 1e9, so their slopes must not be
# scaled by the earlier huge step; suffix-minimum slopes are not
WIDE_RUN = [0.0, 1.7626978309402585e-05, 3.263879824934022e-05, 0.00019673171566727282, 88407043.55311684,
            88407043.55311699, 88407043.553117, 88407102.20240784, 122468230.18075901]


def test_interval_witness_that_only_midpoint_slopes_give_room():
    wit = construct_witness_on_interval(WIDE_RUN, 0.0, 1e9)
    assert wit[0] == 0.0 and wit[-1] == 1e9
    assert is_convex_wrt(WIDE_RUN, wit).holds


# Sequences drawn by the earlier numpy-based gen_relative_convex_pair(n, seed),
# keyed "n/seed" and kept repr-exact, so that these tests keep their inputs
# whatever the generator draws now.
DRAWS = json.loads(Path(__file__).with_name("interval_witness_draws.json").read_text())


@pytest.mark.parametrize("seed", [6, 12, 22, 36])
def test_interval_witness_for_steep_runs(seed):
    # exp-family pairs whose increments grow from ~1e-8 to ~1e7: slopes that
    # ignore the increments leave the first gap below the strictness
    # tolerance; slopes scaled by the increments give the small steps their room
    a = DRAWS[f"64/{seed}"]
    wit = construct_witness_on_interval(a, 0.0, 1.0)
    assert wit[0] == 0.0 and wit[-1] == 1.0
    assert is_convex_wrt(a, wit).holds


@pytest.mark.parametrize("n, seed", [(100, 15), (100, 35), (200, 1), (300, 5), (300, 7), (300, 10), (300, 13), (300, 34)])
def test_interval_witness_for_runs_with_sub_tolerance_steps(n, seed):
    # increasing runs with 4 to 109 steps within the tolerance, some of them
    # past the first larger step: those are read by their signs, not as a
    # plateau away from the minimum
    a = DRAWS[f"{n}/{seed}"]
    wit = construct_witness_on_interval(a, 0.0, 1.0)
    assert wit[0] == 0.0 and wit[-1] == 1.0
    assert is_convex_wrt(a, wit).holds


# small steps beside large ones: a step's slope must not be raised by a larger
# step before it, or the first case's last gap falls below the strictness
# tolerance; and a decreasing run's gaps are summed from its left end, where t
# is precise enough for the second case's small first steps
SMALL_BESIDE_LARGE = [
    ([4950.051578977428, 4950.040355919495, 4.375222905898025e-05, 0.0, 0.31625681726136234,
      0.31625682260105964, 556.2930563572604], 0.0, 0.22414523796908084),
    ([526582461.50412786, 526582461.5041278, 92112368.2827856, 0.0016108307534876886, 0.0,
      0.00024199104825968338, 26.701024938771038, 896088.3108017151, 896088.3108188579, 896088.3210979588,
      896088.3211010293, 896088.3211052879, 14998430.175328583, 14998430.175328584, 14998430.175356459,
      14998430.17543805, 14998430.175439999], 1.119829414095029e+41, 4.4146975419472294e+164),
]


@pytest.mark.parametrize("a, alpha, beta", SMALL_BESIDE_LARGE)
def test_interval_witness_for_small_steps_beside_large_ones(a, alpha, beta):
    wit = construct_witness_on_interval(a, alpha, beta)
    assert wit[0] == alpha and wit[-1] == beta
    assert is_convex_wrt(a, wit).holds


@pytest.mark.parametrize("alpha, beta, end", [(0.0, math.inf, "beta"), (-math.inf, 1.0, "alpha"),
                                              (math.nan, 1.0, "alpha")])
def test_interval_with_a_non_finite_end_is_an_interval_error(alpha, beta, end):
    with pytest.raises(IntervalError, match=f"^{end} must be finite, got"):
        construct_witness_on_interval([3.0, 1.0, 0.0, 2.0, 5.0], alpha, beta)


def test_cli_subdivide_with_an_infinite_end_is_an_error_report(capsys, tmp_path):
    code, out, err = run_cli(capsys, tmp_path, ["subdivide", "--alpha", "0", "--beta", "inf"],
                             {"a": [3, 1, 0, 2, 5]})
    assert code == 2
    report = strict_json(out)
    assert report["verdict"] == "error"
    assert report["margin_or_slacks"]["message"] == "beta must be finite, got inf"
    assert err == "error: beta must be finite, got inf\n"


def test_cli_subdivide_returns_the_rebuilt_witness(capsys, tmp_path):
    code, out, _ = run_cli(capsys, tmp_path, ["subdivide", "--alpha", "0", "--beta", "1"], {"a": SQUARE_2000})
    assert code == 0
    report = strict_json(out)
    assert report["verdict"] == "holds"
    wit = report["margin_or_slacks"]["witness"]
    assert len(wit) == 2000 and wit[0] == 0.0 and wit[-1] == 1.0
    assert is_convex_wrt(SQUARE_2000, wit).holds


# rounding leaves a step no room at any growth factor (first) or makes two cut points equal (second)
NO_ROOM = ([0.0, 140671238.63299277, 140671262.2398647, 140671270.20787212,
            140671270.20787224, 140671270.20787254], 0.0, 1.0)
CUTS_TOGETHER = ([3.0, 1.0, 1.0, 2.0], 1e16, 1e16 + 2)


@pytest.mark.parametrize("a, alpha, beta", [NO_ROOM, CUTS_TOGETHER])
def test_interval_too_narrow_to_subdivide_is_witness_not_increasing(a, alpha, beta):
    with pytest.raises(WitnessNotIncreasing):
        construct_witness_on_interval(a, alpha, beta)


def test_interval_slopes_that_underflow_or_room_that_overflows_is_witness_not_increasing():
    with pytest.raises(WitnessNotIncreasing, match="is not positive"):
        construct_witness_on_interval([0.0, 1e-300, 3e-300, 7e-300], 0.0, 1e300, Tolerance(0.0, 0.0))
    with pytest.raises(WitnessNotIncreasing, match="is not positive"):
        construct_witness_on_interval([0.0, 1.0, 3.0], -1e308, 1e308)
    # one gap needs no slope: the whole interval is the witness
    assert construct_witness_on_interval([1.0, 2.0], -1e308, 1e308).values == (-1e308, 1e308)


def test_interval_witness_raises_only_package_errors():
    # V profiles with increments spanning 18 decades on intervals from 1e-20
    # to 1e308 wide, at the default tolerance and at none
    rng = random.Random(20261018)
    for _ in range(1500):
        tol = rng.choice([Tolerance(), Tolerance(0.0, 0.0)])
        low = -9 if tol.abs else -320
        a = [0.0]
        for _ in range(rng.randint(0, 6)):
            a.insert(0, a[0] + 10 ** rng.uniform(low, 9))
        a += [0.0] * rng.choice([0, 0, 1, 2])
        for _ in range(rng.randint(1, 6)):
            a.append(a[-1] + 10 ** rng.uniform(low, 9))
        alpha = rng.choice([0.0, rng.uniform(-1, 1) * 10 ** rng.uniform(-5, 300)])
        beta = alpha + 10 ** rng.uniform(-20, 308.25)
        try:
            wit = construct_witness_on_interval(a, alpha, beta, tol)
        except RelConvexError:
            continue
        assert wit[0] == alpha and wit[-1] == beta


# a subdivision whose rounded cut points break the slope test it was built to pass
LOST = ([1.210129296244599e-10, 1.3577538310063216e-10, 1.4528666963250984e-10],
        -733862389.504846, -733862389.5037264)
LOST_MESSAGE = "constructed witness fails the slope test at slope pair 1"


def test_interval_witness_that_fails_the_slope_test_is_witness_lost_convexity(capsys, tmp_path):
    a, alpha, beta = LOST
    with pytest.raises(WitnessLostConvexity, match=f"^{LOST_MESSAGE}$"):
        construct_witness_on_interval(a, alpha, beta)
    code, out, err = run_cli(capsys, tmp_path, ["subdivide", "--alpha", repr(alpha), "--beta", repr(beta)],
                             {"a": a})
    assert code == 2
    assert strict_json(out)["margin_or_slacks"]["message"] == LOST_MESSAGE
    assert err == f"error: {LOST_MESSAGE}\n"


@pytest.mark.parametrize("a, alpha, beta", [NO_ROOM, CUTS_TOGETHER])
def test_cli_subdivide_too_narrow_is_an_error_report(capsys, tmp_path, a, alpha, beta):
    code, out, err = run_cli(capsys, tmp_path, ["subdivide", "--alpha", repr(alpha), "--beta", repr(beta)],
                             {"a": a})
    assert code == 2
    message = strict_json(out)["margin_or_slacks"]["message"]
    assert not message.startswith("ZeroDivisionError")
    assert err == f"error: {message}\n"


def test_cli_check_margin_of_an_overflowing_increment_is_null(capsys, tmp_path):
    # the difference increment -1.7e308 - 1.7e308 overflows: the margin is
    # -inf, written as null, and the verdict stands
    code, out, _ = run_cli(capsys, tmp_path, ["check"], {"a": [-1e308, 7e307, -1e308]})
    assert code == 1
    report = strict_json(out)
    assert report["verdict"] == "violated"
    assert report["margin_or_slacks"] == {"first_violation": 2, "margin": None}


@pytest.mark.parametrize("a, s, kwargs, message", [
    # -2 / -1e-308 overflows at once; the caller passed no t, so its gaps are not named
    ([3, 1, 2], [-1e-308, 1e-308], {},
     "entry 1 of 's' = -1e-308 overflows the slope recursion at step 1: 0.0 + -2.0 / -1e-308 = inf"),
    # finite gaps whose sum overflows, after a plateau step
    ([3, 1, 1, 2], [-1.0, 1e-308], {"t1": 1e308},
     "entry 2 of 's' = 1e-308 overflows the slope recursion at step 3: 1e+308 + 1.0 / 1e-308 = inf"),
    ([3, 1, 1, 2], [-1.0, 1.0], {"plateau_step": math.inf},
     "the plateau step inf overflows the slope recursion at step 2: 2.0 + inf = inf"),
])
def test_a_slope_recursion_that_overflows_names_its_schedule_entry(a, s, kwargs, message):
    with pytest.raises(WitnessNotIncreasing) as caught:
        construct_witness(a, s, **kwargs)
    assert str(caught.value) == message


@pytest.mark.parametrize("a, s, kwargs, message", [
    # a steep entry gives a step below the strictness tolerance
    ([3, 1, 2], [-1e300, 1e300], {},
     "entry 1 of 's' = -1e+300 leaves step 1 of the slope recursion within the strictness tolerance "
     "1e-09: 0.0 + -2.0 / -1e+300 = 2e-300, a step of 2e-300"),
    ([3, 1, 2], [-1e9, 1e12], {},
     "entry 2 of 's' = 1000000000000.0 leaves step 2 of the slope recursion within the strictness "
     "tolerance 1e-09: 2e-09 + 1.0 / 1000000000000.0 = 2.001e-09, a step of 9.999999999998931e-13"),
    # rounding absorbs a step: the plateau step at 2e16, the first step at t1 = 1e20
    ([3, 1, 1, 2], [-1e-16, 1e-16], {},
     "the plateau step 1.0 leaves step 2 of the slope recursion within the strictness tolerance "
     "1e-09: 2e+16 + 1.0 = 2e+16, a step of 0.0"),
    ([3, 1, 2], [-1, 1], {"t1": 1e20},
     "entry 1 of 's' = -1.0 leaves step 1 of the slope recursion within the strictness tolerance "
     "1e-09: 1e+20 + -2.0 / -1.0 = 1e+20, a step of 0.0"),
])
def test_a_slope_recursion_step_within_the_tolerance_names_its_cause(a, s, kwargs, message):
    # the caller passed no t, so the error names the step and its cause, not the gaps of a t
    with pytest.raises(WitnessNotIncreasing) as caught:
        construct_witness(a, s, **kwargs)
    assert str(caught.value) == message
