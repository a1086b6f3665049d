"""One verdict rule: ``Tolerance.allowed`` scales every comparison, ``scan_margin``
judges every gap, and arithmetic that overflows to inf or NaN raises
``NonFiniteArithmetic`` (exit 2 in the CLI) instead of giving a verdict.
Also: the spread-scaled ``lupas_constant`` guard, integer-only indices in
``integer_majorization_check`` and ``WeightVec`` on the shared validation base."""

import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relconvex import (
    ConvexMapWarning,
    IndexOutOfRange,
    LengthError,
    NonFiniteArithmetic,
    RelConvexError,
    Tolerance,
    WeightVec,
    ZeroTotalWeight,
    anchored_slope_check,
    anchored_slope_check_all,
    bounded_monotone_diagnostic,
    collinearity_determinant_check,
    convex_hhf_bounds,
    hhf_bounds,
    increment_growth_check,
    integer_majorization_check,
    is_convex,
    is_convex_wrt,
    lupas_check,
    lupas_constant,
    majorization_inequality_check,
    neighbor_chord_check,
    niezgoda_bound,
    parse_psi,
    pecaric_check,
    psi_square,
    rate_diagnostic,
    spot_check_map,
)
from relconvex.cli import main
from relconvex.seqcore import _Floats, scan_margin

SLOPE_OVERFLOW = {"a": [-1e308, 1e308, 1e308], "t": [0.0, 1.0, 2.0]}
LUPAS_HUGE = {"a": [1e200, 0.0, 1e200], "b": [1e200, 0.0, 1e200], "t": [1.0, 2.0, 3.0]}
HHF_HUGE = {"a": [1e200, 0.0, 1e200], "t": [1.0, 2.0, 3.0]}
EXACT = Tolerance(abs=0.0, rel=0.0)


# -- Tolerance.allowed and scan_margin ---------------------------------------


def test_allowed_is_slack_at_the_largest_magnitude():
    tol = Tolerance(1e-9, 1e-12)
    assert tol.allowed([3.0, -7.5, 2.0]) == tol.slack(7.5)
    assert tol.allowed([]) == tol.abs


@pytest.mark.parametrize(
    "operands",
    [[math.inf, 1.0], [-math.inf, 1.0], [math.nan, 1.0], [1.0, math.nan], iter([2.0, math.nan])],
    ids=["inf", "-inf", "nan-first", "nan-later", "nan-in-an-iterator"],
)
def test_allowed_raises_on_a_non_finite_scale(operands):
    # a NaN is found wherever it stands, although max() passes over one that is not first
    with pytest.raises(NonFiniteArithmetic):
        Tolerance().allowed(operands)


def test_spot_check_map_raises_on_a_nan_value():
    psi = lambda x: math.nan if x > 1.5 else x  # noqa: E731
    with pytest.raises(NonFiniteArithmetic):
        spot_check_map(psi, [1.0, 2.0, 3.0])


def test_non_finite_arithmetic_is_both_a_package_and_an_arithmetic_error():
    assert issubclass(NonFiniteArithmetic, RelConvexError)
    assert issubclass(NonFiniteArithmetic, ArithmeticError)


def test_scan_margin_raises_on_a_nan_gap():
    with pytest.raises(NonFiniteArithmetic):
        scan_margin([1.0, math.nan, 2.0], EXACT, ())
    # a NaN after a larger gap is caught too, not skipped by the comparison
    with pytest.raises(NonFiniteArithmetic):
        scan_margin([-1.0, math.nan], EXACT, ())


def test_scan_margin_keeps_infinite_gaps_as_margins():
    unit = Tolerance(abs=1.0, rel=0.0)
    assert scan_margin([math.inf], unit, ()) == (None, math.inf)
    assert scan_margin([1.0, -math.inf], unit, ()) == (2, -math.inf)


# -- the three non-finite inputs: library ------------------------------------


def test_slope_overflow_raises_instead_of_holding():
    with pytest.raises(NonFiniteArithmetic):
        is_convex_wrt(SLOPE_OVERFLOW["a"], SLOPE_OVERFLOW["t"])


def test_lupas_on_huge_entries_raises_instead_of_violating():
    with pytest.raises(NonFiniteArithmetic):
        lupas_check(LUPAS_HUGE["a"], LUPAS_HUGE["b"], LUPAS_HUGE["t"], [1.0] * 3)


@pytest.mark.parametrize("skip_verify", [False, True])
def test_hhf_square_on_huge_entries_raises(skip_verify):
    with pytest.raises(NonFiniteArithmetic):
        hhf_bounds(HHF_HUGE["a"], HHF_HUGE["t"], [1.0] * 3, psi_square, skip_verify=skip_verify)


def test_hhf_value_sum_overflow_raises():
    # every term is finite; only their sum overflows (fsum's "intermediate overflow")
    with pytest.raises(NonFiniteArithmetic):
        hhf_bounds([1e308, 0.0, 1e308], [1.0, 2.0, 3.0], [1.0] * 3, parse_psi("identity"))


def test_spread_guard_raises_when_the_spread_squared_overflows():
    t = [-1e200, 0.0, 1e200]
    with pytest.raises(NonFiniteArithmetic):
        lupas_constant(t)
    with pytest.raises(NonFiniteArithmetic):
        lupas_check(t, t, t, [1.0] * 3, skip_verify=True)


# -- the three non-finite inputs: CLI ----------------------------------------


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def run_cli(capsys, tmp_path, argv, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code = main(argv + ["--input", str(path)])
    captured = capsys.readouterr()
    return code, strict_json(captured.out), captured.err


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["check", "--wrt"], SLOPE_OVERFLOW),
        (["lupas"], LUPAS_HUGE),
        (["hhf", "--psi", "square"], HHF_HUGE),
        (["hhf", "--psi", "square", "--skip-verify"], HHF_HUGE),
    ],
)
def test_cli_non_finite_arithmetic_is_exit_2_with_a_named_error(capsys, tmp_path, argv, payload):
    code, report, err = run_cli(capsys, tmp_path, argv, payload)
    assert code == 2
    assert report["verdict"] == "error"
    assert report["margin_or_slacks"]["message"].startswith("NonFiniteArithmetic: ")
    assert err.startswith("error: NonFiniteArithmetic: ")


# -- property: no verdict from non-finite arithmetic ------------------------

huge = st.one_of(
    st.floats(-1e308, 1e308),
    st.sampled_from([-1e308, -1e200, -1.0, 0.0, 1.0, 1e200, 1e308]),
)


def witness_from(start, gaps):
    t = [start]
    for g in gaps:
        t.append(t[-1] + g)
    return t


def calls(a, b, t, p, psi):
    """Every scan and engine on one instance, as zero-argument callables."""
    n = len(a)
    mid = (t[0] + t[-1]) / 2
    yield lambda: is_convex_wrt(a, t)
    yield lambda: is_convex(a)
    yield lambda: neighbor_chord_check(a, t)
    yield lambda: increment_growth_check(a, t)
    yield lambda: collinearity_determinant_check(a, t)
    yield lambda: collinearity_determinant_check(a, t, all_triples=True)
    yield lambda: anchored_slope_check_all(a, t)
    for anchor in range(1, n):
        yield lambda anchor=anchor: anchored_slope_check(a, t, anchor)
    yield lambda: bounded_monotone_diagnostic(a, t, max(a), 0.0)
    yield lambda: rate_diagnostic(a, t)
    for skip in (False, True):
        yield lambda skip=skip: lupas_check(a, b, t, p, skip_verify=skip)
        yield lambda skip=skip: pecaric_check(a, b, skip_verify=skip)
        yield lambda skip=skip: hhf_bounds(a, t, p, psi, skip_verify=skip)
        yield lambda skip=skip: niezgoda_bound(a, p, psi, skip_verify=skip)
        yield lambda skip=skip: convex_hhf_bounds(a, p, psi, skip_verify=skip)
        yield lambda skip=skip: majorization_inequality_check(a, t, [mid, mid], [t[0], t[-1]], skip_verify=skip)
        yield lambda skip=skip: integer_majorization_check(a, [2, 2], [1, 3], skip_verify=skip)


def assert_no_verdict_from_non_finite(rep):
    fields = rep._asdict()
    for name, value in fields.items():
        assert not (isinstance(value, float) and math.isnan(value)), (name, rep)
    if "first_violation" in fields:
        assert rep.holds == (rep.first_violation is None), rep
    for name in ("margin", "slack", "slack_lower", "slack_upper"):
        if fields.get(name) == -math.inf:
            assert not rep.holds, rep


@settings(max_examples=200, deadline=None)
@given(
    st.lists(huge, min_size=3, max_size=7),
    st.lists(huge, min_size=7, max_size=7),
    huge,
    st.lists(st.floats(1e-3, 1e300), min_size=6, max_size=6),
    st.lists(st.floats(0.0, 1e3), min_size=7, max_size=7),
    st.sampled_from(["identity", "square", "relu@0", "exp"]),
)
@example(SLOPE_OVERFLOW["a"], [0.0] * 7, 0.0, [1.0] * 6, [1.0] * 7, "identity")
@example(LUPAS_HUGE["a"], LUPAS_HUGE["b"] + [0.0] * 4, 1.0, [1.0] * 6, [1.0] * 7, "identity")
@example(HHF_HUGE["a"], [0.0] * 7, 1.0, [1.0] * 6, [1.0] * 7, "square")
def test_scans_and_engines_never_judge_non_finite_arithmetic(a, b, start, gaps, p, psi_name):
    n = len(a)
    t = witness_from(start, gaps[: n - 1])
    if not all(map(math.isfinite, t)):
        return  # the witness itself left the floats; nothing to judge
    b = b[:n]
    p = p[:n]
    psi = parse_psi(psi_name)
    for call in calls(a, b, t, p, psi):
        try:
            # this property judges verdicts; the map warnings are tested in test_fast_paths.py
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvexMapWarning)
                rep = call()
        except RelConvexError:
            continue  # a precondition not met, or NonFiniteArithmetic
        except OverflowError:
            if psi_name == "exp":
                continue  # math.exp inside the map itself; the CLI reports it as exit 2
            raise  # any other overflow must surface as NonFiniteArithmetic
        if not hasattr(rep, "holds"):
            continue  # rate_diagnostic reports data, not a verdict
        assert_no_verdict_from_non_finite(rep)


# -- lupas_constant: one spread-scaled degeneracy guard ------------------------


def test_lupas_constant_is_translation_safe():
    assert lupas_constant([1e7 + i for i in range(1, 8)]) == pytest.approx(1 / 28, rel=1e-9)
    # from 1e8 on, t_i^2 is no longer exact: a one-pass sum gives 1/24 here, not 1/28
    for offset in (1e8, 3e8, 1e9, 1e12):
        assert lupas_constant([offset + i for i in range(1, 8)]) == pytest.approx(1 / 28, rel=1e-9)


# -- integer_majorization_check: integer indices only ------------------------


def test_integer_majorization_rejects_non_integer_indices():
    a = [4.0, 1.0, 0.0, 2.0, 6.0]
    with pytest.raises(IndexOutOfRange):
        integer_majorization_check(a, [2.5, 3.5], [1.7, 4.9])
    with pytest.raises(IndexOutOfRange):
        integer_majorization_check(a, [2, 3], [1, 4.5])


def test_integer_majorization_accepts_integral_floats():
    a = [4.0, 1.0, 0.0, 2.0, 6.0]
    assert integer_majorization_check(a, [2.0, 3.0, 4.0], [1.0, 3.0, 5.0]) == integer_majorization_check(
        a, [2, 3, 4], [1, 3, 5]
    )


def test_violated_majorization_report_names_its_violation():
    # skip_verify probes a non-convex sequence: 2 a_2 > a_1 + a_3
    rep = integer_majorization_check([0.0, 3.0, 1.0], [2, 2], [1, 3], skip_verify=True)
    assert not rep.holds and rep.first_violation == 1


def test_cli_majorize_rejects_non_integer_indices(capsys, tmp_path):
    payload = {"a": [4, 1, 0, 2, 6], "pvec": [2.5, 3.5], "qvec": [1.7, 4.9]}
    code, report, err = run_cli(capsys, tmp_path, ["majorize"], payload)
    assert code == 2
    assert report["verdict"] == "error"
    assert "not an integer index" in report["margin_or_slacks"]["message"]


# -- WeightVec on the shared validation base ----------------------------------


def test_weightvec_shares_the_float_validation():
    w = WeightVec([1, 2.5, 0])
    assert isinstance(w, _Floats)
    assert w.weights == (1.0, 2.5, 0.0) and w.total == 3.5
    assert len(w) == 3 and list(w) == [1.0, 2.5, 0.0] and w[1] == 2.5
    assert WeightVec.of(w) is w and WeightVec.of([1, 1]).weights == (1.0, 1.0)


def test_weightvec_accepts_one_weight_and_keeps_its_errors():
    assert WeightVec([2.0]).total == 2.0
    with pytest.raises(ZeroTotalWeight):
        WeightVec([])
    with pytest.raises(ZeroTotalWeight):
        WeightVec([0.0])
    with pytest.raises(ValueError, match="weight 2 must be non-negative"):
        WeightVec([1.0, -0.5])
    with pytest.raises(ValueError, match="not finite"):
        WeightVec([1.0, math.inf])
    with pytest.raises(LengthError):
        lupas_check([1.0], [1.0], [1.0], [1.0])
