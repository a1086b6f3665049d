"""The input layer: one length rule with its exact messages, one converter that
rejects what is no ordered sequence of reals, finite data vectors and parameters
everywhere, one index rule, every validation error naming its argument, and
validation done once per input, by the library alone."""

import json
import math
import re

import pytest

from relconvex import (
    IndexOutOfRange,
    LengthMismatch,
    PreconditionViolation,
    RealSeq,
    RelConvexError,
    Tolerance,
    WeightVec,
    Witness,
    anchored_slope_check,
    anchored_slope_check_all,
    bounded_monotone_diagnostic,
    build_extension,
    classify_shape,
    collinearity_determinant_check,
    construct_witness,
    construct_witness_on_interval,
    convex_hhf_bounds,
    cov_functional,
    floor_wrt,
    forward_diff,
    frac_wrt,
    hhf_bounds,
    increment_growth_check,
    integer_majorization_check,
    is_convex,
    is_convex_wrt,
    is_relative_convex,
    lupas_check,
    lupas_constant,
    majorization_inequality_check,
    majorizes,
    make_relu,
    neighbor_chord_check,
    niezgoda_bound,
    parse_psi,
    pecaric_check,
    psi_identity,
    psi_preservation_check,
    rate_diagnostic,
    spot_check_map,
    weighted_mean,
)
from relconvex.cli import main
from relconvex.functionals import unit_weights
from relconvex.oracles import gen_majorized_pair
from relconvex.seqcore import _Floats, unit_witness

A3 = [4.0, 1.0, 0.0]
T3 = [1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: is_convex_wrt([1, 2], T3), "|a| = 2 but |t| = 3"),
        (lambda: weighted_mean([1, 2], [1, 1, 1]), "|x| = 2 but |p| = 3"),
        (lambda: cov_functional([1, 2], T3, [1, 1]), "|x| = 2, |y| = 3, |p| = 2"),
        (lambda: majorizes([1, 2], T3), "|x| = 2 but |y| = 3"),
        (lambda: lupas_check(A3, A3, T3, [1, 1]), "|a| = 3, |b| = 3, |t| = 3, |p| = 2"),
        (lambda: pecaric_check(A3, [1, 2]), "|a| = 3 but |b| = 2"),
        (lambda: hhf_bounds(A3, T3, [1, 1], psi_identity), "|a| = 3, |t| = 3, |p| = 2"),
        (lambda: niezgoda_bound(A3, [1, 1], psi_identity), "|a| = 3 but |p| = 2"),
        (lambda: convex_hhf_bounds(A3, [1, 1, 1, 1], psi_identity), "|a| = 3 but |p| = 4"),
        (lambda: majorization_inequality_check(A3, T3, [2, 2], [2]), "|pvec| = 2 but |qvec| = 1"),
        (lambda: integer_majorization_check(A3, [2, 2], [1, 3, 2]), "|pidx| = 2 but |qidx| = 3"),
    ],
)
def test_length_mismatch_messages(call, message):
    with pytest.raises(LengthMismatch) as err:
        call()
    assert str(err.value) == message


# -- every data vector is finite ----------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_functionals_reject_non_finite_data(bad):
    with pytest.raises(ValueError, match=rf"^entry 1 of 'x' is not finite: {bad!r}$"):
        weighted_mean([bad, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=rf"^entry 2 of 'y' is not finite: {bad!r}$"):
        cov_functional([1.0, 2.0], [0.0, bad], [1.0, 1.0])
    with pytest.raises(ValueError, match=rf"^entry 1 of 'x' is not finite: {bad!r}$"):
        majorizes([bad, 1.0], [1.0, 0.0])


P3 = [1.0, 2.0, 1.0]
# the functions of an (a, t) pair, which they validate by paired(), each with an a it accepts
PAIRED = {
    "is_convex_wrt": (is_convex_wrt, A3),
    "build_extension": (build_extension, A3),
    "neighbor_chord_check": (neighbor_chord_check, A3),
    "increment_growth_check": (increment_growth_check, [0.0, 1.0, 4.0]),
    "collinearity_determinant_check": (collinearity_determinant_check, A3),
    "anchored_slope_check": (lambda a, t: anchored_slope_check(a, t, 1), A3),
    "anchored_slope_check_all": (anchored_slope_check_all, A3),
    "psi_preservation_check": (lambda a, t: psi_preservation_check(a, t, psi_identity), A3),
    "bounded_monotone_diagnostic": (lambda a, t: bounded_monotone_diagnostic(a, t, 10.0, 0.0), A3),
    "rate_diagnostic": (rate_diagnostic, A3),
}

# each vector argument: (the call on it with the other arguments valid, the name its errors
# give, a valid value); direct construction and the unvalidated vectors have no name
CONVERTERS = {
    "RealSeq": (RealSeq, None, A3),
    "Witness.of": (Witness.of, None, T3),
    "WeightVec": (WeightVec, None, P3),
    "spot_check_map": (lambda x: spot_check_map(psi_identity, x), None, A3),
    "gen_majorized_pair": (lambda x: gen_majorized_pair(x, 2, 0), None, A3),
    "forward_diff a": (forward_diff, "a", A3),
    "is_convex": (is_convex, "a", A3),
    "classify_shape a": (classify_shape, "a", A3),
    "is_relative_convex a": (is_relative_convex, "a", A3),
    "construct_witness a": (lambda x: construct_witness(x, [-2.0, -1.0]), "a", A3),
    "construct_witness s": (lambda x: construct_witness(A3, x), "s", [-2.0, -1.0]),
    "construct_witness_on_interval a": (lambda x: construct_witness_on_interval(x, 0.0, 1.0), "a", A3),
    **{f"{k} a": (lambda x, f=f: f(x, T3), "a", a) for k, (f, a) in PAIRED.items()},
    **{f"{k} t": (lambda x, f=f, a=a: f(a, x), "t", T3) for k, (f, a) in PAIRED.items()},
    "floor_wrt t": (lambda x: floor_wrt(x, 2.0), "t", T3),
    "frac_wrt t": (lambda x: frac_wrt(x, 2.0), "t", T3),
    "weighted_mean x": (lambda x: weighted_mean(x, P3), "x", A3),
    "weighted_mean p": (lambda x: weighted_mean(A3, x), "p", P3),
    "cov_functional": (lambda x: cov_functional(x, T3, P3), "x", A3),
    "cov_functional y": (lambda x: cov_functional(A3, x, P3), "y", T3),
    "cov_functional p": (lambda x: cov_functional(A3, T3, x), "p", P3),
    "lupas_constant t": (lupas_constant, "t", T3),
    "majorizes x": (lambda x: majorizes(x, [1.0, 3.0]), "x", [2.0, 2.0]),
    "majorizes y": (lambda x: majorizes([2.0, 2.0], x), "y", [1.0, 3.0]),
    "lupas_check a": (lambda x: lupas_check(x, A3, T3, P3), "a", A3),
    "lupas_check b": (lambda x: lupas_check(A3, x, T3, P3), "b", A3),
    "lupas_check t": (lambda x: lupas_check(A3, A3, x, P3), "t", T3),
    "lupas_check p": (lambda x: lupas_check(A3, A3, T3, x), "p", P3),
    "pecaric_check a": (lambda x: pecaric_check(x, A3), "a", A3),
    "pecaric_check b": (lambda x: pecaric_check(A3, x), "b", A3),
    "hhf_bounds a": (lambda x: hhf_bounds(x, T3, P3, psi_identity), "a", A3),
    "hhf_bounds t": (lambda x: hhf_bounds(A3, x, P3, psi_identity), "t", T3),
    "hhf_bounds p": (lambda x: hhf_bounds(A3, T3, x, psi_identity), "p", P3),
    "niezgoda_bound a": (lambda x: niezgoda_bound(x, P3, psi_identity), "a", A3),
    "niezgoda_bound p": (lambda x: niezgoda_bound(A3, x, psi_identity), "p", P3),
    "convex_hhf_bounds a": (lambda x: convex_hhf_bounds(x, P3, psi_identity), "a", A3),
    "convex_hhf_bounds p": (lambda x: convex_hhf_bounds(A3, x, psi_identity), "p", P3),
    "majorization_inequality_check a": (lambda x: majorization_inequality_check(x, T3, [2.0, 2.0], [1.0, 3.0]),
                                        "a", A3),
    "majorization_inequality_check t": (lambda x: majorization_inequality_check(A3, x, [2.0, 2.0], [1.0, 3.0]),
                                        "t", T3),
    "majorization_inequality_check pvec": (lambda x: majorization_inequality_check(A3, T3, x, [1.0, 3.0]),
                                           "pvec", [2.0, 2.0]),
    "majorization_inequality_check qvec": (lambda x: majorization_inequality_check(A3, T3, [2.0, 2.0], x),
                                           "qvec", [1.0, 3.0]),
    "integer_majorization_check a": (lambda x: integer_majorization_check(x, [2, 2], [1, 3]), "a", A3),
    "integer_majorization_check pidx": (lambda x: integer_majorization_check(A3, x, [1, 3]), "pidx", [2, 2]),
    "integer_majorization_check qidx": (lambda x: integer_majorization_check(A3, [2, 2], x), "qidx", [1, 3]),
}


@pytest.mark.parametrize("name", sorted(CONVERTERS))
@pytest.mark.parametrize("bad", [
    Tolerance(), "123", b"12", bytearray(b"12"), {3.0, 1.0, 2.0}, frozenset({1.0, 2.0, 3.0}),
    {3: 1, 1: 2, 2: 3},
], ids=lambda bad: type(bad).__name__)
def test_an_input_that_is_no_ordered_sequence_of_reals_is_a_type_error(name, bad):
    # a record, text, bytes, a set or a mapping iterates, but not as the entries of a sequence
    call, arg, _ = CONVERTERS[name]
    named = "" if arg is None else f" as {arg!r}"
    with pytest.raises(TypeError, match=rf"^expected an ordered sequence of reals{named}, got {type(bad).__name__}$"):
        call(bad)


def names(message: str, arg: str) -> bool:
    """Whether ``message`` names the argument ``arg``: as 'a' or |a|, or, about one entry, as a[k] first.
    A NaN in a witness is the exception: the gap rule speaks first, and says t[k] whatever the name."""
    return f"'{arg}'" in message or f"|{arg}|" in message or message.startswith(f"{arg}[") or (
        arg == "t" and re.fullmatch(r"gap t\[\d+\] - t\[\d+\] = nan is not above .+", message) is not None)


BAD = {
    "nan": lambda good: [*good[:-1], math.nan],
    "inf": lambda good: [*good[:-1], math.inf],
    "single": lambda good: good[:1],
    "huge_int": lambda good: [*good[:-1], 10**400],
    "string": lambda good: [*good[:-1], "x"],
}


@pytest.mark.parametrize("name", sorted(k for k, (_, arg, _) in CONVERTERS.items() if arg))
@pytest.mark.parametrize("bad", BAD)
def test_every_validation_error_names_its_argument(name, bad):
    call, arg, good = CONVERTERS[name]
    call(good)
    with pytest.raises((RelConvexError, ValueError, TypeError)) as err:
        call(BAD[bad](good))
    assert names(str(err.value), arg), str(err.value)


@pytest.mark.parametrize("values, message", [
    ([10**400, 1.0, 2.0], "entry 1 of 'a' is not finite: inf"),
    ([1.0, -(10**400), 2.0], "entry 2 of 'a' is not finite: -inf"),
    ([1.0, 2.0, None], "entry 3 of 'a' is not a number: None"),
])
def test_an_entry_that_no_float_holds_is_named(values, message):
    with pytest.raises(ValueError if "finite" in message else TypeError) as err:
        RealSeq(values, "a")
    assert str(err.value) == message
    # an unnamed vector gives the same words without its name
    with pytest.raises(type(err.value), match=rf"^{message.replace(' of ' + repr('a'), '')}$"):
        RealSeq(values)


@pytest.mark.parametrize("values, message", [
    ([1.0, math.inf, -math.inf], "entry 2 of 'a' is not finite: inf"),
    ([1e308, 1e308, math.nan], "entry 3 of 'a' is not finite: nan"),
    ([-math.inf, 1e308, 1e308], "entry 1 of 'a' is not finite: -inf"),
])
def test_the_one_sum_screen_names_the_first_non_finite_entry(values, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        RealSeq(values, "a")


@pytest.mark.parametrize("make, values", [
    (RealSeq, [1e308, 1e308, 1.0]),
    (RealSeq, [-1e308, -1e308, 1.0]),
    (Witness, [1e308, 1.5e308, 1.7e308]),
])
def test_finite_entries_whose_sum_overflows_are_accepted(make, values):
    assert make(values, "a").values == tuple(values)


@pytest.mark.parametrize("make", [
    lambda: [1, 2, 4], lambda: (1.0, 2.0, 4.0), lambda: (v for v in (1, 2, 4)), lambda: range(1, 5, 1),
], ids=["list", "tuple", "generator", "range"])
def test_lists_tuples_generators_and_ranges_are_read_as_sequences(make):
    want = tuple(float(v) for v in make())
    assert RealSeq(make()).values == Witness.of(make()).values == WeightVec(make()).values == want


def test_index_vectors_are_read_as_reals():
    # each entry goes through float, as in every other vector
    a = [4.0, 1.0, 0.0, 2.0, 6.0]
    assert integer_majorization_check(a, ["2", "2"], [1, 3]) == integer_majorization_check(a, [2, 2], [1, 3])


def test_numpy_arrays_are_read_as_sequences():
    np = pytest.importorskip("numpy")
    assert RealSeq(np.array([1.0, 2.0, 4.0])) == RealSeq([1.0, 2.0, 4.0])
    assert is_convex(np.array([3.0, 1.0, 2.0])).holds


@pytest.mark.parametrize("schedule, message", [
    ([math.nan, 1.0], "entry 1 of 's' is not finite: nan"),
    ([-1.0, math.inf], "entry 2 of 's' is not finite: inf"),
])
def test_a_non_finite_schedule_entry_is_named(schedule, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        construct_witness([3, 1, 2], schedule)


@pytest.mark.parametrize("t1", [math.nan, math.inf, -math.inf])
def test_a_non_finite_start_is_named(t1):
    with pytest.raises(ValueError, match=rf"^t1 must be finite, got {t1!r}$"):
        construct_witness([3, 1, 2], [-1.0, 1.0], t1=t1)


@pytest.mark.parametrize("make", [make_relu, lambda c: parse_psi(f"relu@{c!r}")])
@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_a_non_finite_relu_threshold_is_a_value_error(make, c):
    with pytest.raises(ValueError, match=rf"^relu threshold must be finite, got {c!r}$"):
        make(c)


@pytest.mark.parametrize("argv, payload, message", [
    (["hhf", "--psi", "relu@nan"], '{"a": [4, 1, 0, 2, 6], "t": [1, 2, 3, 4, 5]}',
     "relu threshold must be finite, got nan"),
    (["witness"], '{"a": [3, 1, 2], "s": [NaN, 1]}', "entry 1 of 's' is not finite: nan"),
    (["witness"], '{"a": [3, 1, 2], "s": [-1, Infinity]}', "entry 2 of 's' is not finite: inf"),
    (["witness", "--t1", "nan"], '{"a": [3, 1, 2]}', "t1 must be finite, got nan"),
])
def test_cli_names_a_non_finite_parameter(capsys, tmp_path, argv, payload, message):
    path = tmp_path / "in.json"
    path.write_text(payload)
    assert main([*argv, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["margin_or_slacks"]["message"] == message
    assert captured.err == f"error: {message}\n"


def test_nan_pvec_lies_outside_the_witness_range():
    with pytest.raises(PreconditionViolation, match=r"^pvec\[2\] = nan lies outside the witness range"):
        majorization_inequality_check(A3, T3, [2.0, math.nan], [1.0, 3.0])


@pytest.mark.parametrize("bad, shown", [
    (None, "None"), ("x", "'x'"), (10**400, "inf"), (-(10**400), "-inf"), (10**5000, "inf"),
    (2.5, "2.5"), ("2.5", None), (math.nan, "nan"), (0, None), (9, None),
], ids=["None", "x", "huge", "-huge", "huge_5000_digits", "2.5", "'2.5'", "nan", "0", "9"])
def test_one_index_rule_for_anchors_and_index_vectors(bad, shown):
    # 2, 2.0 and "2" are one index; anything else is IndexOutOfRange naming the anchor or pidx[k],
    # an integer beyond float range (whose repr may exceed the digit limit) as the inf it reads as
    a, t = [4.0, 1.0, 0.0, 2.0, 6.0], [1.0, 2.0, 3.0, 4.0, 5.0]
    assert anchored_slope_check(a, t, "2") == anchored_slope_check(a, t, 2.0) == anchored_slope_check(a, t, 2)
    shown = ".+" if shown is None else re.escape(shown)
    with pytest.raises(IndexOutOfRange, match=rf"^anchor {shown} is not an integer index in 1\.\.4$"):
        anchored_slope_check(a, t, bad)
    with pytest.raises(IndexOutOfRange, match=rf"^pidx\[2\] = {shown} is not an integer index in 1\.\.5$"):
        integer_majorization_check(a, [2, bad], [1, 3])


# -- validation happens once ---------------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """Counts validated objects: every RealSeq, Witness and WeightVec runs _Floats.__post_init__."""
    count = [0]
    validate = _Floats.__post_init__

    def counting(self, name=None):
        count[0] += 1
        validate(self, name)

    monkeypatch.setattr(_Floats, "__post_init__", counting)
    return count


A5 = [4.0, 1.0, 0.0, 2.0, 6.0]
B5 = [9.0, 4.0, 1.0, 0.0, 1.0]
T5 = [1.0, 2.0, 3.0, 4.0, 5.0]
P5 = [1.0, 2.0, 3.0, 2.0, 1.0]


@pytest.mark.parametrize(
    "engine, args, from_lists, from_objects",
    [
        # one object per list argument
        (lupas_check, (A5, B5, T5, P5), 4, 0),
        (pecaric_check, (A5, B5), 2, 0),
        (hhf_bounds, (A5, T5, P5, psi_identity), 3, 0),
        (niezgoda_bound, (A5, P5, psi_identity), 2, 0),
        (convex_hhf_bounds, (A5, P5, psi_identity), 2, 0),
        # the point vectors are converted and range-checked, not validated again to be majorized
        (majorization_inequality_check, (A5, T5, [2.0, 3.0], [1.0, 4.0]), 2, 0),
        (integer_majorization_check, (A5, [2, 3], [1, 4]), 1, 0),
    ],
)
def test_engines_validate_each_input_once(built, engine, args, from_lists, from_objects):
    # the cached unit witness and uniform weights are built once per n, not per call
    unit_witness(len(A5))
    unit_weights(len(A5))
    built[0] = 0
    engine(*args)
    assert built[0] == from_lists
    types = {id(A5): RealSeq, id(B5): RealSeq, id(T5): Witness, id(P5): WeightVec}
    validated = [types[id(v)](v) if id(v) in types else v for v in args]
    built[0] = 0
    engine(*validated)
    assert built[0] == from_objects


@pytest.mark.parametrize(
    "argv, payload, objects",
    [
        (["diagnose"], {"a": A5, "t": T5}, 2),
        # a, the schedule and the witness built from it
        (["witness"], {"a": A5}, 3),
        (["subdivide", "--alpha", "0", "--beta", "1"], {"a": A5}, 2),
    ],
)
def test_cli_validates_each_input_once(built, capsys, tmp_path, argv, payload, objects):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    assert main(argv + ["--input", str(path)]) == 0
    capsys.readouterr()
    assert built[0] == objects


# -- the CLI input boundary ----------------------------------------------------


@pytest.mark.parametrize(
    "payload, message",
    [
        ('{"a": [null, 1, 2]}', "entry 1 of 'a' is not a number: null"),
        # every JSON number is read as a float, nested ones too
        ('{"a": [[1], 2, 3]}', "entry 1 of 'a' is not a number: [1.0]"),
        ('{"a": [0, 1, 2], "t": [0, {"x": 1}, 2]}', "entry 2 of 't' is not a number: {\"x\": 1.0}"),
        # JSON booleans and numeric strings are not numbers
        ('{"a": [true, 1, 2]}', "entry 1 of 'a' is not a number: true"),
        ('{"a": [4, 1, false]}', "entry 3 of 'a' is not a number: false"),
        ('{"a": ["4", "1", "0"]}', "entry 1 of 'a' is not a number: \"4\""),
        ('{"a": [NaN, 1, 2]}', "entry 1 of 'a' is not finite: nan"),
        # a repeated key would silently drop one of the two sequences
        ('{"a": [1, 2, 4], "a": [5, 3, 1]}', "input name 'a' appears twice"),
    ],
)
def test_cli_non_numeric_json_entry_is_an_error_report(capsys, tmp_path, payload, message):
    path = tmp_path / "in.json"
    path.write_text(payload)
    assert main(["classify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["verdict"] == "error"
    assert report["margin_or_slacks"]["message"] == message
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # rows are numbered as in the file, the header being row 1
        ("a,t\n4,1\nx,2\n", "row 3 of column 'a' is not a number: 'x'"),
        ("a, t\n4,1\n\n1,2\n0,three\n", "row 5 of column 't' is not a number: 'three'"),
        ("a,t\n4,1\n1,2,3\n", "row 3 has more cells than the header has names"),
        # the library judges finiteness, by the entry's position in its column
        ("a,t\nnan,1\n4,2\n", "entry 1 of 'a' is not finite: nan"),
        # a column ends at its first blank cell, so no later cell shifts up into its place
        ("a,t\n4,1\n,2\n0,3\n2,\n6,5\n", "row 4 of column 'a' lies below a blank cell"),
        ("a,t\n4,1\n1,2\n0,\n2,4\n", "row 5 of column 't' lies below a blank cell"),
        # a repeated name would silently drop one of the two columns
        ("a,a\n1,5\n2,3\n4,1\n", "input name 'a' appears twice"),
        ("a, a \n1,5\n", "input name 'a' appears twice"),
    ],
    ids=["bad_cell", "after_a_blank_line", "extra_cell", "non_finite_cell", "value_below_a_blank",
         "value_below_a_short_row", "duplicate_name", "duplicate_after_strip"],
)
def test_cli_bad_csv_cell_names_its_column_and_row(capsys, tmp_path, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert main(["classify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["margin_or_slacks"]["message"] == message
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        # trailing blank cells leave pvec and qvec shorter than a
        (["majorize"], "a,pvec,qvec\n4,2,1\n1,2,3\n0,,\n2,,\n6,,\n"),
        # trailing commas, as spreadsheet exports write them, give blank names that may repeat
        (["check", "--wrt"], "a,t,,\n4,1,,\n1,2,,\n0,3,,\n2,4,,\n6,5,,\n"),
    ],
    ids=["short_columns", "blank_names"],
)
def test_cli_csv_blanks_that_stay_valid(capsys, tmp_path, argv, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert main(argv + ["--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["parameters"]["a"] == [4.0, 1.0, 0.0, 2.0, 6.0]


# the vectors each command reads, valid; NaN in one of them is an error report naming it
READS = {
    ("classify",): {"a": A5},
    ("check",): {"a": A5},
    ("check", "--wrt"): {"a": A5, "t": T5},
    ("witness",): {"a": A5, "s": [-2.0, -1.0, 1.0, 2.0]},
    ("subdivide", "--alpha", "0", "--beta", "1"): {"a": A5},
    ("extend",): {"a": A5, "t": T5},
    ("lupas",): {"a": A5, "b": B5, "t": T5, "p": P5},
    ("pecaric",): {"a": A5, "b": B5},
    ("hhf",): {"a": A5, "t": T5, "p": P5},
    ("niezgoda",): {"a": A5, "p": P5},
    ("hhf-convex",): {"a": A5, "p": P5},
    ("majorize",): {"a": A5, "t": T5, "pvec": [2.5, 3.5], "qvec": [1.5, 4.5]},
    ("majorize", "index"): {"a": A5, "pvec": [2.0, 3.0], "qvec": [1.0, 4.0]},
    ("diagnose",): {"a": A5, "t": T5},
}


@pytest.mark.parametrize("command, vector", [(c, v) for c, payload in READS.items() for v in payload],
                         ids=lambda x: " ".join(x) if isinstance(x, tuple) else x)
def test_cli_judges_each_vector_a_command_reads(capsys, tmp_path, command, vector):
    payload = dict(READS[command])
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    argv = [arg for arg in command if arg != "index"] + ["--input", str(path), "--output", str(tmp_path / "out")]
    assert main(argv) == 0
    payload[vector] = [*payload[vector][:-1], math.nan]
    path.write_text(json.dumps(payload))
    assert main(argv) == 2
    message = capsys.readouterr().err.removeprefix("error: ").rstrip("\n")
    assert names(message, vector), message


def test_cli_echoes_a_vector_the_command_does_not_read(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text('{"a": [4, 1, 0], "b": [4, 1, 0], "t": [1, 2, 3], "qvec": [NaN]}')
    assert main(["lupas", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["parameters"]["qvec"] == [None]
