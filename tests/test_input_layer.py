"""The input layer: one length rule with its exact messages, one converter that
rejects what is no ordered sequence of reals, finite data vectors and parameters
everywhere, and validation done once per input."""

import json
import math

import pytest

from relconvex import (
    LengthMismatch,
    PreconditionViolation,
    RealSeq,
    Tolerance,
    WeightVec,
    Witness,
    construct_witness,
    convex_hhf_bounds,
    cov_functional,
    hhf_bounds,
    integer_majorization_check,
    is_convex,
    is_convex_wrt,
    lupas_check,
    majorization_inequality_check,
    majorizes,
    make_relu,
    niezgoda_bound,
    parse_psi,
    pecaric_check,
    psi_identity,
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
        (lambda: integer_majorization_check(A3, [2, 2], [1, 3, 2]), "|pvec| = 2 but |qvec| = 3"),
    ],
)
def test_length_mismatch_messages(call, message):
    with pytest.raises(LengthMismatch) as err:
        call()
    assert str(err.value) == message


# -- every data vector is finite ----------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_functionals_reject_non_finite_data(bad):
    with pytest.raises(ValueError, match=rf"^entry 1 is not finite: {bad!r}$"):
        weighted_mean([bad, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=rf"^entry 2 is not finite: {bad!r}$"):
        cov_functional([1.0, 2.0], [0.0, bad], [1.0, 1.0])
    with pytest.raises(ValueError, match=rf"^entry 1 is not finite: {bad!r}$"):
        majorizes([bad, 1.0], [1.0, 0.0])


CONVERTERS = {
    "RealSeq": RealSeq,
    "Witness.of": Witness.of,
    "WeightVec": WeightVec,
    "is_convex": is_convex,
    "cov_functional": lambda x: cov_functional(x, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]),
    "majorization_inequality_check pvec": lambda x: majorization_inequality_check(A3, T3, x, [1.0, 3.0]),
    "majorization_inequality_check qvec": lambda x: majorization_inequality_check(A3, T3, [2.0, 2.0], x),
    "integer_majorization_check pidx": lambda x: integer_majorization_check(A3, x, [1, 3]),
    "integer_majorization_check qidx": lambda x: integer_majorization_check(A3, [2, 2], x),
    "spot_check_map": lambda x: spot_check_map(psi_identity, x),
    "gen_majorized_pair": lambda x: gen_majorized_pair(x, 2, 0),
}


@pytest.mark.parametrize("name", sorted(CONVERTERS))
@pytest.mark.parametrize("bad", [
    Tolerance(), "123", b"12", bytearray(b"12"), {3.0, 1.0, 2.0}, frozenset({1.0, 2.0, 3.0}),
    {3: 1, 1: 2, 2: 3},
], ids=lambda bad: type(bad).__name__)
def test_an_input_that_is_no_ordered_sequence_of_reals_is_a_type_error(name, bad):
    # a record, text, bytes, a set or a mapping iterates, but not as the entries of a sequence
    with pytest.raises(TypeError, match=rf"^expected an ordered sequence of reals, got {type(bad).__name__}$"):
        CONVERTERS[name](bad)


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
    ([math.nan, 1.0], "entry 1 is not finite: nan"),
    ([-1.0, math.inf], "entry 2 is not finite: inf"),
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


# -- validation happens once ---------------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """Counts validated objects: every RealSeq, Witness and WeightVec runs _Floats.__post_init__."""
    count = [0]
    validate = _Floats.__post_init__

    def counting(self):
        count[0] += 1
        validate(self)

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
        (majorization_inequality_check, (A5, T5, [2.0, 3.0], [1.0, 4.0]), 4, 2),
        (integer_majorization_check, (A5, [2, 3], [1, 4]), 3, 2),
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
        (["witness"], {"a": A5}, 2),
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
        ('{"a": [[1], 2, 3]}', "entry 1 of 'a' is not a number: [1]"),
        ('{"a": [0, 1, 2], "t": [0, {"x": 1}, 2]}', "entry 2 of 't' is not a number: {\"x\": 1}"),
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
        ("a,t\nnan,1\n4,2\n", "row 2 of column 'a' is not finite: 'nan'"),
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
