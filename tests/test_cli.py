"""CLI surface tests: report schema, exit codes, formats, idempotence."""

import io
import json
import math
import warnings

import pytest

from relconvex.cli import main

SCHEMA_KEYS = {"command", "verdict", "margin_or_slacks", "parameters", "tolerance", "version"}


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_check_wrt_log_pair(tmp_path, capsys):
    payload = {
        "a": [math.log(i) for i in range(3, 101)],
        "t": [math.log(math.log(i)) for i in range(3, 101)],
    }
    path = write_json(tmp_path, "logs.json", payload)
    code, out = run_cli(capsys, ["check", "--wrt", "--input", path])
    report = json.loads(out)
    assert code == 0
    assert report["verdict"] == "holds"
    assert set(report) == SCHEMA_KEYS


def test_classify_rejected_profile_exits_one(tmp_path, capsys):
    a = [math.sqrt(abs(n - 3)) + math.sqrt(abs(n - 9)) for n in range(1, 13)]
    path = write_json(tmp_path, "sum.json", {"a": a})
    code, out = run_cli(capsys, ["classify", "--input", path])
    assert code == 1
    assert json.loads(out)["verdict"] == "not_strictly_v_shaped"


def test_hhf_report_values(tmp_path, capsys):
    path = write_json(tmp_path, "hhf.json", {"a": [4, 1, 0, 2, 6], "t": [1, 2, 3, 4, 5]})
    code, out = run_cli(capsys, ["hhf", "--input", path])
    report = json.loads(out)
    assert code == 0
    slacks = report["margin_or_slacks"]
    assert slacks["lower"] == pytest.approx(0.0)
    assert slacks["value"] == pytest.approx(2.6)
    assert slacks["upper"] == pytest.approx(5.0)


def test_exit_codes_cover_all_three(tmp_path, capsys):
    good = write_json(tmp_path, "good.json", {"a": [4, 1, 0, 2, 6]})
    bad = write_json(tmp_path, "bad.json", {"a": [0, 3, 1]})
    assert run_cli(capsys, ["check", "--input", good])[0] == 0
    assert run_cli(capsys, ["check", "--input", bad])[0] == 1
    missing = write_json(tmp_path, "missing.json", {"b": [1, 2, 3]})
    assert run_cli(capsys, ["check", "--input", missing])[0] == 2


def test_report_idempotent(tmp_path, capsys):
    path = write_json(tmp_path, "m.json", {"a": [4, 1, 0, 2, 6], "pvec": [2, 3, 4], "qvec": [1, 3, 5]})
    _, first = run_cli(capsys, ["majorize", "--input", path, "--seed", "7"])
    _, second = run_cli(capsys, ["majorize", "--input", path, "--seed", "7"])
    assert first == second


def test_csv_input(tmp_path, capsys):
    path = tmp_path / "cols.csv"
    path.write_text("a,t\n4,1\n1,2\n0,3\n2,4\n6,5\n")
    code, out = run_cli(capsys, ["check", "--wrt", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["verdict"] == "holds"


def test_extend_csv_stdout(tmp_path, capsys):
    path = write_json(tmp_path, "e.json", {"a": [0, 1, 3], "t": [0, 1, 2]})
    code, out = run_cli(capsys, ["extend", "--input", path, "--resolution", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 6
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0 and float(last[0]) == 2.0
    assert float(last[1]) == 3.0


def test_extend_csv_to_file_emits_report(tmp_path, capsys):
    inp = write_json(tmp_path, "e.json", {"a": [0, 1, 3], "t": [0, 1, 2]})
    dest = tmp_path / "samples.csv"
    code, out = run_cli(capsys, ["extend", "--input", inp, "--output", str(dest), "--resolution", "9"])
    assert code == 0
    report = json.loads(out)
    assert report["margin_or_slacks"]["samples"] == 9
    assert dest.read_text().startswith("x,value\n")


def test_witness_and_subdivide(tmp_path, capsys):
    path = write_json(tmp_path, "w.json", {"a": [5, 3, 1, 1, 2, 4]})
    code, out = run_cli(capsys, ["witness", "--input", path, "--t1", "-1.0"])
    assert code == 0
    wit = json.loads(out)["margin_or_slacks"]["witness"]
    assert wit[0] == -1.0 and all(x < y for x, y in zip(wit, wit[1:]))

    code, out = run_cli(capsys, ["subdivide", "--input", path, "--alpha", "0", "--beta", "1"])
    assert code == 0
    wit = json.loads(out)["margin_or_slacks"]["witness"]
    assert wit[0] == 0.0 and wit[-1] == 1.0


def test_witness_of_a_rejected_profile_is_an_error(tmp_path, capsys):
    # no default schedule fits a non-V profile; construct_witness names the shape
    path = write_json(tmp_path, "w.json", {"a": [1, 3, 2]})
    code, out = run_cli(capsys, ["witness", "--input", path])
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "error"
    assert "not strictly V-shaped" in report["margin_or_slacks"]["message"]


def test_witness_with_an_empty_schedule_is_an_error(tmp_path, capsys):
    # an explicit empty s is a schedule with no entries, not a request for the default one
    path = write_json(tmp_path, "w.json", {"a": [3, 1, 2], "s": []})
    code, out = run_cli(capsys, ["witness", "--input", path])
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "error"
    assert report["margin_or_slacks"]["message"] == (
        "slope schedule 's' exhausted at step 1: need one entry per strict step")


def test_witness_whose_recursion_overflows_names_the_schedule(tmp_path, capsys):
    # the schedule's -2 / -1e-308 overflows: the error names s, not the gaps of a t never passed
    path = write_json(tmp_path, "w.json", {"a": [3, 1, 2], "s": [-1e-308, 1e-308]})
    code, out = run_cli(capsys, ["witness", "--input", path])
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "error"
    assert report["margin_or_slacks"]["message"] == (
        "entry 1 of 's' = -1e-308 overflows the slope recursion at step 1: 0.0 + -2.0 / -1e-308 = inf")


def test_witness_whose_recursion_absorbs_a_step_names_the_plateau_step(tmp_path, capsys):
    # at t = 2e16 the plateau step 1.0 rounds away: the error names that step, not a gap of t
    path = write_json(tmp_path, "w.json", {"a": [3, 1, 1, 2], "s": [-1e-16, 1e-16]})
    code, out = run_cli(capsys, ["witness", "--input", path])
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "error"
    assert report["margin_or_slacks"]["message"] == (
        "the plateau step 1.0 leaves step 2 of the slope recursion within the strictness tolerance "
        "1e-09: 2e+16 + 1.0 = 2e+16, a step of 0.0")


def test_report_to_output_file(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", {"a": [4, 1, 0, 2, 6]})
    dest = tmp_path / "report.json"
    code, out = run_cli(capsys, ["check", "--input", path, "--output", str(dest)])
    assert code == 0 and out == ""
    text = dest.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    report = json.loads(text)
    assert set(report) == SCHEMA_KEYS and report["verdict"] == "holds"


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    # a coarse absolute tolerance flattens this wobble into a plateau
    path = write_json(tmp_path, "tol.json", {"a": [1.0, 1.0 + 1e-6, 1.0, 2.0]})
    code, _ = run_cli(capsys, ["classify", "--input", path])
    assert code == 1
    monkeypatch.setenv("RELCONVEX_TOL_ABS", "1e-4")
    code, out = run_cli(capsys, ["classify", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "const_then_inc"
    assert report["tolerance"]["abs"] == 1e-4


def test_lupas_pecaric_commands(tmp_path, capsys):
    path = write_json(
        tmp_path,
        "lp.json",
        {"a": [4, 1, 0, 2, 6], "b": [9, 4, 1, 0, 1], "t": [1, 2, 3, 4, 5]},
    )
    code, out = run_cli(capsys, ["lupas", "--input", path])
    assert code == 0 and json.loads(out)["margin_or_slacks"]["slack"] >= 0
    code, out = run_cli(capsys, ["pecaric", "--input", path])
    assert code == 0


def test_majorize_witness_mode(tmp_path, capsys):
    path = write_json(
        tmp_path,
        "mw.json",
        {"a": [4, 1, 0, 2, 6], "t": [1, 2, 3, 4, 5], "pvec": [2.5, 3.0], "qvec": [2.0, 3.5]},
    )
    code, out = run_cli(capsys, ["majorize", "--input", path])
    assert code == 0
    assert json.loads(out)["margin_or_slacks"]["margin"] >= -1e-9


def test_diagnose_and_fuzz(tmp_path, capsys):
    path = write_json(tmp_path, "d.json", {"a": [4, 1, 0, 2, 6], "t": [1, 2, 3, 4, 5]})
    code, out = run_cli(capsys, ["diagnose", "--input", path])
    assert code == 0
    assert json.loads(out)["margin_or_slacks"]["agree"] is True

    code, out = run_cli(capsys, ["fuzz", "--trials", "25", "--seed", "3"])
    report = json.loads(out)
    assert code == 0
    assert report["margin_or_slacks"]["violations"] == 0


@pytest.mark.parametrize("trials", ["-2", "-1", "2.5", "many"])
def test_fuzz_trials_must_be_a_non_negative_integer(capsys, trials):
    with pytest.raises(SystemExit) as exit_info:
        main(["fuzz", "--trials", trials])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --trials" in err and "Traceback" not in err


def test_fuzz_rejects_a_negative_seed(capsys):
    # random.Random(-3) would silently replay seed 3
    code, out = run_cli(capsys, ["fuzz", "--trials", "3", "--seed", "-3"])
    report = json.loads(out)
    assert code == 2 and report["verdict"] == "error"
    assert report["margin_or_slacks"]["message"] == "seed must be a non-negative integer, got -3"
    code, out = run_cli(capsys, ["fuzz", "--trials", "0"])
    assert code == 0 and json.loads(out)["margin_or_slacks"]["trials"] == 0


def test_niezgoda_and_convex_hhf_commands(tmp_path, capsys):
    path = write_json(tmp_path, "n.json", {"a": [4, 1, 0, 2, 6], "p": [1, 2, 3, 2, 1]})
    for cmd in ("niezgoda", "hhf-convex"):
        code, out = run_cli(capsys, [cmd, "--input", path, "--psi", "relu@0.5"])
        assert code == 0
        assert json.loads(out)["verdict"] == "holds"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--psi", "exp"],
        ["classify", "--psi", "bogus", "--resolution", "1", "--skip-verify"],
        ["check", "--skip-verify"],
        ["diagnose", "--resolution", "9"],
        ["lupas", "--psi", "exp"],
        ["extend", "--skip-verify"],
        ["majorize", "--resolution", "9"],
    ],
)
def test_a_flag_is_rejected_where_no_call_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--input", "-"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_each_flag_is_taken_where_its_call_reads_it():
    from relconvex.cli import COMMANDS, build_parser

    parser = build_parser()
    takers = {"--skip-verify": {"lupas", "pecaric", "hhf", "niezgoda", "hhf-convex", "majorize"},
              "--psi": {"hhf", "niezgoda", "hhf-convex"},
              "--resolution": {"extend"}}
    for flag, names in takers.items():
        assert {name for name, command in COMMANDS.items() if flag in dict(command.flags)} == names
        for name in names:
            argv = [name, flag] if flag == "--skip-verify" else [name, flag, "7"]
            assert parser.parse_args(argv).command == name


def test_an_error_report_names_the_tolerance_the_command_ran_at(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path, "bad.json", {"a": [0, 3, 1, 4], "b": [9, 4, 1, 0]})
    code, out = run_cli(capsys, ["pecaric", "--input", path, "--tol-abs", "1e-4", "--tol-rel", "1e-6"])
    report = json.loads(out)
    assert code == 2 and report["margin_or_slacks"]["message"].startswith("a is not convex")
    assert report["tolerance"] == {"abs": 1e-4, "rel": 1e-6}
    monkeypatch.setenv("RELCONVEX_TOL_ABS", "1e-3")
    assert json.loads(run_cli(capsys, ["pecaric", "--input", path])[1])["tolerance"]["abs"] == 1e-3
    # a tolerance that cannot be built is reported with the default one
    code, out = run_cli(capsys, ["pecaric", "--input", path, "--tol-abs", "-1"])
    report = json.loads(out)
    assert code == 2 and report["margin_or_slacks"]["message"].startswith("tolerance components must be finite")
    assert report["tolerance"] == {"abs": 1e-9, "rel": 1e-12}
    monkeypatch.setenv("RELCONVEX_TOL_ABS", "coarse")
    code, out = run_cli(capsys, ["pecaric", "--input", path])
    report = json.loads(out)
    assert code == 2 and report["margin_or_slacks"]["message"].endswith("to float: 'coarse'")
    assert report["tolerance"] == {"abs": 1e-9, "rel": 1e-12}


@pytest.mark.parametrize(
    "argv, keys, value",
    [
        (["subdivide", "--alpha", "-1e5", "--beta", "1"], ("parameters", "alpha"), -1e5),
        (["subdivide", "--alpha", "-2", "--beta", "-1E-3"], ("parameters", "beta"), -1e-3),
        (["subdivide", "--alp", "-1e5", "--be", "1"], ("parameters", "alpha"), -1e5),  # abbreviated flags
        (["subdivide", "--alpha=-1e5", "--beta", "1"], ("parameters", "alpha"), -1e5),
        (["witness", "--t1", "-2.5e3"], ("margin_or_slacks", "witness", 0), -2.5e3),
        (["witness", "--t1", "-1", "--tol-abs", "-0e0"], ("tolerance", "abs"), 0.0),
    ],
)
def test_a_numeric_flag_takes_a_negative_value_after_a_space(tmp_path, capsys, argv, keys, value):
    path = write_json(tmp_path, "v.json", {"a": [5, 3, 1, 1, 2, 4]})
    code, out = run_cli(capsys, argv + ["--input", path])
    got = json.loads(out)
    for key in keys:
        got = got[key]
    assert code == 0 and got == value


@pytest.mark.parametrize(
    "argv, message",
    [
        (["subdivide", "--alpha", "0", "--beta", "-inf"], "beta must be finite, got -inf"),
        (["subdivide", "--alpha", "-Infinity", "--beta", "1"], "alpha must be finite, got -inf"),
        (["subdivide", "--alpha", "-nan", "--beta", "1"], "alpha must be finite, got nan"),
        (["classify", "--tol-rel", "-1e-3"], "tolerance components must be finite and non-negative"),
    ],
)
def test_a_negative_non_finite_or_invalid_value_is_an_error_report(tmp_path, capsys, argv, message):
    path = write_json(tmp_path, "v.json", {"a": [5, 3, 1, 1, 2, 4]})
    code, out = run_cli(capsys, argv + ["--input", path])
    assert code == 2 and json.loads(out)["margin_or_slacks"]["message"] == message


@pytest.mark.parametrize("argv", [["fuzz", "--seed", "-1e5"], ["extend", "--resolution", "-inf"],
                                  ["fuzz", "--trials", "-1e2"]])
def test_an_integer_flag_rejects_a_negative_float_as_its_value(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    err = capsys.readouterr().err
    assert exit_info.value.code == 2 and f"argument {argv[1]}:" in err and "expected one argument" not in err


A5, T5, B5 = '"a": [4, 1, 0, 2, 6]', '"t": [1, 2, 3, 4, 5]', '"b": [9, 4, 1, 0, 1]'
NOT_CONVEX = '"a is not convex: interior index 2 sits above its neighbour midpoint'


# (exit code, argv, stdin, a text the report holds, or else the one warning given)
@pytest.mark.parametrize("code, argv, payload, text", [
    (0, ["witness"], '{"a": [5, 3, 1, 1, 2, 4]}', '"verdict": "holds"'),
    (0, ["subdivide", "--alpha", "0", "--beta", "1"], f"{{{A5}}}", '"verdict": "holds"'),
    (0, ["extend", "--resolution", "5"], f"{{{A5}, {T5}}}", "x,value\n1.0,4.0\n"),
    # a builtin map on its declared interval is proven; outside it, it is sampled
    (0, ["hhf", "--psi", "square"], f"{{{A5}, {T5}}}", '"verdict": "holds"'),
    (0, ["hhf", "--psi", "square"], f'{{"a": [3, 0, -1, 1, 5], {T5}}}', "ConvexMapWarning: map not non-decreasing"),
    # the commands whose convexity precondition is the slope test at t = 1..n
    (0, ["niezgoda", "--psi", "relu@0.5"], f"{{{A5}}}", '"verdict": "holds"'),
    (0, ["hhf-convex", "--psi", "exp"], f"{{{A5}}}", '"verdict": "holds"'),
    (0, ["majorize"], f'{{{A5}, "pvec": [2, 2], "qvec": [1, 3]}}', '"verdict": "holds"'),
    # without t the vectors are indices, and their errors name them as the input does
    (2, ["majorize"], f'{{{A5}, "pvec": [2, 2], "qvec": [1, 3, 2]}}', '"|pvec| = 2 but |qvec| = 3"'),
    (2, ["majorize"], f'{{{A5}, "pvec": [2, 2.5], "qvec": [1, 3]}}', '"pvec[2] = 2.5 is not an integer index in 1..5"'),
    (2, ["pecaric"], '{"a": [0, 3, 1, 4], "b": [9, 4, 1, 0]}', NOT_CONVEX),
    # at t = 1..n the witnessed engine words its precondition as ordinary convexity
    (2, ["lupas"], f'{{"a": [0, 3, 1, 4, 9], {B5}, {T5}}}', NOT_CONVEX),
    # slopes of opposite infinite signs: the scale is NaN, an error before any verdict
    (2, ["diagnose"], '{"a": [0, 1e308, -1e308, 1e308], "t": [0, 1, 2, 3]}',
     '"NonFiniteArithmetic: compared quantities reach nan"'),
    # a step within the tolerance away from the minimum keeps its sign
    (0, ["classify"], '{"a": [0, 2e-9, 2.8e-9, 2.58e-8]}', '"verdict": "strictly_increasing"'),
    (0, ["subdivide", "--alpha", "0", "--beta", "1"], '{"a": [0, 2e-9, 2.8e-9, 2.58e-8]}', '"verdict": "holds"'),
    # the growth check reads strict increase from classify_shape: a later step within the tolerance keeps its sign
    (1, ["diagnose"], '{"a": [0, 1, 1.0000000005, 3], "t": [0, 1, 2, 3]}', '"growth_margin": -0.9999999995'),
])
def test_commands_read_their_input_from_stdin(monkeypatch, capsys, code, argv, payload, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--input", "-"]) == code
    said = [f"{w.category.__name__}: {w.message}" for w in caught] or [capsys.readouterr().out]
    assert len(said) == 1 and text in said[0], said
