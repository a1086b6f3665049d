"""CLI surface tests: report schema, exit codes, formats, idempotence."""

import json
import math

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
        "slope schedule exhausted at step 1: need one entry per strict step")


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
