"""Golden CLI outputs: every subcommand on fixed inputs against recorded reports.

``cli_golden.json`` holds, per case, the exit code, the stdout line and (for
``extend --output``) the CSV file.  Cases listed in ``REWRITTEN`` run
engines whose arithmetic is expressed through another engine; they are
compared structurally (keys, verdict, ints and None exactly, floats to
rel 1e-12).  Every other case must match byte for byte.

Regenerate the recorded file only when an output change is intended:
``PYTHONPATH=src python tests/test_cli_golden.py [case ...]`` re-records the
named cases, or all of them when none is named.  A ``REWRITTEN`` case whose
new stdout is within the tolerance of the recorded one keeps the recorded
stdout, so a regeneration without an intended change leaves the file as it is.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relconvex
from relconvex.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

A5 = [4, 1, 0, 2, 6]
T5 = [1, 2, 3, 4, 5]
V6 = [5, 3, 1, 1, 2, 4]
LOG_A = [math.log(i) for i in range(3, 30)]
LOG_T = [math.log(math.log(i)) for i in range(3, 30)]

# name -> (argv after the input flag, input payload or None)
CASES = {
    "classify": (["classify"], {"a": V6}),
    "classify_rejected": (["classify"], {"a": [0, 3, 1, 2]}),
    "check": (["check"], {"a": A5}),
    "check_violated": (["check"], {"a": [0, 3, 1, 4, 9]}),
    "check_wrt": (["check", "--wrt"], {"a": LOG_A, "t": LOG_T}),
    "check_wrt_violated": (["check", "--wrt"], {"a": [0, 2, 3, 3.5, 5], "t": T5}),
    "witness": (["witness", "--t1", "-1.0"], {"a": V6}),
    "witness_schedule": (["witness", "--plateau-step", "0.5"], {"a": V6, "s": [-2, -0.5, 1, 3]}),
    "subdivide": (["subdivide", "--alpha", "0", "--beta", "1"], {"a": V6}),
    "extend": (["extend", "--resolution", "9", "--output", "{out}"], {"a": [0, 1, 3], "t": [0, 1, 2]}),
    "lupas": (["lupas"], {"a": A5, "b": [9, 4, 1, 0, 1], "t": T5, "p": [1, 2, 3, 2, 1]}),
    "lupas_uniform": (["lupas"], {"a": LOG_A, "b": [x * x for x in LOG_A], "t": LOG_T}),
    "pecaric": (["pecaric"], {"a": A5, "b": [9, 4, 1, 0, 1]}),
    "pecaric_long": (["pecaric"], {"a": [(i - 7.3) ** 2 for i in range(20)],
                                   "b": [math.exp(0.2 * i) for i in range(20)]}),
    "hhf": (["hhf", "--psi", "relu@0.5"], {"a": A5, "t": T5, "p": [1, 2, 3, 2, 1]}),
    "hhf_log": (["hhf", "--psi", "exp"], {"a": LOG_A, "t": LOG_T}),
    "niezgoda": (["niezgoda", "--psi", "relu@0.5"], {"a": A5, "p": [1, 2, 3, 2, 1]}),
    "niezgoda_exp": (["niezgoda", "--psi", "exp"], {"a": [3, 1, 0.5, 1, 2.5, 5], "p": [0.3, 1, 2, 0.7, 1.1, 0.9]}),
    "hhf_convex": (["hhf-convex", "--psi", "relu@0.5"], {"a": A5, "p": [1, 2, 3, 2, 1]}),
    "hhf_convex_square": (["hhf-convex", "--psi", "square"], {"a": [3, 1, 0.5, 1, 2.5, 5],
                                                              "p": [0.3, 1, 2, 0.7, 1.1, 0.9]}),
    "majorize_index": (["majorize", "--seed", "7"], {"a": A5, "pvec": [2, 3, 4], "qvec": [1, 3, 5]}),
    "majorize_witness": (["majorize"], {"a": A5, "t": T5, "pvec": [2.5, 3.0], "qvec": [2.0, 3.5]}),
    "diagnose": (["diagnose"], {"a": A5, "t": T5}),
    "diagnose_increasing": (["diagnose"], {"a": LOG_A, "t": LOG_T}),
    "fuzz": (["fuzz", "--trials", "25", "--seed", "3"], None),
    "error_missing_input": (["check", "--wrt"], {"a": A5}),
    "error_precondition": (["pecaric"], {"a": [0, 3, 1], "b": [1, 2, 3]}),
}

# Commands whose engines are thin wrappers over another engine: same sides
# up to rounding, so floats are compared to rel 1e-12 instead of bytewise.
REWRITTEN = {"pecaric", "pecaric_long", "niezgoda", "niezgoda_exp", "hhf_convex", "hhf_convex_square"}


def run_case(name, tmp_path, read_stdout):
    argv, payload = CASES[name]
    out_file = tmp_path / f"{name}.csv"
    argv = [arg.replace("{out}", str(out_file)) for arg in argv]
    if payload is not None:
        inp = tmp_path / f"{name}.json"
        inp.write_text(json.dumps(payload))
        argv = argv + ["--input", str(inp)]
    code = main(argv)
    result = {"code": code, "stdout": read_stdout()}
    if out_file.exists():
        result["file"] = out_file.read_text()
    return result


def assert_close(got, want, path="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{k}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, path


def record(names, tmp):
    """Run the named cases through ``main`` in this process: name -> result."""
    results = {}
    for name in names:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            results[name] = run_case(name, Path(tmp), buf.getvalue)
    return results


def assert_matches(name, got, want):
    assert got["code"] == want["code"]
    assert got.get("file") == want.get("file")
    if name in REWRITTEN:
        assert_close(json.loads(got["stdout"]), json.loads(want["stdout"]))
    else:
        assert got["stdout"] == want["stdout"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name, tmp_path, capsys):
    want = json.loads(GOLDEN.read_text())[name]
    assert_matches(name, run_case(name, tmp_path, lambda: capsys.readouterr().out), want)


# One interpreter with numpy blocked before relconvex.cli loads, which runs
# every case through ``main`` and prints the results as one JSON object.
WITHOUT_NUMPY = """
import json, sys, tempfile
sys.modules["numpy"] = None
from test_cli_golden import CASES, record
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps(record(sorted(CASES), tmp)))
"""


def test_cli_runs_without_numpy():
    paths = [str(Path(relconvex.__file__).parents[1]), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    golden = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(CASES)
    for name in sorted(CASES):
        assert_matches(name, got[name], golden[name])


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(unknown)}")
    recorded = {k: v for k, v in json.loads(GOLDEN.read_text()).items() if k in CASES}
    with tempfile.TemporaryDirectory() as tmp:
        for name, got in record(names, tmp).items():
            if name in REWRITTEN and name in recorded:
                with contextlib.suppress(AssertionError):
                    assert_matches(name, got, recorded[name])
                    got["stdout"] = recorded[name]["stdout"]
            recorded[name] = got
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
