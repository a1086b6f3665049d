"""What one ``relconvex`` process loads and builds: importing the package loads none of its
submodules, importing the CLI only ``errors`` and ``seqcore``, and each command the library
modules its call uses; and the parser of the invoked command alone prints what the parser
of every command prints."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relconvex
from relconvex import cli

A = [4.0, 1.0, 0.0, 2.0, 6.0]
T = [1.0, 2.0, 3.0, 4.0, 5.0]
P = [1.0, 2.0, 1.0, 2.0, 1.0]

ENGINES = ("functionals", "inequalities", "polyext")

# one run per command or mode, each a valid input that exits 0: (label, argv, stdin, the
# relconvex submodules the run adds to those that `import relconvex.cli` loaded)
RUNS = [
    ("classify", ["classify"], {"a": A}, ()),
    ("check", ["check"], {"a": A}, ()),
    ("check --wrt", ["check", "--wrt"], {"a": A, "t": T}, ()),
    ("witness", ["witness"], {"a": A}, ()),
    ("subdivide", ["subdivide", "--alpha", "0", "--beta", "1"], {"a": A}, ()),
    ("extend", ["extend"], {"a": A, "t": T}, ("polyext",)),
    ("lupas", ["lupas"], {"a": A, "b": A, "t": T, "p": P}, ENGINES),
    ("pecaric", ["pecaric"], {"a": A, "b": A}, ENGINES),
    ("hhf", ["hhf"], {"a": A, "t": T, "p": P}, ENGINES),
    ("niezgoda", ["niezgoda"], {"a": A, "p": P}, ENGINES),
    ("hhf-convex", ["hhf-convex"], {"a": A, "p": P}, ENGINES),
    ("majorize witness", ["majorize"], {"a": A, "t": T, "pvec": [2.0, 2.0], "qvec": [1.0, 3.0]}, ENGINES),
    ("majorize index", ["majorize"], {"a": A, "pvec": [2.0, 2.0], "qvec": [1.0, 3.0]}, ENGINES),
    ("diagnose", ["diagnose"], {"a": A, "t": T}, ("diagnostics", *ENGINES)),
    ("fuzz", ["fuzz", "--trials", "2"], None, ("oracles", *ENGINES)),
]
CSV_RUN = ("classify CSV", ["classify"], "a\n" + "".join(f"{x}\n" for x in A))

# Per step: its label, the exit code of a run, and the relconvex modules and watched standard
# modules it added.  A run starts from the state after `import relconvex.cli`: what it loaded
# is unloaded again, and the package namespace restored, before the next one.
PROBE = """
import contextlib, io, json, sys
WATCHED = {"csv", "dataclasses", "inspect"}
def added(before):
    return sorted(name for name in set(sys.modules) - before
                  if name.startswith("relconvex") or name in WATCHED)
started = set(sys.modules)
import relconvex
steps = [["import relconvex", None, added(started)]]
package = set(sys.modules)
import relconvex.cli
steps.append(["import relconvex.cli", None, added(package)])
loaded, namespace = set(sys.modules), dict(vars(relconvex))
for label, argv, text in json.loads(sys.stdin.read()):
    sys.stdin = io.StringIO(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = relconvex.cli.main(argv if text is None else [*argv, "--input", "-"])
    new = added(loaded)
    steps.append([label, code, new])
    for name in new:
        del sys.modules[name]
    vars(relconvex).clear()
    vars(relconvex).update(namespace)
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def steps():
    runs = [(label, argv, None if payload is None else json.dumps(payload))
            for label, argv, payload, _ in RUNS] + [CSV_RUN]
    paths = [str(Path(relconvex.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", PROBE], input=json.dumps(runs), env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {label: (code, new) for label, code, new in json.loads(proc.stdout)}


def test_importing_the_package_loads_no_submodule(steps):
    assert steps["import relconvex"] == (None, ["relconvex"])


def test_importing_the_cli_loads_errors_and_seqcore_alone(steps):
    # nor csv, dataclasses or inspect; only the modules the import adds count, as an
    # interpreter's site may load inspect before it
    assert steps["import relconvex.cli"] == (None, ["relconvex.cli", "relconvex.errors", "relconvex.seqcore"])


@pytest.mark.parametrize("label, modules", [(run[0], run[3]) for run in RUNS], ids=[run[0] for run in RUNS])
def test_a_command_loads_the_modules_its_call_uses(steps, label, modules):
    assert steps[label] == (0, sorted(f"relconvex.{name}" for name in modules))


def test_only_csv_input_loads_csv(steps):
    assert steps["classify CSV"] == (0, ["csv"])
    assert [label for label, (_, new) in steps.items() if "csv" in new] == ["classify CSV"]


def test_the_runs_cover_every_command():
    assert {run[1][0] for run in RUNS} == set(cli.COMMANDS)


# -- the invoked command's parser ----------------------------------------------

# help and usage errors: every command with --help, an unknown flag, a flag without its value and
# a bad value; a missing required flag and a bad --trials; no arguments, --help and no command
FORMS = [[], ["--help"], ["bogus"], ["subdivide", "--alpha", "0"], ["fuzz", "--trials", "-1"]]
FORMS += [[name, *extra] for name in cli.COMMANDS
          for extra in (["--help"], ["--bogus"], ["--tol-abs"], ["--seed", "x"])]


def outcome(argv):
    """``main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", FORMS, ids=lambda argv: " ".join(argv) or "no arguments")
def test_one_commands_parser_prints_what_every_commands_parser_prints(argv, monkeypatch):
    # compared live, as argparse words its output differently from one Python to the next
    build, asked = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: asked.append(command) or build(command))
    fast = outcome(argv)
    assert asked == [argv[0] if argv[:1] and argv[0] in cli.COMMANDS else None]
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build())
    assert fast == outcome(argv)
    assert fast[0] in (0, 2)


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_one_commands_parser_takes_no_other_command(name, capsys):
    other = next(other for other in cli.COMMANDS if other != name)
    with pytest.raises(SystemExit):
        cli.build_parser(name).parse_args([other])
    assert "invalid choice" in capsys.readouterr().err
