"""The package namespace: every public name resolves, and neither importing it nor
running the generators and ``fuzz`` loads numpy or any other module outside the
standard library; and no test module needs numpy to be collected."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relconvex

ORACLES = ("Seeded", "brute_reeval", "gen_majorized_pair", "gen_relative_convex_pair", "gen_shape")


def test_every_public_name_resolves():
    for name in relconvex.__all__:
        assert getattr(relconvex, name) is not None, name
    namespace = {}
    exec("from relconvex import *", namespace)
    assert set(relconvex.__all__) <= set(namespace)


def test_oracle_names_are_listed_and_shared():
    assert set(ORACLES) <= set(dir(relconvex))
    assert "oracles" in dir(relconvex)
    assert relconvex.gen_shape is relconvex.oracles.gen_shape
    assert relconvex.Seeded is relconvex.oracles.Seeded


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        relconvex.no_such_name
    assert not hasattr(relconvex, "no_such_name")


# Each step of one interpreter, whether its check holds, and the non-stdlib modules new after it.
NUMPY_PROBE = """
import contextlib, io, json, sys
started = set(sys.modules)
steps = []
def step(name, holds=True):
    new = {module.split(".")[0] for module in set(sys.modules) - started}
    steps.append([name, holds, sorted(new - sys.stdlib_module_names - {"relconvex"})])
import relconvex
step("import relconvex")
import relconvex.cli
step("import relconvex.cli")
step("gen_shape", all(relconvex.classify_shape(relconvex.gen_shape(kind, 64, 7)).variant is kind
                      for kind in relconvex.ShapeKind))
pairs = {n: relconvex.gen_relative_convex_pair(n, 7) for n in (2, 5, 64, 10_000)}
step("gen_relative_convex_pair", all(len(a) == len(t) == n and relconvex.is_convex_wrt(a, t).holds
                                     for n, (a, t) in pairs.items()))
a, t = pairs[10_000]
q = [t[0], t[len(t) // 2], t[-1]]
p = relconvex.gen_majorized_pair(q, 6, 7)
step("gen_majorized_pair", relconvex.majorizes(p, q))
sp, sq = relconvex.brute_reeval({"kind": "majorization", "a": a, "t": t, "pvec": p, "qvec": q})
step("brute_reeval majorization", sp <= sq)
with contextlib.redirect_stdout(io.StringIO()):
    code = relconvex.cli.main(["fuzz", "--trials", "20"])
step(f"relconvex fuzz exit {code}")
print(json.dumps(steps))
"""


def test_import_leaves_numpy_unloaded():
    paths = [str(Path(relconvex.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [name, True, []] for name in ("import relconvex", "import relconvex.cli", "gen_shape",
                                      "gen_relative_convex_pair", "gen_majorized_pair",
                                      "brute_reeval majorization", "relconvex fuzz exit 0")
    ]


def module_level_numpy(tree):
    """Line numbers of the statements that import numpy, or skip without it, as a module loads:
    everything outside function bodies, class bodies included."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip":
            names = [arg.value for arg in node.args[:1] if isinstance(arg, ast.Constant)]
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            yield node.lineno
        pending.extend(ast.iter_child_nodes(node))


def test_every_test_module_is_collected_without_numpy():
    # a module that imports numpy, or skips without it, at module level drops all its tests from
    # the jobs that run without numpy; a test that needs numpy imports or skips inside itself
    found = {path.name: sorted(module_level_numpy(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted(Path(__file__).parent.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the guard sees each form at module level, and none inside a function
    sample = ("import numpy as np\nfrom numpy import array\nnp = pytest.importorskip('numpy')\n"
              "class Rows:\n    import numpy.linalg\ndef test():\n    np = pytest.importorskip('numpy')\n")
    assert sorted(module_level_numpy(ast.parse(sample))) == [1, 2, 3, 5]
