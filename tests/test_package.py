"""The package namespace: every public name resolves, and neither importing it nor
running the generators and ``fuzz`` loads numpy."""

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


# Each step of one interpreter, then whether numpy is loaded after it.
NUMPY_PROBE = """
import contextlib, io, json, sys
steps = []
def step(name):
    steps.append([name, "numpy" in sys.modules])
import relconvex
step("import relconvex")
import relconvex.cli
step("import relconvex.cli")
for kind in relconvex.ShapeKind:
    relconvex.gen_shape(kind, 64, 5)
step("gen_shape")
a, t = relconvex.gen_relative_convex_pair(64, 5)
step("gen_relative_convex_pair")
q = [t[0], t[-1], t[len(t) // 2]]
p = relconvex.gen_majorized_pair(q, 6, 5)
step("gen_majorized_pair")
relconvex.brute_reeval({"kind": "majorization", "a": list(a.values), "t": list(t.values),
                        "pvec": list(p), "qvec": q})
step("brute_reeval majorization")
with contextlib.redirect_stdout(io.StringIO()):
    code = relconvex.cli.main(["fuzz", "--trials", "20"])
step(f"relconvex fuzz exit {code}")
print(json.dumps(steps))
"""


def test_import_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(relconvex.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [name, False] for name in ("import relconvex", "import relconvex.cli", "gen_shape",
                                   "gen_relative_convex_pair", "gen_majorized_pair",
                                   "brute_reeval majorization", "relconvex fuzz exit 0")
    ]
