"""The package namespace: every public name resolves, and importing it leaves numpy unloaded."""

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


def test_import_leaves_numpy_unloaded():
    probe = ("import sys; import relconvex; a = 'numpy' in sys.modules; "
             "import relconvex.cli; print(a, 'numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(relconvex.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
