"""Smoke test of the benchmark at tiny sizes.

Runs every workload for one second with ``--smoke`` (short instances),
traced and untraced, and asserts that the last line names exactly the
metrics declared in ``BENCHMARK.json``, each with its declared unit and a
finite value, and that the full result carries the environment stamp and
the failure accounting.  Also checks that the benchmark refuses to run,
without printing a result, when the program's sources are absent.

Run from the repository root::

    python3 bench/smoke_test.py        # or: python3 -m pytest bench/smoke_test.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ENV_KEYS = {"git_commit", "source_sha256", "python", "numpy", "nproc", "seed"}
DETAIL_KEYS = {"fail_ratio", "latency_samples", "wall.latency_ms_p50", "calibration.slowdown"}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_workload(workload: str, trace: int) -> None:
    res = run_bench(workload, trace)
    assert res.returncode == 0, res.stderr[-2000:]
    final = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(final["attempted"], int) and final["attempted"] >= 1
    assert isinstance(final["failed"], int) and 0 <= final["failed"] <= final["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)
    full = json.loads((BENCH / "out" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert ENV_KEYS <= set(full["environment"])
    assert full["environment"]["seed"] == 3
    assert full["attempted"] == final["attempted"] and full["failed"] == final["failed"]
    assert sum(sum(e.values()) for e in full["failures"].values()) == final["failed"]
    assert "seed_defects" in full
    if trace:
        assert (BENCH / "out" / f"{workload}-seed3-spans.csv").is_file()
    else:
        assert DETAIL_KEYS <= set(full["metrics"])
        assert final["metrics"]["setup_s"]["value"] > 0


def test_every_metric_emitted_with_its_unit():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_workload(workload, trace)


def test_refuses_without_program():
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, tmp / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        res = run_bench("many_small", 0, cwd=tmp)
    assert res.returncode != 0
    assert not res.stdout.strip()


if __name__ == "__main__":
    test_every_metric_emitted_with_its_unit()
    test_refuses_without_program()
    print("smoke test passed")
