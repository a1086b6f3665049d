#!/usr/bin/env python3
"""relconvex benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 bench/run.py --workload engines_large --seed 1 --seconds 15 --trace 0

Workloads: ``engines_large``, ``many_small``, ``diagnose_mid``, ``cli_oneshot``
(see ``bench/workloads.py`` and ``bench/README.md``).  The program is
imported from ``src/`` of this checkout, single-threaded, one client in a
closed loop.  Instances are timed until their summed wall time reaches
``--seconds`` (finishing the current round of the workload's mix); input
generation, the correctness checks and one warm-up round of the mix run
outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
instances twice, half the time each: untraced, then with a span around every
call into the program, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full result, with the
environment stamp, the failures by operation and error class and those of
the workload's untimed seed-defect calls (``engines_large`` only), is written
to ``bench/out/<workload>-seed<seed>-trace<t>.json`` (spans, when traced, to
``...-spans.csv``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
from spans import INSTANCE, PROBE, Recorder, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
CALIBRATE_EVERY_S = 0.25
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

MODULES = ("seqcore", "polyext", "functionals", "inequalities", "diagnostics", "oracles", "cli")
FUNCTIONS = (
    "seqcore.validate", "seqcore.is_convex_wrt", "seqcore.is_convex", "seqcore.classify_shape",
    "seqcore.construct_witness", "seqcore.construct_witness_on_interval",
    "polyext.build_extension", "polyext.sample", "polyext.floor_wrt",
    "functionals.validate", "functionals.weighted_mean", "functionals.cov_functional",
    "functionals.lupas_constant", "functionals.majorizes",
    "inequalities.spot_check_map",
    "diagnostics.anchored_slope_check_all", "diagnostics.collinearity_determinant_check",
    "diagnostics.collinearity_all_triples", "diagnostics.neighbor_chord_check",
    "diagnostics.increment_growth_check", "diagnostics.psi_preservation_check",
    "oracles.gen_relative_convex_pair", "oracles.gen_shape", "oracles.gen_majorized_pair",
    "cli.main", "cli.process",
)
CLI_STARTUP = ("cli.interp_start.ms", "cli.import.ms", "cli.import.numpy.ms", "cli.import.relconvex.ms")


def end_to_end_units() -> dict:
    """Name -> (unit, better) of the metrics a ``--trace 0`` run prints."""
    return {
        "instances_per_s": ("1/s", "higher"),
        "latency_ms_p50": ("ms", "lower"),
        "latency_ms_p90": ("ms", "lower"),
        "ok_ratio": ("1", "higher"),
        "peak_rss_mb": ("MB", "lower"),
        "setup_s": ("s", "lower"),
    }


def per_layer_units() -> dict:
    """Name -> (unit, better) of the metrics a ``--trace 1`` run prints."""
    from workloads import ENGINES

    units = {}
    for m in MODULES:
        units.update({f"{m}.ms": ("ms", "lower"), f"{m}.calls": ("count", "lower"),
                      f"{m}.errors": ("count", "lower"), f"{m}.share": ("1", "lower"),
                      f"{m}.ns_per_elem": ("ns", "lower")})
    for f in FUNCTIONS:
        units[f"{f}.ms"] = ("ms", "lower")
        if f == "oracles.gen_relative_convex_pair":
            units[f"{f}.errors"] = ("count", "lower")
    for e in ENGINES:
        units[f"inequalities.{e}.ms"] = ("ms", "lower")
        units[f"inequalities.{e}.compute.ms"] = ("ms", "lower")
        units[f"inequalities.{e}.precondition_share"] = ("1", "lower")
    for name in CLI_STARTUP:
        units[name] = ("ms", "lower")
    units["trace.untraced_instances_per_s"] = ("1/s", "higher")
    units["trace.instances_per_s"] = ("1/s", "higher")
    units["trace.overhead_ratio"] = ("1", "lower")
    return units


def child_env() -> dict:
    """The environment of every child process: this checkout's sources, one thread.

    Bytecode caching is left on, as for an installed package, so a child's
    import cost does not include compiling the program's sources.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


# ---------------------------------------------------------------- set-up time

SETUP_CHILD = """\
import sys, time
import {target}
sys.path.insert(0, {bench!r})
import warmup
warmup.WARMUPS[{name!r}]()
sys.stdout.write(str(time.monotonic_ns()))
"""


def measure_setup(workload, env) -> tuple[list[float], list[int]]:
    """Seconds from spawning a fresh interpreter to the end of import plus first calls.

    Both ends read CLOCK_MONOTONIC, which is system-wide on Linux.  A
    calibration sample is taken before each set-up sample and after the last.
    """
    code = SETUP_CHILD.format(target=workload.import_target, bench=str(BENCH), name=workload.name)
    samples, kernel = [], []
    for _ in range(SETUP_REPEATS):
        kernel.append(calibration.kernel())
        start = time.monotonic_ns()
        res = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append((int(res.stdout) - start) / 1e9)
    kernel.append(calibration.kernel())
    return samples, kernel


def parse_importtime(text: str) -> tuple[float, float, float]:
    """(total, numpy self, relconvex self) milliseconds from ``-X importtime`` output."""
    total = numpy = own = 0
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cum_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
        if name == "relconvex.cli":
            total = cum_us
        if name == "numpy" or name.startswith("numpy."):
            numpy += self_us
        if name == "relconvex" or name.startswith("relconvex."):
            own += self_us
    return total / 1e3, numpy / 1e3, own / 1e3


def measure_startup(env) -> dict:
    """Bare interpreter start next to the import breakdown of ``relconvex.cli``."""
    bare, rows = [], []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=60)
        bare.append((time.perf_counter_ns() - start) / 1e6)
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import relconvex.cli"],
                             env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        rows.append(parse_importtime(res.stderr))
    cols = list(zip(*rows))
    return {
        "cli.interp_start.ms": statistics.median(bare),
        "cli.import.ms": statistics.median(cols[0]),
        "cli.import.numpy.ms": statistics.median(cols[1]),
        "cli.import.relconvex.ms": statistics.median(cols[2]),
    }


# ----------------------------------------------------------------- measuring

class Phase:
    """Instances of one measuring phase: latencies, calibration samples, the recorder."""

    def __init__(self, recorder):
        self.rec = recorder
        self.latencies_ns: list[int] = []
        self.calibration_ns: list[int] = []
        self.calibration_at: list[int] = []  # instances completed when each sample was taken
        self.elements = 0
        self.since_calibration = 0  # instance time since the last sample
        self.mark = 0  # when instance time was last added to since_calibration
        self.paused = 0  # calibration time inside the current instance

    def calibrate(self) -> None:
        self.calibration_ns.append(calibration.kernel())
        self.calibration_at.append(len(self.latencies_ns))
        self.since_calibration = 0

    def tick(self) -> None:
        """Between two program calls of an instance: a calibration sample, if one is due.

        An instance of ``engines_large`` or ``diagnose_mid`` runs for seconds,
        and the machine's speed changes within it; samples taken inside it
        follow that.  Their time is taken out of the instance's latency.
        """
        now = time.perf_counter_ns()
        self.since_calibration += now - self.mark
        if self.since_calibration >= CALIBRATE_EVERY_S * 1e9:
            self.calibrate()
            after = time.perf_counter_ns()
            self.paused += after - now
            now = after
        self.mark = now

    @property
    def slowdown(self) -> float:
        """This run's machine speed against nominal: above 1 means slower."""
        return statistics.median(self.calibration_ns) / calibration.KERNEL_NOMINAL_NS

    def nominal_latencies_ns(self) -> list[float]:
        """Each latency at nominal speed, by the mean of the calibration samples
        taken last before it, inside it, and first after it."""
        at, cal = self.calibration_at, self.calibration_ns
        out = []
        j = 0
        for k, lat in enumerate(self.latencies_ns):
            while at[j + 1] <= k:
                j += 1
            first = j
            while first > 0 and at[first - 1] == k:
                first -= 1
            local = statistics.fmean(cal[first:j + 2])
            out.append(lat * calibration.KERNEL_NOMINAL_NS / local)
        return out


def per_second(latencies_ns) -> float:
    return len(latencies_ns) / (sum(latencies_ns) / 1e9)


def measure(workload, seed: int, seconds: float, trace: bool) -> Phase:
    """Run instances 0, 1, ... until ``seconds`` of instance time and a whole round.

    A calibration sample is taken before the first instance, whenever
    ``CALIBRATE_EVERY_S`` of instance time has passed, and after the last.
    Untraced, a sample that falls due inside an instance is taken between two
    of its program calls; traced, only between instances, so that spans hold
    no calibration time.
    """
    phase = Phase(Recorder(trace))
    rec = phase.rec
    budget = seconds * 1e9
    busy = 0
    i = 0
    phase.calibrate()
    while busy < budget or i % workload.round:
        inst = workload.generate(seed, i)
        rec.open(INSTANCE, i)
        rec.before_call = None if trace else phase.tick
        phase.paused = 0
        start = phase.mark = time.perf_counter_ns()
        out = workload.run(inst, rec)
        end = time.perf_counter_ns()
        rec.before_call = None
        rec.close(start, end)
        if trace:
            rec.open(PROBE, i)
            probe_start = time.perf_counter_ns()
            workload.probe(inst, out, rec)
            rec.close(probe_start, time.perf_counter_ns())
        workload.check(inst, out, rec)
        latency = end - start - phase.paused
        phase.latencies_ns.append(latency)
        phase.elements += workload.elements(inst)
        busy += latency
        phase.since_calibration += end - phase.mark
        if phase.since_calibration >= CALIBRATE_EVERY_S * 1e9:
            phase.calibrate()
        i += 1
        del inst, out  # hold one instance at a time, so peak RSS is one instance's
    phase.calibrate()
    return phase


def warm(workload, seed: int) -> None:
    """One untimed, unchecked round of the workload's mix (instances 0, 1, ...).

    The first instances of a run pay for cold caches (file cache, allocator
    growth, lazily built tables); this keeps that out of the timed instances.
    """
    rec = Recorder(False)
    for i in range(workload.round):
        workload.run(workload.generate(seed, i), rec)


def seed_defects(workload, seed: int) -> Recorder:
    """The workload's untimed calls that are known to fail, if it has any."""
    rec = Recorder(False)
    if hasattr(workload, "seed_defects"):
        workload.seed_defects(seed, rec)
    return rec


def latency_metrics(latencies_ns) -> dict:
    ms = sorted(v / 1e6 for v in latencies_ns)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    out = {"latency_ms_p50": statistics.median(ms), "latency_ms_p90": p90,
           "latency_samples": len(ms), "latency_samples_above_p90": sum(v > p90 for v in ms)}
    if len(ms) >= 1000:  # at least ten samples beyond the 99th percentile
        out["latency_ms_p99"] = statistics.quantiles(ms, n=100, method="inclusive")[98]
    return out


def layer_metrics(phase: Phase, untraced: Phase, startup: dict, defects: Recorder) -> dict:
    """Per-layer numbers from the traced phase's spans (self times).

    ``<m>.errors`` also counts the failures of the workload's seed-defect
    calls (``defects``), which run outside the phase.
    """
    from workloads import ENGINES

    s = summarize(phase.rec.spans)
    n_inst = max(s["instances"], 1)
    elements = max(phase.elements, 1)
    inst_ops, probe_ops = s[INSTANCE], s[PROBE]
    errors_by_op = {}
    for (op, _), count in (phase.rec.failures + defects.failures).items():
        errors_by_op[op] = errors_by_op.get(op, 0) + count

    def busy(ops, key):
        return ops.get(key, (0, 0))[0]

    out = {}
    for m in MODULES:
        prefix = m + "."
        ns = sum(v[0] for k, v in inst_ops.items() if k.startswith(prefix))
        out[f"{m}.ms"] = ns / n_inst / 1e6
        out[f"{m}.calls"] = sum(v[1] for k, v in inst_ops.items() if k.startswith(prefix))
        out[f"{m}.errors"] = sum(v for k, v in errors_by_op.items() if k.startswith(prefix))
        out[f"{m}.share"] = ns / s["instance_ns"] if s["instance_ns"] else 0.0
        out[f"{m}.ns_per_elem"] = ns / elements
    for f in FUNCTIONS:
        ns = busy(probe_ops, f) if f == "cli.main" else busy(inst_ops, f)
        out[f"{f}.ms"] = ns / n_inst / 1e6
    out["oracles.gen_relative_convex_pair.errors"] = errors_by_op.get("oracles.gen_relative_convex_pair", 0)
    for e in ENGINES:
        full = busy(inst_ops, f"inequalities.{e}")
        compute = busy(probe_ops, f"inequalities.{e}.compute")
        out[f"inequalities.{e}.ms"] = full / n_inst / 1e6
        out[f"inequalities.{e}.compute.ms"] = compute / n_inst / 1e6
        out[f"inequalities.{e}.precondition_share"] = 1.0 - compute / full if full else 0.0
    out.update(startup)
    # both halves at nominal speed, so that drift between them is not read as overhead
    out["trace.untraced_instances_per_s"] = per_second(untraced.nominal_latencies_ns())
    out["trace.instances_per_s"] = per_second(phase.nominal_latencies_ns())
    out["trace.overhead_ratio"] = out["trace.untraced_instances_per_s"] / out["trace.instances_per_s"] - 1.0
    out["bench.self_ms"] = s["instance_self_ns"] / n_inst / 1e6  # benchmark code inside instances
    return out


# ---------------------------------------------------------------- reporting

def environment(seed: int) -> dict:
    """Commit, interpreter, numpy and CPU count the result was measured with."""
    import numpy

    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


def failures_by_op(*recorders) -> dict:
    table: dict = {}
    for rec in recorders:
        for (op, error), count in sorted(rec.failures.items()):
            table.setdefault(op, {}).setdefault(error, 0)
            table[op][error] += count
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("engines_large", "many_small", "diagnose_mid", "cli_oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instance sizes, for bench/smoke_test.py")
    args = parser.parse_args(argv)

    if not (SRC / "relconvex" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'relconvex'} is missing", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for the work, its calibration and every child process, so that
    # a calibration sample sees the same core the instances run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(BENCH)]
    import relconvex

    if Path(relconvex.__file__).resolve().parent != (SRC / "relconvex").resolve():
        print(f"error: relconvex imported from {relconvex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import warmup
    from workloads import WORKLOADS, CliOneshot

    OUT.mkdir(exist_ok=True)
    env = child_env()
    kind = WORKLOADS[args.workload]
    if kind is CliOneshot:
        workload = kind(args.smoke, root=str(ROOT), env=env, out_dir=str(OUT))
    else:
        workload = kind(args.smoke)

    setup, setup_kernel = measure_setup(workload, env)
    warmup.WARMUPS[workload.name]()
    warm(workload, args.seed)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        untraced = measure(workload, args.seed, args.seconds / 2, trace=False)
        traced = measure(workload, args.seed, args.seconds / 2, trace=True)
        phases = (untraced, traced)
        startup = measure_startup(env)
        defects = seed_defects(workload, args.seed)
        detail = layer_metrics(traced, untraced, startup, defects)
        units = per_layer_units()
        traced.rec.write_spans(OUT / f"{workload.name}-seed{args.seed}-spans.csv")
        detail["note.waits"] = "none: one thread, one client, closed loop, so no wait or queue time exists"
    else:
        phase = measure(workload, args.seed, args.seconds, trace=False)
        phases = (phase,)
        if workload.in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = workload.peak_rss_kb
        defects = seed_defects(workload, args.seed)  # after reading peak RSS: not the workload's footprint
        fail_ratio = phase.rec.failed / phase.rec.attempted
        nominal = phase.nominal_latencies_ns()
        at_nominal = latency_metrics(nominal)
        wall = latency_metrics(phase.latencies_ns)
        setup_nominal = [
            sample * 2 * calibration.KERNEL_NOMINAL_NS / (before + after)
            for sample, before, after in zip(setup, setup_kernel, setup_kernel[1:])
        ]
        detail = {
            "instances_per_s": per_second(nominal),
            "latency_ms_p50": at_nominal["latency_ms_p50"],
            "latency_ms_p90": at_nominal["latency_ms_p90"],
            "ok_ratio": 1.0 - fail_ratio,
            "peak_rss_mb": peak_kb / 1024.0,
            "setup_s": statistics.median(setup_nominal),
            "fail_ratio": fail_ratio,
            **at_nominal,
            "wall.instances_per_s": per_second(phase.latencies_ns),
            **{f"wall.{k}": v for k, v in wall.items() if k.startswith("latency_ms")},
            "wall.setup_s": statistics.median(setup),
            "calibration.slowdown": phase.slowdown,
            "calibration.samples": len(phase.calibration_ns),
            "calibration.setup_slowdown": statistics.median(setup_kernel) / calibration.KERNEL_NOMINAL_NS,
        }
        units = end_to_end_units()

    recs = [p.rec for p in phases]
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    correct = all(r.rejected == 0 for r in recs + [defects])
    result = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "instances": [len(p.latencies_ns) for p in phases],
        "setup_samples_s": setup,
        "setup_calibration_ns": setup_kernel,
        "calibration_ns": [p.calibration_ns for p in phases],
        "calibration_at": [p.calibration_at for p in phases],
        "latencies_ns": [p.latencies_ns for p in phases],
        "metrics": detail,
        "failures": failures_by_op(*recs),
        "seed_defects": failures_by_op(defects),
        "seed_defects_attempted": defects.attempted,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    env_stamp = result["environment"]
    print(f"relconvex bench: workload={workload.name} seed={args.seed} trace={args.trace} "
          f"commit={env_stamp['git_commit']} source={env_stamp['source_sha256'][:12]} "
          f"python={env_stamp['python']} numpy={env_stamp['numpy']} nproc={env_stamp['nproc']}")
    for name, value in detail.items():
        unit = units.get(name, ("", ""))[0]
        print(f"  {name:48s} {value} {unit}".rstrip())
    for op, errors in result["failures"].items():
        for error, count in errors.items():
            print(f"  failed: {op} {error} x{count}")
    for op, errors in result["seed_defects"].items():
        for error, count in errors.items():
            print(f"  seed defect (untimed, not counted in failed): {op} {error} x{count}")
    print(f"  correct={correct} attempted={attempted} failed={failed}; full result in {path.relative_to(ROOT)}")
    final = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": detail[name], "unit": unit} for name, (unit, _) in units.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
