"""The four benchmark workloads.

Each workload makes its instances from ``(seed, index)`` with its own numpy
generator, runs one instance through the program's public functions (the
timed part), and checks the outputs afterwards (untimed).  Every call into
the program goes through :meth:`spans.Recorder.call` under the name
``"<module>.<function>"``; a rejected output is counted against the call
that produced it.

Why these four: ``engines_large`` is arithmetic over long arrays,
``many_small`` is per-call overhead, ``diagnose_mid`` is the quadratic
characterisation scans, and ``cli_oneshot`` is process start-up and import.
An optimisation of one of them is expected to leave the others unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np

import relconvex as rc
from relconvex.errors import PreconditionViolation
from relconvex.oracles import brute_reeval
from relconvex.seqcore import RELATIVE_CONVEX_KINDS

import gen
import reference as ref
from spans import Failed

# A map that fails its spot check voids the theorem; count it as a failure.
warnings.simplefilter("error", rc.ConvexMapWarning)

ENGINES = (
    "lupas_check",
    "pecaric_check",
    "hhf_bounds",
    "niezgoda_bound",
    "convex_hhf_bounds",
    "majorization_inequality_check",
    "integer_majorization_check",
)
ENGINE_OPS = tuple(
    (name, "inequalities." + name, "inequalities." + name + ".compute", getattr(rc, name))
    for name in ENGINES
)
CHARACTERISATIONS = (
    ("diagnostics.neighbor_chord_check", rc.neighbor_chord_check),
    ("diagnostics.collinearity_determinant_check", rc.collinearity_determinant_check),
    ("diagnostics.anchored_slope_check_all", rc.anchored_slope_check_all),
)
GROWTH = "diagnostics.increment_growth_check"
PSI_KEEP = "diagnostics.psi_preservation_check"
PSI_NAMES = ("identity", "exp", "relu", "square")


def psi_for(rng, name: str, values) -> tuple[str, object]:
    """(name as the CLI spells it, numpy version) of a builtin map."""
    if name == "relu":
        c = float(np.median(values)) + float(rng.uniform(-1.0, 1.0))
        return f"relu@{c!r}", (lambda x: np.maximum(x, c))
    return name, {"identity": lambda x: x, "exp": np.exp, "square": np.square}[name]


def nonnegative(rng, x):
    """Shift keeping convexity, so that x -> x^2 is non-decreasing on the values."""
    return x - x.min() + rng.uniform(0.0, 1.0)


def engine_calls(o, inst):
    """Positional arguments of the seven engines, in ENGINES order."""
    return (
        (o["A"], o["B"], o["W"], o["P"]),
        (o["AC"], o["BC"]),
        (o["A"], o["W"], o["P"], o["psi"]),
        (o["AC"], o["P"], o["psi"]),
        (o["AC"], o["P"], o["psi"]),
        (o["A"], o["W"], inst["pvec"], inst["qvec"]),
        (o["AC"], inst["pidx"], inst["qidx"]),
    )


def engine_sides(name, rep):
    if name in ("lupas_check", "pecaric_check"):
        return rep.lhs, rep.rhs
    if name in ("hhf_bounds", "convex_hhf_bounds"):
        return rep.lower, rep.value, rep.upper
    if name == "niezgoda_bound":
        return rep.value, rep.upper
    return (rep.margin,)


def failed(x) -> bool:
    return isinstance(x, Failed)


class EngineSet:
    """Shared by ``engines_large`` and ``many_small``: one witnessed instance
    (a, b, t, p), index-convex (ac, bc), majorized pvec/qvec and pidx/qidx,
    run through validation, the seqcore/polyext/functionals calls and all
    seven inequality engines."""

    round = 1
    interval_and_generator = True  # construct_witness_on_interval and gen_relative_convex_pair

    @staticmethod
    def make(rng, n, shape, psi_name, pairs):
        t = gen.witness(rng, n)
        a = gen.convex_over(rng, t, shape)
        b = gen.convex_over(rng, t, "v")
        idx = np.arange(1.0, n + 1.0)
        ac = gen.convex_over(rng, idx, "v")
        bc = gen.convex_over(rng, idx, "v")
        if psi_name == "square":
            a, ac = nonnegative(rng, a), nonnegative(rng, ac)
        cli_psi, psi_np = psi_for(rng, psi_name, a)
        pvec, qvec = gen.majorized_reals(rng, float(t[0]), float(t[-1]), 2 * pairs)
        pidx, qidx = gen.majorized_indices(rng, n, 2 * pairs)
        p = gen.weights(rng, n)
        return {
            "n": n, "np": {"a": a, "b": b, "t": t, "p": p, "ac": ac, "bc": bc},
            "a": a.tolist(), "b": b.tolist(), "t": t.tolist(), "p": p.tolist(),
            "ac": ac.tolist(), "bc": bc.tolist(),
            "pvec": pvec, "qvec": qvec, "pidx": pidx, "qidx": qidx,
            "psi": rc.parse_psi(cli_psi), "psi_np": psi_np,
            "gen_seed": int(rng.integers(0, 2**31 - 1)),
        }

    def run(self, inst, rec):
        call = rec.call
        out = {}
        o = {
            "A": call("seqcore.validate", rc.RealSeq, inst["a"]),
            "B": call("seqcore.validate", rc.RealSeq, inst["b"]),
            "AC": call("seqcore.validate", rc.RealSeq, inst["ac"]),
            "BC": call("seqcore.validate", rc.RealSeq, inst["bc"]),
            "W": call("seqcore.validate", rc.Witness.of, inst["t"]),
            "P": call("functionals.validate", rc.WeightVec, inst["p"]),
        }
        out["objects"] = o
        if any(failed(v) for v in o.values()):
            return out
        o["psi"] = inst["psi"]
        A, W, P = o["A"], o["W"], o["P"]
        out["seqcore.is_convex_wrt"] = call("seqcore.is_convex_wrt", rc.is_convex_wrt, A, W)
        out["seqcore.is_convex"] = call("seqcore.is_convex", rc.is_convex, o["AC"])
        out["seqcore.classify_shape"] = call("seqcore.classify_shape", rc.classify_shape, A)
        if self.interval_and_generator:
            out["seqcore.construct_witness_on_interval"] = call(
                "seqcore.construct_witness_on_interval", rc.construct_witness_on_interval, A, 0.0, 1.0)
        ext = out["polyext.build_extension"] = call("polyext.build_extension", rc.build_extension, A, W)
        if not failed(ext):
            out["polyext.sample"] = call("polyext.sample", rc.sample, ext, self.resolution)
        out["functionals.weighted_mean"] = call("functionals.weighted_mean", rc.weighted_mean, W, P)
        out["functionals.cov_functional"] = call("functionals.cov_functional", rc.cov_functional, A, W, P)
        out["functionals.lupas_constant"] = call("functionals.lupas_constant", rc.lupas_constant, W)
        out["functionals.majorizes"] = call("functionals.majorizes", rc.majorizes, inst["pvec"], inst["qvec"])
        out["inequalities.spot_check_map"] = call(
            "inequalities.spot_check_map", rc.spot_check_map, inst["psi"], A.values)
        for (_, op, _, fn), args in zip(ENGINE_OPS, engine_calls(o, inst)):
            out[op] = call(op, fn, *args)
        if self.interval_and_generator:
            out["oracles.gen_relative_convex_pair"] = call(
                "oracles.gen_relative_convex_pair", rc.gen_relative_convex_pair, inst["n"], inst["gen_seed"])
        return out

    def probe(self, inst, out, rec):
        """Each engine again with ``skip_verify=True``: its cost without re-verification."""
        o = out["objects"]
        if any(failed(v) for v in o.values()):
            return
        for (_, _, op, fn), args in zip(ENGINE_OPS, engine_calls(o, inst)):
            rec.call(op, fn, *args, skip_verify=True)

    def check(self, inst, out, rec, sides):
        """Verdicts must all hold (witnessed by construction); sides must match ``sides``."""
        x = inst["np"]
        a, t, p = x["a"], x["t"], x["p"]

        def expect(op, ok, error="WrongOutput"):
            res = out.get(op)
            if res is not None and not failed(res) and not ok(res):
                rec.reject(op, error)

        holds = lambda r: r.holds  # noqa: E731
        expect("seqcore.is_convex_wrt", holds, "WrongVerdict")
        expect("seqcore.is_convex", holds, "WrongVerdict")
        expect("seqcore.classify_shape", lambda r: r.variant in RELATIVE_CONVEX_KINDS, "WrongVerdict")
        check_interval_witness(out.get("seqcore.construct_witness_on_interval"), a, rec)
        expect("polyext.build_extension",
               lambda e: ref.close(e.slopes, np.diff(a) / np.diff(t)))
        expect("polyext.sample", lambda rows: len(rows) == self.resolution and ref.close(
            [v for _, v in rows], np.interp([x_ for x_, _ in rows], t, a)))
        expect("functionals.weighted_mean",
               lambda v: ref.close([v], [(p * t).sum() / p.sum()]), "SideMismatch")
        expect("functionals.cov_functional", lambda v: ref.close([v], [ref.cov(a, t, p)]), "SideMismatch")
        expect("functionals.lupas_constant", lambda v: ref.close([v], [ref.lupas_constant(t)]), "SideMismatch")
        expect("functionals.majorizes", lambda v: v is True, "WrongVerdict")
        expect("inequalities.spot_check_map", lambda v: v is True, "WrongVerdict")
        for name, op, _, _ in ENGINE_OPS:
            rep = out.get(op)
            if rep is None or failed(rep):
                continue
            want, scale = sides(name)
            if not rep.holds:
                rec.reject(op, "WrongVerdict")
            elif not ref.close(engine_sides(name, rep), want, scale):
                rec.reject(op, "SideMismatch")
        check_pair(out.get("oracles.gen_relative_convex_pair"), inst["n"], rec)


def check_interval_witness(w, a, rec):
    """A witness from ``construct_witness_on_interval(a, 0, 1)`` spans [0, 1] and is one for ``a``."""
    if w is not None and not failed(w) and not (
            w[0] == 0.0 and w[-1] == 1.0 and ref.slopes_nondecreasing(a, np.array(w.values))):
        rec.reject("seqcore.construct_witness_on_interval", "WrongOutput")


def check_pair(pair, n, rec):
    """A pair from ``gen_relative_convex_pair(n, seed)`` has length n and is relatively convex."""
    if pair is not None and not failed(pair):
        ga, gt = pair
        if not (len(ga) == len(gt) == n
                and ref.slopes_nondecreasing(np.array(ga.values), np.array(gt.values))):
            rec.reject("oracles.gen_relative_convex_pair", "WrongOutput")


def side_table(sides, majorization, integer_majorization):
    """Engine name -> (reference sides, scale), as :meth:`EngineSet.check` takes them.

    A majorization margin is a difference of two sums (q side minus p side),
    so it is compared at the scale of the sums.
    """
    table = {name: (v, None) for name, v in sides.items()}
    for name, (p_sum, q_sum) in (("majorization_inequality_check", majorization),
                                 ("integer_majorization_check", integer_majorization)):
        table[name] = ((q_sum - p_sum,), max(abs(p_sum), abs(q_sum)))
    return table.__getitem__


def numpy_sides(inst):
    """Reference sides of every engine from the numpy two-pass formulas."""
    x = inst["np"]
    psi = inst["psi_np"]
    sp, sq = ref.majorization(x["a"], x["t"], inst["pvec"], inst["qvec"])
    ip, iq = ref.integer_majorization(x["ac"], inst["pidx"], inst["qidx"])
    return side_table({
        "lupas_check": ref.lupas(x["a"], x["b"], x["t"], x["p"]),
        "pecaric_check": ref.pecaric(x["ac"], x["bc"]),
        "hhf_bounds": ref.hhf(x["a"], x["t"], x["p"], psi),
        "niezgoda_bound": ref.niezgoda(x["ac"], x["p"], psi),
        "convex_hhf_bounds": ref.convex_hhf(x["ac"], x["p"], psi),
    }, (sp, sq), (ip, iq))


def brute_sides(inst):
    """Reference sides of every engine from the program's naive re-evaluators."""
    a, b, t, p, ac, bc, psi = (inst[k] for k in ("a", "b", "t", "p", "ac", "bc", "psi"))
    sp, sq = brute_reeval({"kind": "majorization", "a": a, "t": t,
                           "pvec": inst["pvec"], "qvec": inst["qvec"]})
    ip, iq = brute_reeval({"kind": "integer_majorization", "a": ac,
                           "pidx": inst["pidx"], "qidx": inst["qidx"]})
    return side_table({
        "lupas_check": brute_reeval({"kind": "lupas", "a": a, "b": b, "t": t, "p": p}),
        "pecaric_check": brute_reeval({"kind": "pecaric", "a": ac, "b": bc}),
        "hhf_bounds": brute_reeval({"kind": "hhf", "a": a, "t": t, "p": p, "psi": psi}),
        "niezgoda_bound": brute_reeval({"kind": "niezgoda", "a": ac, "p": p, "psi": psi}),
        "convex_hhf_bounds": brute_reeval({"kind": "convex_hhf", "a": ac, "p": p, "psi": psi}),
    }, (sp, sq), (ip, iq))


DEFECT_SEEDS = 8


class EnginesLarge(EngineSet):
    name = "engines_large"
    in_process = True
    interval_and_generator = False  # in seed_defects() instead
    resolution = 1000
    import_target = "relconvex"

    def __init__(self, small: bool = False):
        self.n = 2_000 if small else 100_000
        self.pairs = 50 if small else 500

    def generate(self, seed, i):
        rng = np.random.default_rng([seed, i])
        return self.make(rng, self.n, "v", "relu", self.pairs) | {"psi": rc.make_relu(0.0),
                                                                   "psi_np": lambda x: np.maximum(x, 0.0)}

    def elements(self, inst):
        return inst["n"]

    def check(self, inst, out, rec):
        super().check(inst, out, rec, numpy_sides(inst))

    def seed_defects(self, seed, rec):
        """The calls known to fail at n = 10^5, made once per run after the timed instances.

        ``construct_witness_on_interval(a, 0, 1)`` on instance 0's ``a``, and
        ``gen_relative_convex_pair(n, s)`` for ``DEFECT_SEEDS`` seeds drawn
        from ``seed``.  When this benchmark was written, the first raised
        ``WitnessNotIncreasing`` and the second ``ValueError`` (overflow in
        its ``exp`` family) on about 3 seeds in 10.  Kept apart from the
        instances, so that the operations the run times and counts do not
        fail; ``run.py`` reports these failures by operation and error class
        with every result.
        """
        inst = self.generate(seed, 0)
        a = rec.call("seqcore.validate", rc.RealSeq, inst["a"])
        if not failed(a):
            check_interval_witness(rec.call("seqcore.construct_witness_on_interval",
                                            rc.construct_witness_on_interval, a, 0.0, 1.0),
                                   inst["np"]["a"], rec)
        rng = np.random.default_rng([seed, self.n])
        for s in rng.integers(0, 2**31 - 1, DEFECT_SEEDS):
            check_pair(rec.call("oracles.gen_relative_convex_pair",
                                rc.gen_relative_convex_pair, self.n, int(s)), self.n, rec)


def characterise(out, rec, A, W, inc_a, inc_t, psi, violated):
    """The characterisation battery on a witnessed pair (A, W)."""
    for op, fn in CHARACTERISATIONS:
        out[op] = rec.call(op, fn, A, W)
    if inc_a is not None:
        out[GROWTH] = rec.call(GROWTH, rc.increment_growth_check, inc_a, inc_t)
    out[PSI_KEEP] = rec.call(PSI_KEEP, rc.psi_preservation_check, A, W, psi,
                             expect=PreconditionViolation if violated else None)


def check_characterisations(out, rec, holds, ops):
    """Every characterisation and the slope test must agree with the label."""
    for op in ops:
        rep = out.get(op)
        if rep is not None and not failed(rep) and rep.holds != holds:
            rec.reject(op, "WrongVerdict")
    kept = out.get(PSI_KEEP)
    if kept is None or failed(kept):
        return
    if not holds:
        rec.reject(PSI_KEEP, "MissedPrecondition")
    elif not kept.holds:
        rec.reject(PSI_KEEP, "WrongVerdict")


def increasing_half(a, t):
    k = int(np.argmin(a))
    if len(a) - k < 3:
        return None, None
    return a[k:].tolist(), t[k:].tolist()


class ManySmall(EngineSet):
    """Thousands of short instances: the engine set, the characterisation
    battery and a fuzz slice through the seeded generators."""

    name = "many_small"
    in_process = True
    import_target = "relconvex"
    round = 24  # every (shape, map) pairing and every ShapeKind, equally often
    resolution = 64  # as many samples as the longest instance has points

    def __init__(self, small: bool = False):
        self.kinds = tuple(rc.ShapeKind)

    def generate(self, seed, i):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(5, 65))
        inst = self.make(rng, n, gen.SHAPES[i % 3], PSI_NAMES[i % 4], 4)
        a = inst["np"]["a"]
        inst["inc_a"], inst["inc_t"] = increasing_half(a, inst["np"]["t"])
        inst["schedule"] = gen.canonical_schedule(a)
        inst["q"] = float(rng.uniform(inst["t"][0], inst["t"][-1]))
        inst["kind"] = self.kinds[i % len(self.kinds)]
        inst["fuzz_u"] = rng.uniform(0.0, 1.0, 4).tolist()
        inst["fuzz_seeds"] = [int(s) for s in rng.integers(0, 2**31 - 1, 3)]
        return inst

    def elements(self, inst):
        return inst["n"]

    def run(self, inst, rec):
        out = super().run(inst, rec)
        o = out["objects"]
        if any(failed(v) for v in o.values()):
            return out
        call = rec.call
        n = inst["n"]
        out["seqcore.construct_witness"] = call(
            "seqcore.construct_witness", rc.construct_witness, o["A"], inst["schedule"])
        out["polyext.floor_wrt"] = call("polyext.floor_wrt", rc.floor_wrt, o["W"], inst["q"])
        characterise(out, rec, o["A"], o["W"], inst["inc_a"], inst["inc_t"], inst["psi"], False)
        s_shape, s_pair, s_maj = inst["fuzz_seeds"]
        shp = out["oracles.gen_shape"] = call("oracles.gen_shape", rc.gen_shape, inst["kind"], n, s_shape)
        if not failed(shp):
            out["seqcore.classify_shape.fuzz"] = call("seqcore.classify_shape.fuzz", rc.classify_shape, shp)
        pair = out["oracles.gen_relative_convex_pair"]
        if not failed(pair):
            ga, gt = pair
            lo, hi = gt[0], gt[-1]
            q = [lo + (hi - lo) * u for u in inst["fuzz_u"]]
            pv = out["oracles.gen_majorized_pair"] = call(
                "oracles.gen_majorized_pair", rc.gen_majorized_pair, q, 8, s_maj)
            if not failed(pv):
                out["fuzz.q"] = q
                out["inequalities.majorization_inequality_check.fuzz"] = call(
                    "inequalities.majorization_inequality_check.fuzz",
                    rc.majorization_inequality_check, ga, gt, pv, q)
        return out

    def check(self, inst, out, rec):
        super().check(inst, out, rec, brute_sides(inst))
        if failed(out["objects"]["A"]):
            return
        x = inst["np"]
        wit = out.get("seqcore.construct_witness")
        if wit is not None and not failed(wit) and not ref.slopes_nondecreasing(x["a"], np.array(wit.values)):
            rec.reject("seqcore.construct_witness", "WrongOutput")
        fl = out.get("polyext.floor_wrt")
        if fl is not None and not failed(fl) and fl != min(int(np.searchsorted(x["t"], inst["q"], "right")), inst["n"]):
            rec.reject("polyext.floor_wrt", "WrongOutput")
        ops = [op for op, _ in CHARACTERISATIONS] + [GROWTH]
        check_characterisations(out, rec, True, ops)
        cls = out.get("seqcore.classify_shape.fuzz")
        if cls is not None and not failed(cls) and cls.variant is not inst["kind"]:
            rec.reject("seqcore.classify_shape.fuzz", "WrongVerdict")
        op = "inequalities.majorization_inequality_check.fuzz"
        rep = out.get(op)
        if rep is not None and not failed(rep):
            ga, gt = out["oracles.gen_relative_convex_pair"]
            sp, sq = brute_reeval({"kind": "majorization", "a": list(ga.values), "t": list(gt.values),
                                   "pvec": list(out["oracles.gen_majorized_pair"]),
                                   "qvec": out["fuzz.q"]})
            if not rep.holds:
                rec.reject(op, "WrongVerdict")
            elif not ref.close([rep.margin], [sq - sp], max(abs(sp), abs(sq))):
                rec.reject(op, "SideMismatch")


class DiagnoseMid:
    """The characterisation battery at n = 10^3, plus all C(100, 3) triples
    at n = 100.  Even instances hold; odd ones carry one lifted point."""

    name = "diagnose_mid"
    in_process = True
    import_target = "relconvex"
    round = 2

    def __init__(self, small: bool = False):
        self.n, self.n_triples = (60, 20) if small else (1_000, 100)

    def _pair(self, rng, n, violated):
        t = gen.witness(rng, n)
        a = nonnegative(rng, gen.convex_over(rng, t, "v"))
        if violated:
            a = gen.break_convexity(rng, a, t)
        return a, t

    def generate(self, seed, i):
        rng = np.random.default_rng([seed, i])
        violated = i % 2 == 1
        a, t = self._pair(rng, self.n, violated)
        a3, t3 = self._pair(rng, self.n_triples, violated)
        inc_a, inc_t = increasing_half(a, t)
        psi_name = ("identity", "relu", "square")[(i // 2) % 3]
        return {
            "violated": violated, "a": a.tolist(), "t": t.tolist(),
            "inc_a": inc_a, "inc_t": inc_t,
            "a3": a3.tolist(), "t3": t3.tolist(),
            "psi": rc.parse_psi(psi_for(rng, psi_name, a)[0]),
        }

    def elements(self, inst):
        return self.n

    def run(self, inst, rec):
        call = rec.call
        out = {}
        A = call("seqcore.validate", rc.RealSeq, inst["a"])
        W = call("seqcore.validate", rc.Witness.of, inst["t"])
        A3 = call("seqcore.validate", rc.RealSeq, inst["a3"])
        W3 = call("seqcore.validate", rc.Witness.of, inst["t3"])
        if any(failed(v) for v in (A, W, A3, W3)):
            return out
        out["seqcore.is_convex_wrt"] = call("seqcore.is_convex_wrt", rc.is_convex_wrt, A, W)
        characterise(out, rec, A, W, inst["inc_a"], inst["inc_t"], inst["psi"], inst["violated"])
        out["diagnostics.collinearity_all_triples"] = call(
            "diagnostics.collinearity_all_triples", rc.collinearity_determinant_check,
            A3, W3, all_triples=True)
        return out

    def probe(self, inst, out, rec):
        pass

    def check(self, inst, out, rec):
        ops = ["seqcore.is_convex_wrt", GROWTH, "diagnostics.collinearity_all_triples"]
        check_characterisations(out, rec, not inst["violated"], ops + [op for op, _ in CHARACTERISATIONS])


SCHEMA_KEYS = {"command", "verdict", "margin_or_slacks", "parameters", "tolerance", "version"}
CLI_MIX = (
    ("classify",), ("check",), ("check", "--wrt"), ("witness",),
    ("subdivide", "--alpha", "0", "--beta", "1"), ("extend",), ("lupas",), ("pecaric",),
    ("hhf",), ("niezgoda",), ("hhf-convex",), ("majorize", "witness"), ("majorize", "index"),
    ("diagnose",), ("fuzz",),
)
SHAPE_VERDICT = {"v": "dec_then_inc", "inc": "strictly_increasing", "dec": "strictly_decreasing"}


def run_process(argv, payload: bytes, env, cwd):
    """One ``python -m relconvex.cli`` process: (exit code, stdout, stderr, peak RSS in KiB)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "relconvex.cli", *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd,
    )
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        # wait4 rather than communicate(): it also returns the child's rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, out, err, usage.ru_maxrss


def main_in_process(main, argv, payload: str):
    """The CLI's ``main(argv)`` in this process, stdin and stdout redirected."""
    saved = sys.stdin
    sys.stdin = io.StringIO(payload)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(list(argv))
    finally:
        sys.stdin = saved


class CliOneshot:
    """Sequential ``python -m relconvex.cli <cmd> --input -`` processes, one
    client, closed loop, cycling through every subcommand with n <= 64."""

    name = "cli_oneshot"
    in_process = False
    import_target = "relconvex.cli"
    round = len(CLI_MIX)

    def __init__(self, small: bool = False, root=".", env=None, out_dir="."):
        from relconvex.cli import main

        self.main = main
        self.root = root
        self.env = env
        self.out_dir = out_dir
        self.fuzz_trials = "5" if small else "20"
        self.peak_rss_kb = 0

    def generate(self, seed, i):
        rng = np.random.default_rng([seed, i])
        case = CLI_MIX[i % len(CLI_MIX)]
        psi_name = PSI_NAMES[(i // len(CLI_MIX)) % len(PSI_NAMES)]
        n = int(rng.integers(5, 65))
        t = gen.witness(rng, n)
        idx = np.arange(1.0, n + 1.0)
        a = gen.convex_over(rng, t, "v")
        ac = gen.convex_over(rng, idx, "v")
        cmd, extra = case[0], list(case[1:])
        verdict = "holds"
        files = {}
        if cmd == "classify":
            shape = gen.SHAPES[int(rng.integers(0, 3))]
            payload = {"a": gen.convex_over(rng, t, shape)}
            verdict = SHAPE_VERDICT[shape]
        elif cmd == "check":
            payload = {"a": a, "t": t} if extra else {"a": ac}
        elif cmd in ("witness", "subdivide"):
            payload = {"a": a}
        elif cmd == "extend":
            path = os.path.join(self.out_dir, "extend.csv")
            extra = ["--output", path, "--resolution", "64"]
            files[path] = 65
            payload = {"a": a, "t": t}
        elif cmd == "lupas":
            payload = {"a": a, "b": gen.convex_over(rng, t, "v"), "t": t, "p": gen.weights(rng, n)}
        elif cmd == "pecaric":
            payload = {"a": ac, "b": gen.convex_over(rng, idx, "v")}
        elif cmd in ("hhf", "niezgoda", "hhf-convex"):
            seq = a if cmd == "hhf" else ac
            if psi_name == "square":
                seq = nonnegative(rng, seq)
            psi_arg, _ = psi_for(rng, psi_name, seq)
            extra = ["--psi", psi_arg]
            payload = {"a": seq, "p": gen.weights(rng, n)}
            if cmd == "hhf":
                payload["t"] = t
        elif cmd == "majorize":
            if extra == ["witness"]:
                pvec, qvec = gen.majorized_reals(rng, float(t[0]), float(t[-1]), 8)
                payload = {"a": a, "t": t, "pvec": pvec, "qvec": qvec}
            else:
                pvec, qvec = gen.majorized_indices(rng, n, 8)
                payload = {"a": ac, "pvec": pvec, "qvec": qvec}
            extra = []
        elif cmd == "diagnose":
            payload = {"a": a, "t": t}
        else:  # fuzz
            extra = ["--trials", self.fuzz_trials, "--seed", str(int(rng.integers(0, 10**6)))]
            payload = None
        argv = [cmd, *extra]
        text = ""
        if payload is not None:
            argv += ["--input", "-"]
            text = json.dumps({k: np.asarray(v, dtype=float).tolist() for k, v in payload.items()})
        return {"argv": argv, "stdin": text, "verdict": verdict, "files": files, "n": n}

    def elements(self, inst):
        return inst["n"]

    def run(self, inst, rec):
        return {"cli.process": rec.call("cli.process", run_process, inst["argv"],
                                        inst["stdin"].encode(), self.env, self.root)}

    def probe(self, inst, out, rec):
        """The same command through ``main(argv)`` in this process: no start-up, no import."""
        rec.call("cli.main", main_in_process, self.main, inst["argv"], inst["stdin"])

    def check(self, inst, out, rec):
        res = out["cli.process"]
        if failed(res):
            return
        code, stdout, stderr, rss_kb = res
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        lines = stdout.decode(errors="replace").splitlines()
        try:
            report = json.loads(lines[0]) if len(lines) == 1 else None
        except json.JSONDecodeError:
            report = None
        if code == 2:  # the CLI's error exit: the analogue of a raised exception
            rec.fail("cli.process", "ExitCode2")
        elif code != 0:
            rec.reject("cli.process", f"ExitCode{code}")
        elif report is None or set(report) != SCHEMA_KEYS:
            rec.reject("cli.process", "BadReport")
        elif report["verdict"] != inst["verdict"]:
            rec.reject("cli.process", "WrongVerdict")
        elif inst["argv"][0] == "diagnose" and report["margin_or_slacks"].get("agree") is not True:
            rec.reject("cli.process", "WrongVerdict")
        else:
            for path, lines_expected in inst["files"].items():
                with open(path, encoding="utf-8") as fh:
                    rows = fh.read().splitlines()
                if len(rows) != lines_expected or rows[0] != "x,value":
                    rec.reject("cli.process", "BadArtifact")


WORKLOADS = {w.name: w for w in (EnginesLarge, ManySmall, DiagnoseMid, CliOneshot)}
