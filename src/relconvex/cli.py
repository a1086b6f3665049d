"""Command-line interface: load sequences from JSON or CSV, run checks, emit JSON reports.

Every command prints a single-line JSON report with the keys
{command, verdict, margin_or_slacks, parameters, tolerance, version};
non-finite floats are written as null.  Exit codes: 0 = holds/success,
1 = inequality violated or profile rejected, 2 = parse or precondition
error, or floating-point overflow.  Besides the shared flags, a command
takes only the flags its call reads, listed in its ``Command.flags``.

A run builds the subparser of its command alone and loads only the library
modules that command calls; help, no arguments and an unknown command build
them all.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import relconvex as rc  # an engine's module loads when a command reads its first name from rc
from .errors import RelConvexError
from .seqcore import (
    DEFAULT_TOL,
    RealSeq,
    ShapeKind,
    Tolerance,
    _minimal_block,
    classify_shape,
    construct_witness,
    construct_witness_on_interval,
    is_convex,
    is_convex_wrt,
    paired,
)

ENV_TOL_ABS = "RELCONVEX_TOL_ABS"


def _number(name: str, k: int, value) -> float:
    """A JSON number (a float, inf and NaN too); anything else (null, true, "4", a list) is a ValueError."""
    if type(value) is not float:
        raise ValueError(f"entry {k} of {name!r} is not a number: {json.dumps(value)}")
    return value


def _named(pairs) -> dict:
    """``(name, value)`` pairs as a dict; a repeated non-blank name is a ValueError naming it."""
    out = {}
    for name, value in pairs:
        if name and name in out:
            raise ValueError(f"input name {name!r} appears twice")
        out[name] = value
    return out


def _load_inputs(path: str) -> dict[str, list[float]]:
    """Named sequences from a JSON object, each number a float (a huge integer is inf, as 1e400 is),
    or from CSV columns that end at their first blank cell; the library judges their finiteness."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    if text.lstrip().startswith("{"):
        data = json.loads(text, object_pairs_hook=_named, parse_int=float)
        return {
            str(k): [_number(str(k), i, v) for i, v in enumerate(vals, 1)]
            for k, vals in data.items()
            if isinstance(vals, list)
        }
    import csv

    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ValueError("CSV input needs a header row of sequence names")
    # trailing commas give a CSV header blank names, which may repeat
    reader.fieldnames = [name.strip() for name in reader.fieldnames]
    out: dict[str, list[float]] = _named((name, []) for name in reader.fieldnames)
    ended = set()  # the columns that had a blank cell
    for row in reader:
        # rows are numbered as in the file, the header being row 1
        if None in row:
            raise ValueError(f"row {reader.line_num} has more cells than the header has names")
        for name, cell in row.items():
            if cell is None or not cell.strip():
                ended.add(name)
            elif name in ended:
                raise ValueError(f"row {reader.line_num} of column {name!r} lies below a blank cell")
            else:
                try:
                    out[name].append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"row {reader.line_num} of column {name!r} is not a number: {cell!r}"
                    ) from None
    return {k: v for k, v in out.items() if v}


def _tolerance(args) -> Tolerance:
    abs_tol = args.tol_abs
    if abs_tol is None:
        abs_tol = float(os.environ.get(ENV_TOL_ABS, DEFAULT_TOL.abs))
    return Tolerance(abs=abs_tol, rel=args.tol_rel)


def _need(inputs: dict, *names: str) -> list[list[float]]:
    out = []
    for name in names:
        if name not in inputs:
            raise ValueError(f"missing input sequence {name!r}")
        out.append(inputs[name])
    return out


def _report(args, verdict: str, margins: dict, parameters: dict, tol: Tolerance) -> dict:
    return {
        "command": args.command,
        "verdict": verdict,
        "margin_or_slacks": margins,
        "parameters": parameters,
        "tolerance": {"abs": tol.abs, "rel": tol.rel},
        "version": rc.__version__,
    }


def _jsonable(value):
    """The report with non-finite floats as None, so that it is standard JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(report: dict, destination: str = "-") -> None:
    line = json.dumps(_jsonable(report), sort_keys=True, allow_nan=False)
    if destination == "-":
        print(line)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")


def _default_schedule(a, tol):
    """Canonical slope schedule (-k..-1 then 1..m) for a V-shaped sequence; ShapeError otherwise."""
    first, last = _minimal_block(a, tol)
    return [float(-k) for k in range(first, 0, -1)] + [float(k) for k in range(1, len(a) - last)]


class Command(NamedTuple):
    """One subcommand: help line, required inputs, the engine call on them
    (after ``args``), and the report mapper from the call's result to
    ``(holds, verdict, margin_or_slacks)``; calls that already return that
    triple keep the default mapper."""

    help: str
    needs: tuple[str, ...]
    call: Callable
    report: Callable = lambda result: result
    flags: tuple = ()  # extra arguments as (flag, add_argument keywords) pairs
    artifact: bool = False  # writes CSV to --output; the report goes to stdout only when that is a file


def _verdict(holds: bool, margins: dict) -> tuple[bool, str, dict]:
    return holds, "holds" if holds else "violated", margins


def _judged(*fields: str) -> Callable:
    return lambda rep: _verdict(rep.holds, {f: getattr(rep, f) for f in fields})


def _classified(shape):
    bp = shape.breakpoints
    margins = {} if bp is None else {"m": bp[0], "ell": bp[1]}
    return shape.variant is not ShapeKind.NOT_STRICTLY_V_SHAPED, shape.variant.value, margins


def _witnessed(args, a, wit):
    return True, "holds", {"witness": list(wit.values), "margin": is_convex_wrt(a, wit, args.tol).margin}


def _weights(args, n: int) -> list[float]:
    args.params["p"] = p = args.inputs.get("p", [1.0] * n)
    return p


def _check(args, a):
    if args.wrt:
        (t,) = _need(args.inputs, "t")
        return is_convex_wrt(a, t, args.tol)
    return is_convex(a, args.tol)


def _witness(args, a):
    a = RealSeq.of(a, "a")
    sched = args.inputs["s"] if "s" in args.inputs else _default_schedule(a, args.tol)
    wit = construct_witness(a, sched, t1=args.t1, plateau_step=args.plateau_step, tol=args.tol)
    args.params["s"] = sched
    return _witnessed(args, a, wit)


def _subdivide(args, a):
    a = RealSeq.of(a, "a")
    wit = construct_witness_on_interval(a, args.alpha, args.beta, args.tol)
    args.params.update(alpha=args.alpha, beta=args.beta)
    return _witnessed(args, a, wit)


def _extend(args, a, t):
    ext = rc.build_extension(a, t, args.tol)
    rows = rc.sample(ext, args.resolution)
    args.params["resolution"] = args.resolution
    csv_text = "x,value\n" + "".join(f"{x!r},{v!r}\n" for x, v in rows)
    if args.output == "-":
        # keep stdout machine-readable CSV; the report would corrupt it
        sys.stdout.write(csv_text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    return True, "holds", {"samples": len(rows), "slopes": list(ext.slopes)}


# flags that several subcommands take, each only where its call reads it
_SKIP_VERIFY = ("--skip-verify", dict(action="store_true",
                                      help="skip precondition verification (for probing converses)"))
_PSI = ("--psi", dict(default="identity", help="builtin map: identity, exp, relu@c, square"))

_SIDES = _judged("lhs", "rhs", "slack")
_BOUNDS = _judged("lower", "value", "upper", "slack_lower", "slack_upper", "m", "gamma_t", "lambda_t")


def _weighted(what: str, needs: tuple[str, ...], engine: str) -> Command:
    """The command of the psi-weighted bound ``rc.<engine>(a, [t,] p, psi, tol, skip_verify=...)``."""

    def call(args, a, *t):
        p = _weights(args, len(a))
        args.params["psi"] = args.psi
        return getattr(rc, engine)(a, *t, p, rc.parse_psi(args.psi), args.tol, skip_verify=args.skip_verify)

    return Command(what, needs, call, _BOUNDS, flags=(_SKIP_VERIFY, _PSI))


def _majorize(args, a, pvec, qvec):
    if "t" in args.inputs:
        t = args.inputs["t"]
        return rc.majorization_inequality_check(a, t, pvec, qvec, args.tol, skip_verify=args.skip_verify)
    # integer_majorization_check, its errors naming the vectors the input gives
    from .inequalities import _at_indices

    return _at_indices(a, pvec, qvec, args.tol, args.skip_verify, "pvec qvec")


def _diagnose(args, a, t):
    tol = args.tol
    a, t = paired(a, t, tol)
    slope = is_convex_wrt(a, t, tol)
    chord = rc.neighbor_chord_check(a, t, tol)
    det = rc.collinearity_determinant_check(a, t, tol)
    anchored = rc.anchored_slope_check_all(a, t, tol)
    margins = {
        "slope_margin": slope.margin,
        "chord_margin": chord.margin,
        "determinant_margin": det.margin,
        "anchored_margin": anchored.margin,
        "agree": slope.holds == chord.holds == det.holds == anchored.holds,
    }
    try:
        margins["growth_margin"] = rc.increment_growth_check(a, t, tol).margin
    except RelConvexError:
        margins["growth_margin"] = None
    return _verdict(slope.holds, margins)


def non_negative_int(text: str) -> int:
    """A non-negative integer flag value; anything else is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _fuzz(args):
    import random

    seeds = range(args.seed, args.seed + args.trials)
    reps = []
    for seed in seeds:
        a, t = rc.gen_relative_convex_pair(5 + seed % 8, seed)
        rng = random.Random(seed + 10_000)
        q = [rng.uniform(t[0], t[-1]) for _ in range(4)]
        pv = list(rc.gen_majorized_pair(q, 8, seed + 20_000))
        reps.append(rc.majorization_inequality_check(a, t, pv, q, args.tol))
    violating = [seed for seed, rep in zip(seeds, reps) if not rep.holds]
    return _verdict(not violating, {
        "trials": args.trials,
        "violations": len(violating),
        "min_margin": min((rep.margin for rep in reps), default=math.inf),
        "first_violating_seed": violating[0] if violating else None,
    })


COMMANDS = {
    "classify": Command("monotonicity profile of a", ("a",),
                        lambda args, a: classify_shape(a, args.tol), _classified),
    "check": Command("convexity of a (optionally w.r.t. t)", ("a",), _check,
                     _judged("margin", "first_violation"),
                     flags=(("--wrt", dict(action="store_true",
                                           help="check against the witness column t")),)),
    "witness": Command("build a witness from a slope schedule", ("a",), _witness,
                       flags=(("--t1", dict(type=float, default=0.0)),
                              ("--plateau-step", dict(type=float, default=1.0)))),
    "subdivide": Command("witness subdividing [alpha, beta]", ("a",), _subdivide,
                         flags=(("--alpha", dict(type=float, required=True)),
                                ("--beta", dict(type=float, required=True)))),
    "extend": Command("sample the polygonal extension as CSV", ("a", "t"), _extend, artifact=True,
                      flags=(("--resolution", dict(type=int, default=256, help="sample count for extend")),)),
    "lupas": Command("covariance bound for a, b sharing witness t", ("a", "b", "t"),
                     lambda args, a, b, t: rc.lupas_check(a, b, t, _weights(args, len(a)), args.tol,
                                                          skip_verify=args.skip_verify),
                     _SIDES, flags=(_SKIP_VERIFY,)),
    "pecaric": Command("raw-sum covariance bound for convex a, b", ("a", "b"),
                       lambda args, a, b: rc.pecaric_check(a, b, args.tol, skip_verify=args.skip_verify),
                       _SIDES, flags=(_SKIP_VERIFY,)),
    "hhf": _weighted("sandwich bounds for a witnessed sequence", ("a", "t"), "hhf_bounds"),
    "niezgoda": _weighted("one-sided endpoint bound, convex a", ("a",), "niezgoda_bound"),
    "hhf-convex": _weighted("two-sided bounds for convex a, raw sums", ("a",), "convex_hhf_bounds"),
    "majorize": Command("majorization inequality (witness mode with t, index mode without)",
                        ("a", "pvec", "qvec"), _majorize, _judged("margin"), flags=(_SKIP_VERIFY,)),
    "diagnose": Command("run the characterization battery on (a, t)", ("a", "t"), _diagnose),
    "fuzz": Command("randomized majorization fuzzing", (), _fuzz,
                    flags=(("--trials", dict(type=non_negative_int, default=100)),)),
}


def _is_negative_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return text[:1] == "-"


class _Parser(argparse.ArgumentParser):
    """Reads a negative number after a flag as its value, ``-1e5`` and ``-inf`` as argparse reads
    ``-1``, not as an option: ``--alpha -1e5`` is parsed as ``--alpha=-1e5``."""

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            if joined and joined[-1][:2] == "--" and "=" not in joined[-1] and _is_negative_number(arg):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


def _run(args) -> tuple[int, dict]:
    # the engine calls read the tolerance and inputs from args and add to the report's parameters
    args.tol = _tolerance(args)
    args.inputs = _load_inputs(args.input) if args.input else {}
    args.params = dict(args.inputs, seed=args.seed)
    command = COMMANDS[args.command]
    holds, verdict, margins = command.report(command.call(args, *_need(args.inputs, *command.needs)))
    return (0 if holds else 1), _report(args, verdict, margins, args.params, args.tol)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone, whose usage line lists them all."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", default=None, help="path to JSON/CSV inputs, or - for stdin")
    common.add_argument("--tol-abs", type=float, default=None,
                        help=f"absolute tolerance (default 1e-9; env {ENV_TOL_ABS} overrides)")
    common.add_argument("--tol-rel", type=float, default=DEFAULT_TOL.rel, help="relative tolerance")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    common.add_argument("--output", default="-", help="destination for CSV artifacts / report")

    parser = _Parser(
        prog="relconvex",
        description="Checks, witness constructions, and inequality bounds for relative convex sequences.",
    )
    # only on one command's parser: the full parser's errors name the command and list its choices
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        sp = sub.add_parser(name, parents=[common], help=COMMANDS[name].help)
        for flag, kwargs in COMMANDS[name].flags:
            sp.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # help, no arguments and an unknown command need every command's parser
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        code, report = _run(args)
        if not COMMANDS[args.command].artifact:
            _emit(report, args.output)
        elif args.output != "-":
            _emit(report)
        return code
    except (RelConvexError, ValueError, ArithmeticError, OSError) as exc:
        # ArithmeticError: overflow or division by zero in the floating-point
        # arithmetic, which says nothing about whether the inequality holds
        named = isinstance(exc, ArithmeticError)
        message = f"{type(exc).__name__}: {exc}" if named else str(exc)
        # the tolerance the command ran at; the default when building it failed
        _emit(_report(args, "error", {"message": message}, {}, vars(args).get("tol", Tolerance())))
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
