"""First calls on tiny literal inputs: the warm-up part of ``setup_s``.

Imports nothing but the program, so that a fresh interpreter running
``import <target>; warmup.WARMUPS[name]()`` pays only the program's own
import and first-call costs.
"""

A = [4.0, 1.0, 0.0, 2.0, 6.0]
T = [1.0, 2.0, 3.0, 4.0, 5.0]
P = [1.0, 2.0, 1.0, 2.0, 1.0]


def engines():
    import relconvex as rc

    a, t, p = rc.RealSeq(A), rc.Witness.of(T), rc.WeightVec(P)
    relu = rc.make_relu(0.0)
    rc.is_convex_wrt(a, t)
    rc.is_convex(a)
    rc.classify_shape(a)
    rc.construct_witness_on_interval(a, 0.0, 1.0)
    rc.sample(rc.build_extension(a, t), 8)
    rc.weighted_mean(t, p)
    rc.cov_functional(a, t, p)
    rc.lupas_constant(t)
    rc.majorizes([2.0, 2.0], [1.0, 3.0])
    rc.spot_check_map(relu, A)
    rc.lupas_check(a, a, t, p)
    rc.pecaric_check(a, a)
    rc.hhf_bounds(a, t, p, relu)
    rc.niezgoda_bound(a, p, relu)
    rc.convex_hhf_bounds(a, p, relu)
    rc.majorization_inequality_check(a, t, [2.0, 2.0], [1.0, 3.0])
    rc.integer_majorization_check(a, [2, 2], [1, 3])
    rc.gen_relative_convex_pair(5, 0)


def diagnostics():
    import relconvex as rc

    a, t = rc.RealSeq(A), rc.Witness.of(T)
    rc.is_convex_wrt(a, t)
    rc.neighbor_chord_check(a, t)
    rc.collinearity_determinant_check(a, t)
    rc.collinearity_determinant_check(a, t, all_triples=True)
    rc.anchored_slope_check_all(a, t)
    rc.increment_growth_check(A[2:], T[2:])
    rc.psi_preservation_check(a, t, rc.psi_identity)


def engines_and_battery():
    import relconvex as rc

    engines()
    diagnostics()
    rc.construct_witness(A, [-2.0, -1.0, 1.0, 2.0])
    rc.floor_wrt(T, 2.5)
    rc.gen_majorized_pair(rc.gen_shape("dec_then_inc", 5, 0).values, 2, 0)


def cli():
    import contextlib
    import io
    import sys

    from relconvex.cli import main

    saved = sys.stdin
    sys.stdin = io.StringIO('{"a": [4, 1, 0, 2, 6]}')
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(["classify", "--input", "-"])
    finally:
        sys.stdin = saved


WARMUPS = {"engines_large": engines, "many_small": engines_and_battery, "diagnose_mid": diagnostics, "cli_oneshot": cli}
