"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print; without ``-s`` they appear in the captured-output section of any
failure.  Seeds are fixed so every run checks the same instances.
"""

import math
import random
from itertools import accumulate
from operator import mul, sub
from statistics import median

import pytest

from relconvex import (
    DEFAULT_TOL,
    ShapeKind,
    anchored_slope_check_all,
    build_extension,
    classify_shape,
    collinearity_determinant_check,
    construct_witness,
    construct_witness_on_interval,
    floor_wrt,
    forward_diff,
    frac_wrt,
    hhf_bounds,
    integer_majorization_check,
    is_convex,
    is_convex_wrt,
    is_relative_convex,
    lupas_check,
    majorization_inequality_check,
    make_relu,
    neighbor_chord_check,
    niezgoda_bound,
    pecaric_check,
    psi_identity,
    psi_preservation_check,
    rate_diagnostic,
)
from relconvex.oracles import (
    brute_convex_hhf_bounds,
    brute_cov,
    brute_integer_sums,
    brute_majorization_sides,
    brute_pecaric_sides,
    brute_reeval,
    brute_weighted_mean,
    gen_majorized_pair,
    gen_relative_convex_pair,
    gen_shape,
)
from relconvex.inequalities import convex_hhf_bounds
from relconvex.functionals import cov_functional, lupas_constant, majorizes, weighted_mean


def report(num, ok, description):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def convex_seq(rng, n):
    return list(accumulate(sorted(rng.gauss(0, 2) for _ in range(n - 1)), initial=rng.uniform(-3, 3)))


def perturb(a, t, rng):
    vals = list(a)
    i = rng.randrange(1, len(vals) - 1)
    delta = (0.5 + rng.random()) * max(1.0, max(vals) - min(vals))
    while True:
        bumped = list(vals)
        bumped[i] += delta
        if is_convex_wrt(bumped, t).margin < -1e-3:
            return bumped
        delta *= 2.0


def test_criterion_1_fixed_regressions():
    ok = True
    a_log = [math.log(i) for i in range(3, 11)]
    t_loglog = [math.log(math.log(i)) for i in range(3, 11)]
    ok &= not is_convex(a_log).holds
    ok &= is_convex_wrt(a_log, t_loglog).holds

    ok &= floor_wrt([i - 1 for i in range(1, 7)], math.pi) == 4
    ok &= floor_wrt([math.log(i) for i in range(1, 6)], 0.25) == 1

    one = [math.sqrt(abs(n - 3)) for n in range(1, 13)]
    two = [math.sqrt(abs(n - 9)) for n in range(1, 13)]
    ok &= is_relative_convex(one) and is_relative_convex(two)
    ok &= classify_shape([x + y for x, y in zip(one, two)]).variant is ShapeKind.NOT_STRICTLY_V_SHAPED

    ok &= is_relative_convex([math.atan(n) for n in range(1, 51)])
    report(1, ok, "fixed example regressions (log pair, generalized floors, V-sum, arctan)")


def test_criterion_2_characterization_equivalence():
    agree = 0
    total = 1000
    for seed in range(total):
        rng = random.Random(seed + 2_000_000)
        n = rng.randrange(4, 14)
        a, t = gen_relative_convex_pair(n, seed)
        if seed % 2 == 1:
            a = perturb(list(a), t, rng)
        verdicts = {
            is_convex_wrt(a, t).holds,
            collinearity_determinant_check(a, t).holds,
            collinearity_determinant_check(a, t, all_triples=True).holds,
            anchored_slope_check_all(a, t).holds,
            neighbor_chord_check(a, t).holds,
        }
        if len(verdicts) == 1:
            agree += 1
    report(2, agree == total, f"characterization agreement on {agree}/{total} instances")


def test_criterion_3_witness_round_trip():
    kinds = [k for k in ShapeKind if k is not ShapeKind.NOT_STRICTLY_V_SHAPED]
    ok = True
    for kind in kinds:
        for trial in range(200):
            seed = 10_000 * (1 + kinds.index(kind)) + trial
            rng = random.Random(seed)
            n = rng.randrange(4, 12)
            a = gen_shape(kind, n, seed)
            d = forward_diff(a)
            n_dec = sum(1 for x in d if x < -DEFAULT_TOL.abs)
            n_inc = sum(1 for x in d if x > DEFAULT_TOL.abs)
            neg = [-s for s in accumulate(rng.uniform(0.1, 1.0) for _ in range(n_dec))][::-1]
            pos = list(accumulate(rng.uniform(0.1, 1.0) for _ in range(n_inc)))
            w = construct_witness(a, neg + pos, t1=rng.uniform(-5, 5), plateau_step=rng.uniform(0.2, 2.0))
            ok &= is_convex_wrt(a, w).margin >= -1e-9

            alpha = rng.uniform(-10, 10)
            beta = alpha + rng.uniform(0.1, 20.0)
            w2 = construct_witness_on_interval(a, alpha, beta)
            ok &= w2.values[0] == alpha and w2.values[-1] == beta
            ok &= is_convex_wrt(a, w2).margin >= -1e-9
    report(3, ok, "witness recursions and subdivisions round-trip for 7 x 200 shapes")


def test_criterion_4_lupas_suite():
    ok = True
    for seed in range(1000):
        rng = random.Random(seed + 4_000_000)
        n = rng.randrange(3, 13)
        a, t = gen_relative_convex_pair(n, seed)
        slopes = sorted(rng.gauss(0, 2) for _ in range(n - 1))
        b = list(accumulate(map(mul, slopes, map(sub, t.values[1:], t.values)), initial=rng.uniform(-4, 4)))
        p = [rng.uniform(0.05, 2.0) for _ in range(n)]
        rep = lupas_check(a, b, t, p)
        ok &= rep.slack >= -1e-9

        if seed % 5 == 0:
            c = rng.uniform(-2, 2)
            dshift = rng.uniform(-5, 5)
            affine = [c * x + dshift for x in t]
            ok &= abs(lupas_check(affine, b, t, p).slack) <= 1e-9

        if seed % 10 == 0:
            m = rng.randrange(3, 12)
            ca = convex_seq(rng, m)
            cb = convex_seq(rng, m)
            norm = lupas_check(ca, cb, list(range(1, m + 1)), [1.0] * m)
            raw = pecaric_check(ca, cb)
            for lo, hi in ((m * norm.lhs, raw.lhs), (m * norm.rhs, raw.rhs)):
                ok &= abs(lo - hi) <= 1e-9 * max(1.0, abs(hi))
            arith = [1.0 + 0.5 * k for k in range(m)]
            ok &= abs(pecaric_check(arith, cb).slack) <= 1e-9
    report(4, ok, "covariance bound over 1000 shared-witness instances with affine equality "
                  "and raw-sum reduction")


def test_criterion_5_hhf_suite():
    ok = True
    for seed in range(1000):
        rng = random.Random(seed + 5_000_000)
        n = rng.randrange(2, 13)
        a, t = gen_relative_convex_pair(n, seed + 50_000)
        p = [rng.uniform(0.05, 2.0) for _ in range(n)]
        which = seed % 3
        if which == 0:
            psi = psi_identity
        elif which == 1:
            psi = math.exp
        else:
            psi = make_relu(median(a.values))
        rep = hhf_bounds(a, t, p, psi)
        ok &= rep.holds
        if which != 1:
            ok &= rep.slack_lower >= -1e-9 and rep.slack_upper >= -1e-9

        if seed % 4 == 0:
            m = rng.randrange(2, 12)
            ca = convex_seq(rng, m)
            cp = [rng.uniform(0.05, 2.0) for _ in range(m)]
            unit = list(range(1, m + 1))
            hh = hhf_bounds(ca, unit, cp, psi_identity)
            nz = niezgoda_bound(ca, cp, psi_identity)
            ok &= abs(sum(cp) * hh.upper - nz.upper) <= 1e-9 * max(1.0, abs(nz.upper))

        if seed % 4 == 2:
            m = 2 * rng.randrange(2, 7)
            ca = convex_seq(rng, m)
            half = [rng.uniform(0.1, 2.0) for _ in range(m // 2)]
            cp = half + half[::-1]
            hh = hhf_bounds(ca, list(range(1, m + 1)), cp, psi_identity)
            mid = (m + 1) // 2
            expect = (ca[mid - 1] + ca[mid]) / 2.0
            ok &= hh.m == mid
            ok &= abs(hh.lower - expect) <= 1e-9 * max(1.0, abs(expect))
    report(5, ok, "sandwich bounds over 1000 witnessed instances with unit-witness and "
                  "symmetric-weight reductions")


def test_criterion_6_majorization_suite():
    ok = True
    for seed in range(1000):
        rng = random.Random(seed + 6_000_000)
        n = rng.randrange(3, 11)
        a, t = gen_relative_convex_pair(n, seed + 60_000)
        k = rng.randrange(2, 9)
        q = [rng.uniform(t[0], t[-1]) for _ in range(k)]
        p = list(gen_majorized_pair(q, 2 * k, seed))
        rep = majorization_inequality_check(a, t, p, q)
        ok &= rep.margin >= -1e-9

        # floor/frac expansion per side against the polygonal evaluation
        ext = build_extension(a, t)
        d = forward_diff(a)
        g = forward_diff(t.values)
        for vec in (p, q):
            ident = 0.0
            for x in vec:
                m = floor_wrt(t, x)
                ident += a[m - 1]
                if m < n:
                    ident += frac_wrt(t, x) * d[m - 1] / g[m - 1]
            via_ext = sum(ext.eval(x) for x in vec)
            ok &= abs(ident - via_ext) <= 1e-12 * max(1.0, abs(via_ext))
            sp_interp = brute_majorization_sides(list(a), list(t), vec, vec)[0]
            ok &= abs(ident - sp_interp) <= 1e-12 * max(1.0, abs(sp_interp))

        if seed % 4 == 0:
            m = rng.randrange(3, 11)
            ca = convex_seq(rng, m)
            qi = [rng.randint(1, m) for _ in range(rng.randrange(2, 6))]
            # unit transfers from the largest to the smallest entry keep the
            # total and produce an index vector majorized by the original
            pi = list(qi)
            for _ in range(3):
                hi_at = pi.index(max(pi))
                lo_at = pi.index(min(pi))
                if pi[hi_at] - pi[lo_at] >= 2:
                    pi[hi_at] -= 1
                    pi[lo_at] += 1
            ok &= majorizes([float(v) for v in pi], [float(v) for v in qi])
            rep2 = integer_majorization_check(ca, pi, qi)
            ok &= rep2.holds
    base = integer_majorization_check((4.0, 1.0, 0.0, 2.0, 6.0), (2, 2), (1, 3))
    ok &= base.holds and base.margin == pytest.approx(4.0 + 0.0 - 2 * 1.0)
    report(6, ok, "majorization inequality over 1000 transform instances, sides matching the "
                  "polygonal evaluation, index base case included")


def test_criterion_7_psi_preservation():
    ok = True
    for seed in range(300):
        rng = random.Random(seed + 7_000_000)
        n = rng.randrange(3, 12)
        a, t = gen_relative_convex_pair(n, seed + 70_000)
        ok &= psi_preservation_check(a, t, math.exp).holds
        ok &= psi_preservation_check(a, t, make_relu(median(a.values))).holds
    report(7, ok, "monotone convex maps preserve witnesses on 300 seeded pairs x {exp, relu}")


def test_criterion_8_asymptotic_diagnostics():
    n = 100
    a = [1.0 / k for k in range(1, n + 1)]
    t = list(range(1, n + 1))
    rep = rate_diagnostic(a, t, alpha=1.0)
    ok = True
    for k, term in enumerate(rep.terms, start=1):
        ok &= abs(abs(term) - 1.0 / (k + 1)) <= 1e-12
    ok &= rep.max_tail <= 0.014
    diffs = [abs(y - x) for x, y in zip((0.0, *rep.partial_sums), rep.partial_sums)]
    ok &= all(x >= y for x, y in zip(diffs, diffs[1:]))
    report(8, ok, "harmonic reference decays at 1/(n+1) with tail below 0.014 and settling "
                  "partial sums")


def test_criterion_9_oracle_independence():
    ok = True
    rel = 1e-12

    def close(x, y, scale=1.0):
        return abs(x - y) <= rel * max(1.0, abs(x), abs(y), scale)

    # difference operator
    ok &= forward_diff((4, 1, 0, 2, 6)) == (-3.0, -1.0, 2.0, 4.0)

    # functionals against loop/double-sum oracles
    ok &= close(weighted_mean((1, 2, 4), (1, 2, 1)), brute_weighted_mean([1, 2, 4], [1, 2, 1]))
    ok &= close(weighted_mean((1, 2, 4), (1, 2, 1)), 9 / 4)
    ok &= close(cov_functional((0, 1), (0, 1), (1, 1)), brute_cov([0, 1], [0, 1], [1, 1]))
    ok &= close(cov_functional((0, 1), (0, 1), (1, 1)), 0.25)
    ok &= close(cov_functional((1, 2, 3), (1, 2, 3), (1, 1, 1)), 2 / 3)
    ok &= close(lupas_constant((0, 1)), 2.0)
    ok &= majorizes((1, 2, 3), (0, 2, 4))

    # covariance product bound
    a = [4.0, 1.0, 0.0, 2.0, 6.0]
    b = [9.0, 4.0, 1.0, 0.0, 1.0]
    t = [1.0, 2.0, 3.0, 4.0, 5.0]
    p = [1.0] * 5
    lhs, rhs = brute_reeval({"kind": "lupas", "a": a, "b": b, "t": t, "p": p})
    rep = lupas_check(a, b, t, p)
    ok &= close(rep.lhs, lhs) and close(rep.rhs, rhs)

    # raw-sum bound: two-point collapse and the spike example
    l2, r2 = brute_pecaric_sides([5.0, 1.0], [2.0, -3.0])
    ok &= close(l2, (5.0 - 1.0) * (2.0 + 3.0) / 2.0) and close(r2, l2)
    spike = pecaric_check((1, 0, 1), (1, 0, 1))
    ol, orh = brute_pecaric_sides([1, 0, 1], [1, 0, 1])
    ok &= close(spike.lhs, ol) and close(spike.lhs, 2 / 3) and abs(orh) <= 1e-15

    # sandwich bounds
    lo, val, up = brute_reeval({"kind": "hhf", "a": a, "t": t, "p": p, "psi": psi_identity})
    hrep = hhf_bounds(a, t, p, psi_identity)
    ok &= close(hrep.lower, lo) and close(hrep.value, val) and close(hrep.upper, up)
    ok &= close(hrep.lower, 0.0) and close(hrep.value, 2.6) and close(hrep.upper, 5.0)

    nval, nup = brute_reeval({"kind": "niezgoda", "a": a, "p": [1, 0, 0, 0, 1], "psi": psi_identity})
    nrep = niezgoda_bound(a, (1, 0, 0, 0, 1), psi_identity)
    ok &= close(nrep.value, nval) and close(nrep.upper, nup) and close(nrep.upper, 10.0)

    clo, cval, cup = brute_convex_hhf_bounds(a, [1, 2, 3, 2, 1], psi_identity)
    crep = convex_hhf_bounds(a, (1, 2, 3, 2, 1), psi_identity)
    ok &= close(crep.lower, clo) and close(crep.value, cval) and close(crep.upper, cup)

    # index sums
    sp, sq = brute_integer_sums(a, [2, 3, 4], [1, 3, 5])
    ok &= sp == 3.0 and sq == 10.0
    irep = integer_majorization_check(a, (2, 3, 4), (1, 3, 5))
    ok &= close(irep.margin, sq - sp)

    # witness recursions by hand
    ok &= construct_witness((1, 2, 4), (1, 2), t1=0.0).values == (0.0, 1.0, 2.0)
    ok &= construct_witness((4, 2, 1), (-2, -1), t1=0.0).values == (0.0, 1.0, 2.0)
    w = construct_witness_on_interval((0, 1, 3), 0.0, 1.0)
    ok &= abs(w.values[1] - 3.0 / 5.0) <= 1e-15 and is_convex_wrt((0, 1, 3), w).holds

    # extension evaluation and generalized parts
    ext = build_extension((4, 1, 0), (1, 2, 3))
    ok &= ext.eval(2.5) == 0.5
    ok &= close(frac_wrt([i - 1 for i in range(1, 7)], math.pi), math.pi - 3.0)

    # majorization sides through the independent interpolation oracle
    a2, t2 = gen_relative_convex_pair(7, 12345)
    rng = random.Random(9)
    q2 = [rng.uniform(t2[0], t2[-1]) for _ in range(5)]
    p2 = list(gen_majorized_pair(q2, 10, 777))
    mrep = majorization_inequality_check(a2, t2, p2, q2)
    sp2, sq2 = brute_majorization_sides(list(a2), list(t2), p2, q2)
    ok &= abs(mrep.margin - (sq2 - sp2)) <= 1e-9

    report(9, ok, "every derived example value reproduced by the independent re-evaluators")
