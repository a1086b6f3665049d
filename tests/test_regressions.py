"""Regression tests: self-consistent scan reports, translation-safe degeneracy
guard, CLI robustness on arithmetic overflow and non-finite values, and the
pair generator at large n."""

import hashlib
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from relconvex import (
    anchored_slope_check,
    anchored_slope_check_all,
    bounded_monotone_diagnostic,
    collinearity_determinant_check,
    increment_growth_check,
    is_convex_wrt,
    lupas_check,
    neighbor_chord_check,
)
from relconvex.cli import main
from relconvex.errors import RelConvexError
from relconvex.oracles import gen_relative_convex_pair


def scan_reports(a, t):
    """Every applicable report of the six margin scans on (a, t)."""
    reports = [
        is_convex_wrt(a, t),
        neighbor_chord_check(a, t),
        collinearity_determinant_check(a, t),
        collinearity_determinant_check(a, t, all_triples=True),
        anchored_slope_check_all(a, t),
    ]
    reports += [anchored_slope_check(a, t, anchor) for anchor in range(1, len(a))]
    for probe in (increment_growth_check, lambda a, t: bounded_monotone_diagnostic(a, t, max(a), 0.0)):
        try:
            reports.append(probe(a, t))
        except RelConvexError:
            pass  # hypotheses not met on this input
    return [rep for rep in reports if rep.applicable]


def test_determinant_check_agrees_with_itself_and_the_slope_test():
    # tiny wobble next to huge values: a per-triple scale flagged (1, 2, 3)
    # while the global scale let the verdict hold
    a = [0.0, 1e-7, 0.0, 1e6, 4e6]
    t = [1.0, 2.0, 3.0, 4.0, 5.0]
    slope = is_convex_wrt(a, t)
    for all_triples in (False, True):
        rep = collinearity_determinant_check(a, t, all_triples=all_triples)
        assert rep.holds == (rep.first_violation is None)
        assert rep.holds == slope.holds


magnitudes = st.sampled_from([1e-9, 1e-7, 1e-3, 1.0, 1e3, 1e6, 1e9])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-1.0, 1.0), magnitudes), min_size=2, max_size=9),
    st.lists(st.floats(0.01, 10.0), min_size=8, max_size=8),
)
@example([(0.0, 1.0), (1.0, 1e-7), (0.0, 1.0), (1.0, 1e6), (4.0, 1e6)], [1.0] * 8)
def test_every_scan_report_holds_exactly_without_a_violation(cells, gaps):
    a = [x * m for x, m in cells]
    t = [0.0]
    for g in gaps[: len(a) - 1]:
        t.append(t[-1] + g)
    for rep in scan_reports(a, t):
        assert rep.holds == (rep.first_violation is None)


def test_lupas_guard_is_translation_safe():
    a = [float(i * i) for i in range(1, 8)]
    b = [float(i ** 3) for i in range(1, 8)]
    unit = [float(i) for i in range(1, 8)]
    base = lupas_check(a, b, unit, [1.0] * 7)
    shifted = lupas_check(a, b, [1e7 + x for x in unit], [1.0] * 7)
    assert base.holds and shifted.holds
    assert math.isclose(shifted.lhs, base.lhs, rel_tol=1e-12)
    assert math.isclose(shifted.rhs, base.rhs, rel_tol=1e-9)


def run_cli(capsys, tmp_path, argv, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code = main(argv + ["--input", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_cli_overflow_is_an_error_report_not_a_traceback(capsys, tmp_path):
    payload = {"a": [800, 1, 0, 2, 801], "t": [1, 2, 3, 4, 5]}
    code, out, err = run_cli(capsys, tmp_path, ["hhf", "--psi", "exp"], payload)
    assert code == 2
    report = strict_json(out)
    assert report["verdict"] == "error"
    assert "OverflowError" in report["margin_or_slacks"]["message"]
    assert err.startswith("error: ")


def test_cli_writes_non_finite_values_as_null(capsys, tmp_path):
    code, out, _ = run_cli(capsys, tmp_path, ["check"], {"a": [1, 2]})
    assert code == 0
    report = strict_json(out)
    assert report["margin_or_slacks"] == {"margin": None, "first_violation": None}


def test_pair_generator_valid_at_large_n():
    for seed in range(40):
        a, t = gen_relative_convex_pair(10_000, seed)
        assert len(a) == len(t) == 10_000
        assert is_convex_wrt(a, t).holds


def test_pair_generator_unchanged_for_small_n():
    # recorded before the exponent cap: instances up to n = 64 are bit-identical
    digest = hashlib.sha256()
    for n in (2, 5, 17, 64):
        for seed in range(40):
            a, t = gen_relative_convex_pair(n, seed)
            digest.update(repr((a.values, t.values)).encode())
    assert digest.hexdigest() == "90784ef5e1a696047e3f77152e6bfaa122342248807dccb1264d3de42917f3f8"
