"""The C-level fast paths agree with the loops they shortcut.

* ``scan_margin`` judges a list at C level and an iterator in its loop; both
  give the same ``(first, margin)``, bit for bit (-0.0 ties included), and
  raise the same error for a NaN gap.
* ``Witness.of`` accepts in one C-level pass and otherwise takes its loop, so
  NaN entries, sub-tolerance gaps and non-increasing input raise as the loop
  alone does (kept here as ``witness_of_loop``).
* ``spot_check_map`` returns and warns as the two-loop version it replaced
  (kept here as ``spot_check_loop``), and calls the map once per distinct
  value and once per midpoint.
"""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relconvex import ConvexMapWarning, Tolerance, Witness, make_relu, spot_check_map
from relconvex.errors import NonFiniteArithmetic, WitnessNotIncreasing
from relconvex.seqcore import DEFAULT_TOL, scan_margin


def outcome(fn, *args):
    """(result or (error type, message), warning messages): everything a caller can observe."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(fn(*args))
        except Exception as err:  # noqa: BLE001 - the error itself is compared
            result = (type(err), str(err))
    return result, [(w.category, str(w.message)) for w in caught]


# -- scan_margin --------------------------------------------------------------

gap_values = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e-9, -1e-9, -1.5e-9]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(gap_values, max_size=12), st.floats(0.0, 1e3), st.booleans(), st.booleans())
def test_scan_margin_list_equals_stream(gaps, allowed, labelled, with_nan):
    if with_nan and gaps:
        gaps[len(gaps) // 2] = math.nan
    labels = [f"pair {k}" for k in range(len(gaps))] if labelled else None
    fast = outcome(scan_margin, list(gaps), allowed, labels)
    loop = outcome(scan_margin, iter(gaps), allowed, None if labels is None else iter(labels))
    assert fast == loop
    if with_nan and gaps:
        assert fast[0][0] is NonFiniteArithmetic


def test_scan_margin_keeps_the_first_of_tied_zeros():
    assert repr(scan_margin([0.0, -0.0], 1e-9)[1]) == "0.0"
    assert repr(scan_margin([-0.0, 0.0], 1e-9)[1]) == "-0.0"
    assert scan_margin([], 1e-9) == (None, math.inf)


# -- Witness.of ---------------------------------------------------------------


def witness_of_loop(values, tol=DEFAULT_TOL):
    vals = tuple(map(float, values))
    for k in range(len(vals) - 1):
        if not vals[k + 1] - vals[k] > tol.abs:
            raise WitnessNotIncreasing(
                f"gap t[{k + 2}] - t[{k + 1}] = {vals[k + 1] - vals[k]!r} "
                f"is not above the strictness tolerance {tol.abs!r}"
            )
    return Witness(vals)


@st.composite
def near_witnesses(draw):
    """Increasing lists, then maybe one NaN, sub-tolerance gap, tie or descent."""
    t = sorted(set(draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=10))))
    if len(t) < 2:
        t.append(t[0] + 1.0)
    k = draw(st.integers(1, len(t) - 1))
    kind = draw(st.sampled_from(["none", "nan", "subtol", "tie", "descent", "inf"]))
    if kind == "nan":
        t[k] = math.nan
    elif kind == "subtol":
        t[k] = t[k - 1] + 5e-10
    elif kind == "tie":
        t[k] = t[k - 1]
    elif kind == "descent":
        t[k] = t[k - 1] - 1.0
    elif kind == "inf":
        t[-1] = math.inf
    return t


@settings(max_examples=300, deadline=None)
@given(near_witnesses(), st.sampled_from([Tolerance(), Tolerance(abs=0.0), Tolerance(abs=1e-3)]))
def test_witness_of_equals_the_loop(t, tol):
    assert outcome(Witness.of, t, tol) == outcome(witness_of_loop, t, tol)


def test_witness_rejects_non_increasing_input_by_position():
    with pytest.raises(WitnessNotIncreasing, match=r"t\[3\] = 1.0 does not exceed t\[2\] = 2.0"):
        Witness((0.0, 2.0, 1.0))
    with pytest.raises(WitnessNotIncreasing, match=r"gap t\[3\] - t\[2\] = nan"):
        Witness.of([0.0, 1.0, math.nan, 3.0])


# -- spot_check_map -----------------------------------------------------------


def spot_check_loop(psi, values, tol=DEFAULT_TOL):
    pts = sorted({float(v) for v in values})
    mapped = {v: float(psi(v)) for v in pts}
    allowed = tol.allowed(mapped.values())
    ok = True
    for u, w in zip(pts, pts[1:]):
        if mapped[u] > mapped[w] + allowed:
            warnings.warn(f"map not non-decreasing on [{u!r}, {w!r}]", ConvexMapWarning, stacklevel=2)
            ok = False
    for u, w in zip(pts, pts[2:]):
        if psi((u + w) / 2.0) > (mapped[u] + mapped[w]) / 2.0 + allowed:
            warnings.warn(f"map not midpoint-convex on [{u!r}, {w!r}]", ConvexMapWarning, stacklevel=2)
            ok = False
    return ok


MAPS = {
    "identity": lambda x: x,
    "relu": make_relu(0.5),
    "square": lambda x: x * x,
    "negate": lambda x: -x,
    "sin": math.sin,
    "cube": lambda x: x ** 3,
    "floor": math.floor,
    "exp": math.exp,
}


class Counting:
    def __init__(self, psi):
        self.psi = psi
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.psi(x)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.floats(-50.0, 50.0), st.integers(-5, 5), st.sampled_from([0.0, -0.0])),
             max_size=14),
    st.sampled_from(sorted(MAPS)),
)
def test_spot_check_map_equals_the_loop(values, name):
    counting = Counting(MAPS[name])
    assert outcome(spot_check_map, counting, values) == outcome(spot_check_loop, MAPS[name], values)
    k = len({float(v) for v in values})
    assert counting.calls == k + max(k - 2, 0)


def test_spot_check_map_keeps_the_first_zero_in_input_order():
    for values, zero in (([-0.0, 1.0, 0.0, -1.0], "-0.0"), ([0.0, -1.0, -0.0, 1.0], "0.0")):
        result, warned = outcome(spot_check_map, lambda x: -x, values)
        assert result == "False"
        assert [m for _, m in warned] == [f"map not non-decreasing on [-1.0, {zero}]",
                                          f"map not non-decreasing on [{zero}, 1.0]"]
