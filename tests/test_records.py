"""The records without ``dataclasses`` (``test_startup.py`` checks that importing the
CLI loads neither ``dataclasses`` nor ``inspect``): ``RealSeq``, ``Witness`` and
``WeightVec`` stay frozen, compare and hash on their values within one class and print
as ``Name(values=...)``; and a ``Tolerance`` rejects a negative, infinite or NaN
component however it is built."""

import copy
import math
import pickle
import weakref

import pytest

from relconvex import RealSeq, Tolerance, WeightVec, Witness

VECTORS = [RealSeq, Witness, WeightVec]


@pytest.mark.parametrize("cls", VECTORS)
def test_validated_vectors_are_frozen(cls):
    vec = cls([1, 2])
    with pytest.raises(AttributeError):
        vec.values = (3.0, 4.0)
    with pytest.raises(AttributeError):
        del vec.values
    with pytest.raises(AttributeError):
        vec.other = 1
    assert vec.values == (1.0, 2.0)


@pytest.mark.parametrize("cls", VECTORS)
def test_validated_vectors_compare_and_hash_on_their_values(cls):
    vec, same = cls([1, 2]), cls((1.0, 2.0))
    assert vec == same and hash(vec) == hash(same)
    assert vec != cls([1, 3])
    assert vec != tuple(vec.values)
    assert len({vec, same}) == 1
    assert repr(vec) == f"{cls.__name__}(values=(1.0, 2.0))"
    assert weakref.ref(vec)() is vec


def test_equal_values_of_another_class_are_not_equal():
    assert RealSeq([1, 2]) != Witness([1, 2])
    assert Witness([1, 2]) != RealSeq([1, 2])
    assert RealSeq([1, 2]) != WeightVec([1, 2])


BAD_TOLERANCES = [
    ((-1,), {}),
    ((), {"rel": math.inf}),
    ((math.nan,), {}),
    ((0.0, -1e-12), {}),
    ((), {"abs": -math.inf}),
]


@pytest.mark.parametrize("args, kwargs", BAD_TOLERANCES)
def test_a_negative_infinite_or_nan_tolerance_is_a_value_error(args, kwargs):
    with pytest.raises(ValueError, match="tolerance components must be finite and non-negative"):
        Tolerance(*args, **kwargs)


@pytest.mark.parametrize("args, kwargs", BAD_TOLERANCES)
def test_a_copied_or_pickled_tolerance_still_checks_its_components(args, kwargs):
    tol = Tolerance(2e-9, 3e-12)
    clones = [copy.copy(tol), copy.deepcopy(tol), tol._replace()]
    clones += [pickle.loads(pickle.dumps(tol, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    bad = dict(zip(("abs", "rel"), args), **kwargs)
    for clone in clones:
        assert type(clone) is Tolerance and clone == tol
        with pytest.raises(ValueError):
            clone._replace(**bad)
    with pytest.raises(ValueError):
        Tolerance._make([bad.get("abs", 0.0), bad.get("rel", 0.0)])


@pytest.mark.parametrize("proto", range(pickle.HIGHEST_PROTOCOL + 1))
def test_every_pickle_protocol_rebuilds_a_tolerance_through_its_check(proto):
    # what copy and pickle store is a call on the components; bad components must raise
    rebuild, args = Tolerance(2e-9, 3e-12).__reduce_ex__(proto)[:2]
    assert rebuild(*args) == Tolerance(2e-9, 3e-12)
    for bad in ((-1.0, 0.0), (0.0, math.inf), (math.nan, 0.0)):
        with pytest.raises(ValueError):
            rebuild(*args[:-2], *bad)


def test_a_tolerance_is_a_pair_of_floats():
    # the documented tuple behaviour (README, "Records are named tuples")
    tol = Tolerance()
    assert tol == (1e-9, 1e-12) and tuple(tol) == (tol.abs, tol.rel) == (1e-9, 1e-12)
    assert repr(tol) == "Tolerance(abs=1e-09, rel=1e-12)"
    assert Tolerance(rel=0.0) == Tolerance(1e-9, 0.0)
