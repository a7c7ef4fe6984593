"""The value types' contract: equality and hash by value, no assignment to a
field, and a fixed repr."""

import pickle

import pytest

from spinestat.asymptotics import RationalFn
from spinestat.series import PowerSeries
from spinestat.stats import SpineDistribution

# Each case builds one value afresh on every call, so equal values are never
# the same object.
VALUES = {
    "SpineDistribution": lambda: SpineDistribution(3, (2, 2, 1), 5),
    "PowerSeries": lambda: PowerSeries((0, 1, 0, 1)),
    "RationalFn": lambda: RationalFn(PowerSeries.of(0, 1), PowerSeries.of(1, 0, 1)),
}
OTHERS = {
    "SpineDistribution": SpineDistribution(3, (2, 1, 2), 5),
    "PowerSeries": PowerSeries((0, 1, 0, 2)),
    "RationalFn": RationalFn(PowerSeries.of(0, 1), PowerSeries.of(1, 1)),
}
FIELDS = {
    "SpineDistribution": ("n", "counts", "total"),
    "PowerSeries": ("coeffs",),
    "RationalFn": ("num", "den"),
}


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_equal_and_hashed_by_value(kind):
    a, b = VALUES[kind](), VALUES[kind]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b, OTHERS[kind]}) == 2
    assert a != OTHERS[kind]


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_fields_cannot_be_assigned_or_deleted(kind):
    value = VALUES[kind]()
    for name in FIELDS[kind]:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_pickle_round_trip(kind):
    value = VALUES[kind]()
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is type(value)


@pytest.mark.parametrize("value, text", [
    (SpineDistribution(3, (2, 2, 1), 5), "SpineDistribution(n=3, counts=(2, 2, 1), total=5)"),
    (PowerSeries((0, 1)), "PowerSeries(coeffs=(0, 1))"),
    (RationalFn(PowerSeries.of(1), PowerSeries.of(1, 1)),
     "RationalFn(num=PowerSeries(coeffs=(1,)), den=PowerSeries(coeffs=(1, 1)))"),
])
def test_repr(value, text):
    assert repr(value) == text

