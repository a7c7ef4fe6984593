"""The value types' contract: equality and hash by value, no assignment to a
field, validation on construction, and a fixed repr."""

import pickle

import pytest

from spinestat.asymptotics import RationalFn
from spinestat.series import PowerSeries
from spinestat.stats import SpineDistribution
from spinestat.trees import EXTERNAL, BinaryTree

CHERRY = BinaryTree(EXTERNAL, EXTERNAL)

# Each case builds one value afresh on every call, so equal values are never
# the same object.
VALUES = {
    "BinaryTree": lambda: BinaryTree(CHERRY, BinaryTree(EXTERNAL, EXTERNAL)),
    "SpineDistribution": lambda: SpineDistribution(3, (2, 2, 1), 5),
    "PowerSeries": lambda: PowerSeries((0, 1, 0, 1)),
    "RationalFn": lambda: RationalFn(PowerSeries.of(0, 1), PowerSeries.of(1, 0, 1)),
}
OTHERS = {
    "BinaryTree": BinaryTree(EXTERNAL, CHERRY),
    "SpineDistribution": SpineDistribution(3, (2, 1, 2), 5),
    "PowerSeries": PowerSeries((0, 1, 0, 2)),
    "RationalFn": RationalFn(PowerSeries.of(0, 1), PowerSeries.of(1, 1)),
}
FIELDS = {
    "BinaryTree": ("left", "right"),
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


@pytest.mark.parametrize("left, right", [(EXTERNAL, None), (None, EXTERNAL), (None, CHERRY)])
def test_binary_tree_needs_zero_or_two_children(left, right):
    with pytest.raises(ValueError, match="zero or two children"):
        BinaryTree(left, right)


def test_binary_tree_keywords_and_defaults():
    assert BinaryTree() == EXTERNAL == BinaryTree(left=None, right=None)
    assert BinaryTree(right=EXTERNAL, left=CHERRY) == BinaryTree(CHERRY, EXTERNAL)
    assert EXTERNAL != (None, None)


@pytest.mark.parametrize("value, text", [
    (EXTERNAL, "BinaryTree(left=None, right=None)"),
    (CHERRY, "BinaryTree(left=BinaryTree(left=None, right=None), "
             "right=BinaryTree(left=None, right=None))"),
    (SpineDistribution(3, (2, 2, 1), 5), "SpineDistribution(n=3, counts=(2, 2, 1), total=5)"),
    (PowerSeries((0, 1)), "PowerSeries(coeffs=(0, 1))"),
    (RationalFn(PowerSeries.of(1), PowerSeries.of(1, 1)),
     "RationalFn(num=PowerSeries(coeffs=(1,)), den=PowerSeries(coeffs=(1, 1)))"),
])
def test_repr(value, text):
    assert repr(value) == text


LEAF_TEXT = "BinaryTree(left=None, right=None)"
DEEP = 5000


def _comb(n, side):
    t = EXTERNAL
    for _ in range(n):
        t = BinaryTree(EXTERNAL, t) if side == "right" else BinaryTree(t, EXTERNAL)
    return t


@pytest.mark.parametrize("side", ["right", "left"])
def test_deep_combs_compare_hash_and_print_without_recursion(side):
    # Equality, hash and repr walk the tree in loops: a comb of 5,000
    # internal nodes is far past the interpreter's recursion limit.
    a, b = _comb(DEEP, side), _comb(DEEP, side)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != _comb(DEEP - 1, side) and a != _comb(DEEP, "left" if side == "right" else "right")
    if side == "right":
        text = f"BinaryTree(left={LEAF_TEXT}, right=" * DEEP + LEAF_TEXT + ")" * DEEP
    else:
        text = "BinaryTree(left=" * DEEP + LEAF_TEXT + f", right={LEAF_TEXT})" * DEEP
    assert repr(a) == text
