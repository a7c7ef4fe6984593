"""The growth step on trees, and the same step on one int code at a time
(successor_codes, predecessor_code): the references that the level-wide
step of `spinestat.trees` (grow_codes, shrink_codes) and its folds are held
to.

A tree is a nested tuple: an external node is None and an internal node is
(left, right).  Tuples give equality, hashing, repr and pickling by value.
Their equality and hash recurse, so trees deeper than the recursion limit
are compared by their codes.  Every function here walks a tree in a loop,
so no recursion limit bounds its depth.
"""

from __future__ import annotations

from collections.abc import Iterator

from spinestat.errors import CapExceeded
from spinestat.trees import DEFAULT_CAP, TreeCode


class MalformedCode(ValueError):
    """Bit string is not a valid preorder tree encoding."""


def size(t) -> int:
    """Number of internal nodes."""
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        if node is not None:
            count += 1
            stack += node
    return count


def spine_segments(t) -> int:
    """Number of edges on the maximal path of right children from the root."""
    count = 0
    while t is not None:
        count += 1
        t = t[1]
    return count


def enumerate_trees(n: int, cap: int = DEFAULT_CAP) -> Iterator:
    """Every tree of size n once, in the canonical order of
    trees.enumerate_codes: left-subtree size ascending, then by left, then
    by right.  The guards raise at the first next()."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n > cap:
        raise CapExceeded(f"size {n} exceeds the exhaustive cap {cap}")
    levels = [[None]]
    for m in range(1, n + 1):
        levels.append([(left, right) for i in range(m)
                       for left in levels[i] for right in levels[m - 1 - i]])
    yield from levels[n]


def successors(t) -> list:
    """All size+1 trees obtained by the growth step, by spine depth.

    For each node on the right spine (depth 0 .. spine_segments(t), the last
    being the terminal external node) the subtree there is replaced by an
    internal node with the old subtree on the left and an external node on
    the right.  The result at spine depth d has d+1 spine segments.
    """
    result, lefts = [], []
    while True:
        image = (t, None)
        for left in reversed(lefts):
            image = (left, image)
        result.append(image)
        if t is None:
            return result
        lefts.append(t[0])
        t = t[1]


def predecessor(t) -> tuple:
    """Invert the growth step: return (p, d) with successors(p)[d] == t.

    The subtree at the last-but-one node on the right spine is replaced by
    its left subtree, and the spine above it is rebuilt.
    """
    if t is None:
        raise ValueError("the size-0 tree has no predecessor")
    lefts = []
    while t[1] is not None:
        lefts.append(t[0])
        t = t[1]
    p = t[0]
    for left in reversed(lefts):
        p = (left, p)
    return p, len(lefts)


def encode(t) -> TreeCode:
    """Preorder bit encoding: internal -> '1' + left + right, external -> '0'."""
    bits, stack = [], [t]
    while stack:
        node = stack.pop()
        if node is None:
            bits.append("0")
        else:
            bits.append("1")
            stack += reversed(node)
    return "".join(bits)


def decode(code: TreeCode):
    """Inverse of encode; raises MalformedCode on any invalid bit string."""
    if not code or set(code) - {"0", "1"}:
        raise MalformedCode("code must be a nonempty string of '0'/'1'")
    if code.count("0") != code.count("1") + 1:
        raise MalformedCode("code must have exactly one more '0' than '1's")
    # One more '0' than '1's, and no '1' short of two subtrees, leave one tree.
    stack: list = []
    for bit in reversed(code):
        if bit == "0":
            stack.append(None)
        elif len(stack) < 2:
            raise MalformedCode("prefix condition violated")
        else:
            stack.append((stack.pop(), stack.pop()))
    return stack[0]


def successor_codes(code: int, mask: int) -> list[int]:
    """The growth step on one int code (its preorder bits, the root's on
    top) and its spine mask (the bits of the right spine's internal nodes):
    the size+1 codes that grow from it, one per spine depth d from the root
    to the terminal leaf.  The subtree at depth d becomes the left child of
    a new internal node with a leaf on its right, giving d+1 spine segments.
    At spine bit b (the leaf's is 0) the subtree is low = code % above,
    above = 2 << b, and the image 4 code + 2 above - 2 low.  The spine is
    walked up and reversed.  `successors` is its reference on trees.
    """
    images, double, spine = [], code << 1, mask << 1 | 2
    while spine:
        above = spine & -spine
        spine ^= above
        images.append((double + above - code % above) << 1)
    images.reverse()
    return images


def predecessor_code(image: int, bit: int, segments: int) -> tuple[int, int]:
    """The inverse of the growth step on one int code: (p, d) such that
    successor_codes of p has `image` at index d.  `bit` is the lowest set
    bit of image's mask, its last internal spine node, and `segments` the
    mask's bit count.  p drops that bit and bit 0, the leaf on its right:
    image = high * 2b + b + low, b = 1 << bit > low, and p is
    (high * b + low) / 2.  `predecessor` is its reference on trees.
    """
    b = 1 << bit
    return (image - b + image % b) >> 2, segments - 1
