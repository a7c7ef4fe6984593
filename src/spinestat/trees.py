"""Binary trees as preorder codes: canonical enumeration by one fold over
the sizes, on spine counts and on int codes with the right spine as a mask,
each level built a block of two sizes at a time (spinestat._codetext
renders the codes in binary a piece at a time); and the growth step and its
inverse on whole arrays of int codes.  The sampler of spine lengths is
spinestat.sampler.

A tree is either a single external node or an internal node with a left and a
right subtree.  "Size" always means the number of internal nodes; a size-n
tree has n+1 external nodes and 2n+1 nodes in total.  The tree-level
reference of the growth step, on nested tuples, and the same step on one int
code at a time are tests/treeref.py.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Sequence

from .errors import DEFAULT_CAP, CapExceeded

# `array` is imported inside the int folds, so the commands that do not run
# them do not load it at start-up.

# Preorder bit encoding of a tree: '1' for internal, '0' for external.
TreeCode = str


# The stored levels are packed: spine counts in bytearrays, int codes and masks
# in array("Q").  Spine counts are at most n and a size-m code has 2m+1 bits,
# so a fold passes 255 or 64 bits only once it holds level 31, c_31 ~ 1.5e16
# trees; memory runs out well before that (exit 1, "error: out of memory"),
# so no size is checked.
def _levels(n: int, cap: int, leaf, block, pack) -> Iterator:
    """The levels 0..n of the canonical fold, each built once, in order: the
    levels below n packed by pack(pieces), which the fold reads to build the
    levels above, and level n as an iterator of its pieces (_pieces).  Level
    0 is the one piece `leaf`.

    The levels are built for this call only and released with the last
    piece; the guards raise at the first next().
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n > cap:
        raise CapExceeded(f"size {n} exceeds the exhaustive cap {cap}")
    smaller: list[Sequence] = []
    pieces = iter((leaf,))
    for m in range(1, n + 1):
        smaller.append(pack(pieces))
        yield smaller[-1]
        pieces = _pieces(block, smaller, m)
    yield pieces


# A level is built, and the last one streamed, in pieces of at most this
# many trees, so that the field operations on a piece stay small.
PIECE = 1024


def _pieces(block, smaller: list, m: int) -> Iterator:
    """Level m in canonical order, block(lefts, rights, m, i) for i = 0..m-1:
    the joins of size-i lefts with size-(m-1-i) rights, left by left.  Each
    block is cut into pieces of at most PIECE joins: runs of whole lefts,
    or, where one left has more rights than that, runs of its rights."""
    for i in range(m):
        lefts, rights = smaller[i], smaller[m - 1 - i]
        if len(rights) < PIECE:
            step = PIECE // len(rights)
            for start in range(0, len(lefts), step):
                yield block(lefts[start:start + step], rights, m, i)
        else:
            for left in range(len(lefts)):
                for start in range(0, len(rights), PIECE):
                    yield block(lefts[left:left + 1], rights[start:start + PIECE], m, i)


def enumerate_codes(n: int, cap: int = DEFAULT_CAP) -> Iterator[TreeCode]:
    """Yield the preorder code of every tree of size n exactly once, in
    canonical order: left-subtree size ascending, then recursively the same
    rule on the left and then the right subtree.  The lines of
    _codetext.texts.
    """
    from ._codetext import texts

    for text in texts(n, cap):
        yield from text.split()


# Spine count k -> k + 1, as a translate table.
_SUCCESSOR = bytes(range(1, 256)) + b"\0"


def _spine_block(lefts, rights: bytearray, m: int, i: int) -> bytearray:
    return rights.translate(_SUCCESSOR) * len(lefts)


def spine_levels(n: int, cap: int = DEFAULT_CAP) -> Iterator:
    """The levels of _levels as spine segment counts, one byte a tree: a
    bytearray below m = n, and at m = n an iterator of the level's pieces,
    each one bytearray.  A leaf has 0 and a join one more than its right
    subtree, so a piece is its rights' counts, each plus one, repeated once
    per left."""
    return _levels(n, cap, bytearray(1), _spine_block, lambda pieces: _joined(bytearray(), pieces))


def _joined(level, pieces):
    """The empty bytearray or array `level`, extended by each piece in
    turn: the level grows in place, with no second copy of it."""
    for piece in pieces:
        level += piece
    return level


# The int folds and the growth step read an array("Q") as one int whose
# 64-bit fields are its elements, and do one field operation on it where a
# loop would visit every element.  Every field stays below 2^64 and
# nonnegative, so no carry or borrow crosses a field.  The bytes are read in
# the host's order: element j is in bits 64j..64j+63 on a little-endian host
# and in the j-th field from the top on a big-endian one.  Field operations
# do not see the difference; only _codetext._lines, which prints the fields
# in order, does.
def _fields(values) -> int:
    return int.from_bytes(values, sys.byteorder)


def _array(fields: int, count: int):
    from array import array

    return array("Q", fields.to_bytes(8 * count, sys.byteorder))


def _ones(count: int) -> int:
    """1 in each of `count` fields: for a piece or less, the top of _ONES."""
    if count <= PIECE:
        return _ONES >> 64 * (PIECE - count)
    return int.from_bytes(b"\1\0\0\0\0\0\0\0" * count, "little")


_ONES = int.from_bytes(b"\1\0\0\0\0\0\0\0" * PIECE, "little")


def _code_block(lefts: Sequence[int], rights: Sequence[int], m: int, i: int):
    # Each left makes one row, its high bits added to every right's field;
    # with fewer rights than lefts, each right makes one column instead, the
    # lefts shifted into place, written with a stride of len(rights).
    from array import array

    top, shift, width = 1 << 2 * m, 2 * (m - i) - 1, len(rights)
    if len(lefts) <= width:
        row, ones = _fields(rights), _ones(width)
        block = array("Q")
        for left in lefts:
            block += _array(row + (top | left << shift) * ones, width)
        return block
    column, ones = _fields(lefts) << shift, _ones(len(lefts))
    block = array("Q", bytes(8 * len(lefts) * width))
    for j, right in enumerate(rights):
        block[j::width] = _array(column + (top | right) * ones, len(lefts))
    return block


def _mask_block(lefts: Sequence[int], rights: Sequence[int], m: int, i: int):
    return _array(_fields(rights) + (1 << 2 * m) * _ones(len(rights)), len(rights)) * len(lefts)


def _code_fold(n: int, cap: int, block) -> Iterator:
    """_levels with its levels in array("Q"): the codes by _code_block, or
    their masks by _mask_block."""
    from array import array

    return _levels(n, cap, array("Q", [0]), block, lambda pieces: _joined(array("Q"), pieces))


def code_levels(n: int, cap: int = DEFAULT_CAP) -> Iterator:
    """The levels of _levels on ints: level m is a pair (codes, masks) of
    parallel arrays of unsigned 64-bit ints ("Q") below m = n, and at m = n
    an iterator of the level's pieces, each such a pair.  A code holds the
    2m+1 preorder bits, the root on top (size 0 is 0), and its mask the right
    spine's internal nodes.  Sizes i and r = m-1-i join to top | left <<
    (2r+1) | right and mask top | right's mask, top = 1 << 2m: a piece's
    masks are one row repeated once per left.
    """
    levels = zip(_code_fold(n, cap, _code_block), _code_fold(n, cap, _mask_block))
    for m, level in enumerate(levels):
        yield level if m < n else zip(*level)


def grow_codes(codes: int, nodes: int, count: int) -> int:
    """The growth step on `count` int codes at once, given and returned as
    the 64-bit fields of one int, as _fields reads an array: image j grows
    code j at its right-spine node of bit node j (1 << b; the terminal
    leaf's is 1).  The subtree there, low = code % (2 node), becomes the
    left child of a new internal node with a leaf on its right: image =
    4 code + 4 node - 2 low.  With d spine nodes above it, the image has
    d+1 spine segments.  The reference, one code at a time, is
    `successor_codes` in tests/treeref.py.
    """
    return 4 * codes + 4 * nodes - 2 * (codes & (2 * nodes - _ones(count)))


# Segment count s -> depth s - 1, as a translate table.
_PREDECESSOR = b"\xff" + bytes(range(255))


def shrink_codes(images: int, lows: int, segments: bytes) -> tuple[int, bytes]:
    """The inverse of the growth step on len(segments) int codes at once,
    the fields of one int as in grow_codes: (codes, depths) such that image
    j grows from code j at depth depths[j].  Field j of `lows` is the lowest
    set bit of image j's mask (1 << bit), its last internal spine node, and
    segments[j] the mask's bit count.  The code drops that bit and bit 0,
    the leaf on its right: image = high * 2b + b + low, b > low, and the
    code is (high * b + low) / 2; the depth is segments - 1.  The
    reference is tests/treeref.py's `predecessor_code`.
    """
    codes = (images - lows + (images & (lows - _ones(len(segments))))) >> 2
    return codes, segments.translate(_PREDECESSOR)

