"""The checks behind `spinestat verify`.  Each returns a plain tuple
(verdict, label, detail) and prints nothing: PASS, FAIL, or SKIP when no size
fell within the check; `detail` is the stderr line of a FAIL, naming the
size and the values at fault, else "".  Checks call trees and stats through
their modules, so a function replaced there is the one checked.
"""

from __future__ import annotations

from array import array
from itertools import compress, repeat
from operator import getitem, setitem

from . import stats, trees
from .series import catalan
from .stats import SpineDistribution, render_int

# Bit count of each byte value, as a translate table.
_BIT_COUNTS = bytes(map(int.bit_count, range(256)))


def _spine_tails(n: int) -> list:
    """The (bit, segments) spine tails that a size-(n+1) code can have,
    after a None: a tail's index here is its one-byte packed form, and this
    list decodes it.  `bit` is the lowest set bit of the code's mask, its
    last internal spine node.  The 2h bits above that node's subtree hold
    the other segments - 1 spine nodes, each with a left subtree of odd
    length, so with h = n + 1 - bit // 2 <= n the count is
    1 <= segments <= h + 1, and the tail packs to h(h+1)/2 + segments: at
    most (n+1)(n+2)/2, which is 253 at n = 21, and never 0.
    """
    return [None, *((2 * (n + 1 - h), s) for h in range(n + 1) for s in range(1, h + 2))]


def _bit_counts(fields: int, count: int, width: int) -> bytes:
    """The bit count of each of `count` 64-bit fields below 2 ** width, one
    byte each: the counts of each field's bytes, by translate, summed."""
    data = fields.to_bytes(8 * count, "little")
    return sum(int.from_bytes(data[k::8].translate(_BIT_COUNTS), "little")
               for k in range((width + 7) // 8)).to_bytes(count, "little")


def _chunks(level):
    """A stored level's (codes, masks) in slices of at most trees.PIECE
    codes, the size of the pieces the fold streams."""
    codes, masks = level
    for start in range(0, len(codes), trees.PIECE):
        yield codes[start:start + trees.PIECE], masks[start:start + trees.PIECE]


def _pairs(codes, masks, width: int):
    """Every pair (t, d) of a code t and a spine depth d, one round per
    spine node from the bottom, the terminal leaf's (bit 0) first: yields
    (codes, nodes, depths) for the codes that have such a node, in order,
    codes and nodes as fields (trees._fields) and depths as bytes: the
    node's bit (1 << b) and the number of spine nodes above it.  The codes
    have `width` bits.  A round takes each code's lowest spine bit left, so
    each pair comes once.
    """
    count, spine = len(codes), trees._fields(masks) | trees._ones(len(codes))
    while count:
        node = spine ^ (spine & (spine - trees._ones(count)))
        spine ^= node
        depths = _bit_counts(spine, count, width)
        yield trees._fields(codes), node, depths
        if 0 in depths:
            codes = array("Q", compress(codes, depths))
            spine = trees._fields(array("Q", compress(trees._array(spine, count), depths)))
            count = len(codes)


class _Slots:
    """Level n+1's slot table: a size-(n+1) code is a 1, 2n free bits and
    two 0s (the last internal node in preorder has two external children),
    so with head = 4 ** (n+1) its slot (code - head) >> 2 is one of 4 ** n.
    A slot holds its code's spine tail, read from the code's own mask and
    packed in one byte as _spine_tails lists it; 0 marks an empty slot."""

    def __init__(self, n: int):
        self.head, self.width, unpack = 4 ** (n + 1), 2 * n + 3, _spine_tails(n)
        self.tails = bytearray(4 ** n)
        base = bytearray(256)  # a tail (bit, s) packs to base[bit] + s
        for packed, (bit, s) in enumerate(unpack[1:], 1):
            base[bit] = packed - s
        self.base = bytes(base)
        self.segments = bytes([0, *(s for _, s in unpack[1:])]).ljust(256, b"\0")
        # Byte k of each tail's lowest bit 1 << bit, for the k whose byte is
        # not always 0: they spread a packed tail back into a 64-bit field.
        lows = [0, *(1 << bit for bit, _ in unpack[1:])]
        self.low_bytes = [(k, table) for k, table in enumerate(
            bytes(low >> 8 * k & 255 for low in lows).ljust(256, b"\0") for k in range(8))
            if any(table)]

    def of(self, codes: int, count: int):
        """The slots of `count` codes, as an array, or None if one has none."""
        ones = trees._ones(count)
        if codes & ~((2 * self.head - 4) * ones) or (codes & self.head * ones) != self.head * ones:
            return None
        return trees._array((codes - self.head * ones) >> 2, count)

    def fill(self, chunks) -> int | None:
        """Write each code's tail into its slot, and count the codes; None
        if a code has no slot."""
        written = 0
        for codes, masks in chunks:
            count, mask = len(codes), trees._fields(masks)
            slots = self.of(trees._fields(codes), count)
            if slots is None:
                return None
            ones = trees._ones(count)
            low = mask ^ (mask & (mask - ones))
            bits = _bit_counts(low - ones, count, self.width)
            packed = int.from_bytes(bits.translate(self.base), "little") + int.from_bytes(
                _bit_counts(mask, count, self.width), "little")
            any(map(setitem, repeat(self.tails), slots, packed.to_bytes(count, "little")))
            written += count
        return written

    def inverse(self, images: int, count: int):
        """trees.shrink_codes of `count` images, given the tails in their
        slots, or None if an image has no slot or an empty one."""
        slots = self.of(images, count)
        if slots is None:
            return None
        packed = bytes(map(getitem, repeat(self.tails), slots))
        if 0 in packed:
            return None
        lows = bytearray(8 * count)
        for k, table in self.low_bytes:
            lows[k::8] = packed.translate(table)
        return trees.shrink_codes(images, int.from_bytes(lows, "little"), packed.translate(self.segments))


def _round_trips(slots: _Slots, lower) -> int | None:
    """The number of pairs of `lower`, if each pair's image has a full slot
    and the inverse, given the tail there, gives back the pair; else None."""
    pairs = 0
    for chunk in _chunks(lower):
        for codes, nodes, depths in _pairs(*chunk, slots.width - 2):
            count = len(depths)
            if slots.inverse(trees.grow_codes(codes, nodes, count), count) != (codes, depths):
                return None
            pairs += count
    return pairs


def bijection(max_n: int, cap: int) -> tuple[str, str, str]:
    """Check, for each n up to min(max_n, cap - 1), that the growth step maps
    the pairs (t, d) of a size-n tree and a spine depth one to one onto the
    size-(n+1) trees, and that the inverse gives back (t, d).  Given the
    bijection, that covers every size-(n+1) tree, so a round trip FAIL is
    labelled n+1 and comes after its level's bijection verdict; the detail
    of a FAIL names n, the code and the depth at fault.

    The check runs on int codes and builds no tree: trees.code_levels folds
    each level once per call, and the level-wide trees.grow_codes and
    trees.shrink_codes take up to trees.PIECE codes at a time, one spine
    depth of them a call (_pairs).  Each image must have a full slot in
    level n+1's table (_Slots), and the inverse, given the spine tail found
    there, read from the fold's own mask, and never the depth d, must give
    back the pair: then no two pairs share an image.  As there are as many
    pairs, sum(spine + 1) over level n, as codes of level n+1, the images
    are every code once.  A level that fails is checked again pair by pair
    in canonical order (_fault.first_fault), to name the fault.
    """
    label = "bijection and predecessor round trip"
    top = min(max_n, cap - 1)
    if top < 0:
        return "SKIP", label, ""
    levels = trees.code_levels(top + 1, cap=cap)
    upper = next(levels)
    for n in range(top + 1):
        # Level n+1 is a pair of arrays, kept for the fold above it, except
        # the last, which is streamed a piece at a time and never held.
        lower, upper = upper, next(levels)
        slots = _Slots(n)
        codes = slots.fill(_chunks(upper) if n < top else upper)
        if codes is None or _round_trips(slots, lower) != codes:
            from ._fault import first_fault

            fault = first_fault(n, lower, slots, cap)
            if fault:
                return fault
        # Release this table before the next one, 4 times larger, is made.
        del slots
    return "PASS", f"{label} (n <= {top})", ""


def _first_difference(label: str, n: int, counts: dict[str, tuple[int, ...]]) -> str:
    """The detail of a route FAIL: the first k at which the named routes'
    counts at size n differ, and each route's count there."""
    def at(row, k):
        return render_int(row[k - 1]) if k <= len(row) else "none"

    width = max(map(len, counts.values()))
    k = next(k for k in range(1, width + 1) if len({at(row, k) for row in counts.values()}) > 1)
    values = " ".join(f"{name}={at(row, k)}" for name, row in counts.items())
    return f"{label} n={n}: first differing k={k}: {values}"


def routes(rec: list[SpineDistribution], cap: int) -> tuple[str, str, str]:
    """Check the other routes against `rec`, the recurrence route at sizes
    0..max_n; exhaustive runs up to min(max_n, cap)."""
    if not rec:
        return "SKIP", "route agreement", ""
    max_n = len(rec) - 1
    sizes = range(max_n + 1)
    ser = stats.dist_series(sizes)
    exhaustive = stats.dist_exhaustive(range(min(max_n, cap) + 1), cap)
    for n in sizes:
        # The closed route is built a size at a time, so it holds no table.
        [closed] = stats.dist_closed(range(n, n + 1))
        if not rec[n].counts == ser[n].counts == closed.counts:
            counts = {"recurrence": rec[n].counts, "series": ser[n].counts,
                      "closed": closed.counts}
            label = "route agreement"
        elif n < len(exhaustive) and exhaustive[n].counts != rec[n].counts:
            counts = {"exhaustive": exhaustive[n].counts, "recurrence": rec[n].counts}
            label = "exhaustive agreement"
        else:
            continue
        return "FAIL", f"{label} n={n}", _first_difference(label, n, counts)
    return "PASS", f"route agreement (n <= {max_n})", ""


def identities(rec: list[SpineDistribution]) -> tuple[str, str, str]:
    """Check conservation and the segment-sum identity on `rec` from n = 1."""
    label = "conservation and segment-sum identity"
    if len(rec) < 2:
        return "SKIP", label, ""
    for dist in rec[1:]:
        n, total, size = dist.n, sum(dist.counts), catalan(dist.n)
        if total != size:
            return "FAIL", f"conservation n={n}", (
                f"conservation n={n}: counts sum to {render_int(total)}, c_{n} = {render_int(size)}")
        weighted = sum(k * c for k, c in enumerate(dist.counts, start=1))
        growth = catalan(n + 1) - size
        if weighted != growth:
            return "FAIL", f"segment-sum identity n={n}", (
                f"segment-sum identity n={n}: k-weighted counts sum to {render_int(weighted)},"
                f" c_{n + 1} - c_{n} = {render_int(growth)}")
    return "PASS", f"{label} (n <= {rec[-1].n})", ""


def run(max_n: int, cap: int) -> list[tuple[str, str, str]]:
    """Every check up to size max_n, in verify's order; `cap` bounds enumeration."""
    rec = stats.dist_recurrence(range(max_n + 1))
    return [bijection(max_n, cap), routes(rec, cap), identities(rec)]
