"""The checks behind `spinestat verify`.  Each returns a plain tuple
(verdict, label, detail) and prints nothing: PASS, FAIL, or SKIP when no size
fell within the check; `detail` is the stderr line of a FAIL, naming the
size and the values at fault, else "".  Checks call trees and stats through
their modules, so a function replaced there is the one checked.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, compress, pairwise, repeat, zip_longest
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


def _edges(m: int, length: int) -> list:
    """Where level m's blocks start, then the level's `length`: block i, the
    joins of size-i lefts with size-(m-1-i) rights, is a run of c_i
    c_(m-1-i) codes in canonical order.  The last block runs to `length`, so
    that a code past the blocks is still in one."""
    return [0, *accumulate(catalan(i) * catalan(m - 1 - i) for i in range(m - 1)), length]


def _chunks(level, edges):
    """A stored level's (codes, masks) from edges[0] to edges[-1] in slices
    of at most trees.PIECE codes, the size of the pieces the fold streams,
    none across an edge."""
    codes, masks = level
    for start, stop in pairwise(edges):
        for at in range(start, stop, trees.PIECE):
            end = min(at + trees.PIECE, stop)
            yield codes[at:end], masks[at:end]


def _pairs(codes, spine: int, width: int):
    """Every pair (t, b) of a code t and a node b of its spine, one round per
    node from the bottom: yields (codes, nodes, depths) for the codes that
    have such a node, in order, codes and nodes as fields (trees._fields)
    and depths as bytes: the node's bit (1 << b) and the number of the
    spine's nodes above it.  `spine` holds each code's spine nodes, as
    fields, none 0, and the codes have `width` bits.  A round takes each
    code's lowest spine bit left, so each pair comes once.
    """
    count = len(codes)
    while count:
        node = spine ^ (spine & (spine - trees._ones(count)))
        spine ^= node
        depths = _bit_counts(spine, count, width)
        yield trees._fields(codes), node, depths
        if 0 in depths:
            codes = array("Q", compress(codes, depths))
            spine = trees._fields(array("Q", compress(trees._array(spine, count), depths)))
            count = len(codes)


# Depth d -> d + 1, as a translate table.
_DEEPER = bytes(range(1, 256)) + b"\0"

# Of a byte read from its top bit, plus 8 each: the least excess of 1s over
# 0s of its nonempty prefixes (from its two halves'), and its excess.
_HALF = [min(2 * (x >> 4 - m).bit_count() - m for m in range(1, 5)) for x in range(16)]
_LEAST = bytes(8 + min(_HALF[b >> 4], 2 * (b >> 4).bit_count() - 4 + _HALF[b & 15]) for b in range(256))
_EXCESS = bytes(2 * b.bit_count() for b in range(256))


class _Slots:
    """Level n+1's slot tables, one at a time (block).  A size-m code, m >=
    1, is a 1, 2m-2 free bits and two 0s (the last internal node in
    preorder has two external children), and the size-0 code is a 0.  A
    code's slot in its table is its key, the free bits that are not the
    same for every code of the table; the other bits must be the table's.
    A slot holds its code's spine tail, read from the code's own mask and
    packed in one byte as _spine_tails lists it; 0 marks an empty slot."""

    def __init__(self, n: int):
        self.n, self.width, unpack = n, 2 * n + 3, _spine_tails(n)
        # A tail (bit, s) packs to base[bit] + s, and the packed tail p gives
        # back s = segments[p] and, in byte k of a 64-bit field, byte k of
        # its lowest bit 1 << bit: lows[k][p], for the k where that is not
        # always 0.
        base, segments, lows = bytearray(256), bytearray(256), [bytearray(256) for _ in range(8)]
        for packed, (bit, s) in enumerate(unpack[1:], 1):
            base[bit], segments[packed] = packed - s, s
            lows[bit // 8][packed] = 1 << bit % 8
        self.base, self.segments = bytes(base), bytes(segments)
        self.low_bytes = [(k, bytes(table)) for k, table in enumerate(lows) if any(table)]

    def block(self, i: int | None):
        """Release the table, and make block i's: the joins of a size-i left
        with a size-(n-i) right under a 1, keyed by the free bits of the
        left's code above the right's.  That is 4 ** (n-1) slots for the two
        end blocks and 4 ** (n-2) for the others.  With i None, make the
        table of the whole level, keyed by the 2n free bits of the code
        itself: 4 ** n slots."""
        self.table, self.i, n, head = None, i, self.n, 4 ** (self.n + 1)
        if i is None:
            self.low, self.high, self.shift, self.value = 4 ** n - 1, 0, 2, head
        else:
            # The right's free bits from bit 2 go to the bottom of the key,
            # and the left's from bit 2r+3 (3 if the right is the leaf) to
            # bit max(2r-2, 0) of the key.
            r = n - i
            self.low = 4 ** max(r - 1, 0) - 1
            self.high = (4 ** max(i - 1, 0) - 1) * (self.low + 1)
            self.shift = 5 if r else 3
            self.value = head | (i and head >> 1) | (r and 1 << 2 * r)
        self.free = self.low << 2 | self.high << self.shift
        self.table = bytearray((self.low | self.high) + 1)

    def of(self, codes: int, count: int):
        """The slots of `count` codes, as an array, or None if one has none."""
        ones = trees._ones(count)
        if codes & ~(self.free * ones) != self.value * ones:
            return None
        return trees._array(codes >> 2 & self.low * ones | codes >> self.shift & self.high * ones,
                            count)

    def lefts_hold(self, codes: int, count: int) -> bool:
        """Whether each of `count` codes of block i >= 1 has a left subtree
        of size i: read from the root, each of its first 2i+1 prefixes has
        more 1s than 0s, and the last of them one more, so that the left's
        last bit, a 0 (of), closes the left.  A code's left has one size, so
        no code is in two blocks; block 0's codes, whose left is the leaf,
        are the only ones with a 0 after the root."""
        i = self.i
        if not i:
            return True
        lanes, columns = int.from_bytes(b"\1" * count, "little"), i // 4 + 1
        # The root at bit 63, and the bits past the first 2i+1 set, so that
        # they lower no prefix's excess; then a byte column at a time.
        data = (codes << 61 - 2 * self.n | ((1 << 63 - 2 * i) - 1) * trees._ones(count)).to_bytes(
            8 * count, "little")
        excess = 0
        for c in range(columns):
            column = data[7 - c::8]
            # A lane: the least excess of the prefixes that end in this
            # byte, + 8c + 8; bit 7 is set where that excess is 1 or more.
            least = excess + int.from_bytes(column.translate(_LEAST), "little")
            if (least + (119 - 8 * c) * lanes) & 128 * lanes != 128 * lanes:
                return False
            excess += int.from_bytes(column.translate(_EXCESS), "little")
        # An excess of 1, with the set bits and the 8 a byte: 16 columns - 2i.
        return excess == (16 * columns - 2 * i) * lanes

    def fill(self, chunks, size: int) -> int | None:
        """Write the tails of the codes of `chunks` into their slots, a chunk
        at a time until `size` or more are written, and count them; None if
        a code has no slot, a mask lacks its code's root bit (as a mask of 0
        does), or a code has a left subtree of another block's size."""
        written = 0
        for codes, masks in chunks:
            count, mask, fields = len(codes), trees._fields(masks), trees._fields(codes)
            slots, ones = self.of(fields, count), trees._ones(count)
            root = (1 << self.width - 1) * ones
            if slots is None or mask & root != root or not self.lefts_hold(fields, count):
                return None
            low = mask ^ (mask & (mask - ones))
            bits = _bit_counts(low - ones, count, self.width)
            packed = int.from_bytes(bits.translate(self.base), "little") + int.from_bytes(
                _bit_counts(mask, count, self.width), "little")
            any(map(setitem, repeat(self.table), slots, packed.to_bytes(count, "little")))
            written += count
            if written >= size:
                break
        return written

    def inverse(self, images: int, count: int):
        """trees.shrink_codes of `count` images, given the tails in their
        slots, or None if an image has no slot or an empty one."""
        slots = self.of(images, count)
        if slots is None:
            return None
        packed = bytes(map(getitem, repeat(self.table), slots))
        if 0 in packed:
            return None
        lows = bytearray(8 * count)
        for k, table in self.low_bytes:
            lows[k::8] = packed.translate(table)
        return trees.shrink_codes(images, int.from_bytes(lows, "little"), packed.translate(self.segments))


def _round_trips(slots: _Slots, chunks) -> int | None:
    """The number of pairs (t, d) of the codes of `chunks` whose images the
    table of `slots` holds: all of them in the whole level's; in block i's,
    those of d >= 1 for i < n, and those of d = 0, at the root, for i = n.
    None unless each pair's image has a full slot and the inverse, given the
    tail there, gives back the pair; in a block, also unless each code's
    spine (its mask and the terminal leaf) has the root's bit on top, so
    that the blocks split the pairs of the whole level."""
    n, i, width, pairs = slots.n, slots.i, slots.width - 2, 0
    top = 1 << 2 * n
    for codes, masks in chunks:
        count, ones = len(codes), trees._ones(len(codes))
        spine = trees._fields(masks) | ones
        if i is None:
            rounds = _pairs(codes, spine, width)
        elif spine & ~((top - 1) * ones) != top * ones:
            return None
        elif i == n:
            rounds = [(trees._fields(codes), top * ones, bytes(count))]
        else:
            # Below the root: one more spine node above each than _pairs counts.
            rounds = ((fields, nodes, depths.translate(_DEEPER))
                      for fields, nodes, depths in _pairs(codes, spine & (top - 1) * ones, width))
        for fields, nodes, depths in rounds:
            count = len(depths)
            if slots.inverse(trees.grow_codes(fields, nodes, count), count) != (fields, depths):
                return None
            pairs += count
    return pairs


def _level_holds(n: int, lower, chunks, blocks: bool) -> bool:
    """Whether the growth step maps level n's pairs one to one onto level
    n+1's codes, read from `chunks`: in one table of the whole level, or,
    with `blocks`, a block at a time, each table released before the next
    is made.  Block i < n takes the pairs of depth >= 1 of level n's block
    i, which grow inside the right subtree, and block n, the joins with a
    leaf on the right, the pairs of depth 0."""
    slots, edges = _Slots(n), _edges(n, len(lower[0]))
    for i in range(n + 1) if blocks else [None]:
        slots.block(i)
        if i is None or i == n:
            size, pairs = catalan(n + 1) if i is None else catalan(n), (0, edges[-1])
        else:
            size, pairs = catalan(i) * catalan(n - i), edges[i:i + 2]
        if slots.fill(chunks, size) != size or _round_trips(slots, _chunks(lower, pairs)) != size:
            return False
    # No code of level n+1 is left past its last block.
    return next(chunks, None) is None


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
    depth of them a call (_pairs).  Each image must have a full slot in a
    table of level n+1's codes (_Slots), and the inverse, given the spine
    tail found there, read from the fold's own mask, and never the depth d,
    must give back the pair: then no two pairs share an image.  As there are
    as many pairs, sum(spine + 1) over level n, as codes, the images are
    every code once.  A level below the top has one table; the top level,
    streamed, is checked a block at a time (_level_holds), so that no table
    is larger than 4 ** (top-1) bytes: a pair of depth d >= 1 of a code of
    level n's block i grows inside its right subtree, so its image is in
    level n+1's block i, and the pairs of depth 0, one per code, give block
    n.  Each block has as many pairs as codes, c_i c_(n-i), and each code
    of block i must have a left subtree of size i, so no code is in two
    blocks: the blocks pass only where one table of the level would.  A
    level that fails, or that has codes past its blocks, is checked again
    pair by pair in canonical order (_fault.first_fault), to name the
    fault.  That replay shares none of this check's tables, rounds or
    tails: it takes one pair at a time through trees.grow_codes and
    trees.shrink_codes, against a dict of level n+1's codes and masks.  Its
    verdict is the level's, so a step that is one to one but crosses blocks
    passes there.
    """
    label = "bijection and predecessor round trip"
    top = min(max_n, cap - 1)
    if top < 0:
        return "SKIP", label, ""
    levels = trees.code_levels(top + 1, cap=cap)
    upper = next(levels)
    for n in range(top + 1):
        # Level n+1 is a pair of arrays, kept for the fold above it, except
        # the last, which is streamed a piece at a time and never held; no
        # piece crosses a block.
        lower, upper = upper, next(levels)
        chunks = iter(upper) if n == top else _chunks(upper, (0, len(upper[0])))
        if not _level_holds(n, lower, chunks, n == top):
            from ._fault import first_fault

            fault = first_fault(n, lower, cap)
            if fault:
                return fault
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


# stats.spine_fractions(n, n) is checked at each n up to this size: every
# k at every n up to N costs more than N^3, 2 ms up to 64 and 2.9 s up to
# 800 (Python 3.11, 2 vCPUs).
FRACTIONS_MAX_N = 64


def _fractions_difference(dist: SpineDistribution) -> str:
    """The detail of a FAIL of stats.spine_fractions(n, n), which `sample`
    prints, against the recurrence route's count/total at n = dist.n: the
    first k at which their values differ, and both there; "" if none does."""
    pairs = stats.spine_fractions(dist.n, dist.n)
    for k, (count, pair) in enumerate(zip_longest(dist.counts, pairs), 1):
        if count is None or pair is None or count * pair[1] != pair[0] * dist.total:
            recurrence = "none" if count is None else f"{render_int(count)}/{render_int(dist.total)}"
            fractions = "none" if pair is None else f"{render_int(pair[0])}/{render_int(pair[1])}"
            return (f"route agreement n={dist.n}: first differing k={k}: "
                    f"recurrence={recurrence} spine_fractions={fractions}")
    return ""


def routes(rec: list[SpineDistribution], cap: int) -> tuple[str, str, str]:
    """Check the other routes against `rec`, the recurrence route at sizes
    0..max_n; exhaustive runs up to min(max_n, cap), and sample's exact
    column, stats.spine_fractions, up to min(max_n, FRACTIONS_MAX_N)."""
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
        elif n <= FRACTIONS_MAX_N and (detail := _fractions_difference(rec[n])):
            return "FAIL", f"route agreement n={n}", detail
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
