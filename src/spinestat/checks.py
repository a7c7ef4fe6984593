"""The checks behind `spinestat verify`.  Each returns a plain tuple
(verdict, label, detail) and prints nothing: PASS, FAIL, or SKIP when no size
fell within the check; `detail` is the stderr line of a FAIL, naming the
size and the values at fault, else "".  Checks call trees and stats through
their modules, so a function replaced there is the one checked.
"""

from __future__ import annotations

from itertools import zip_longest

from . import stats, trees
from .series import catalan
from .stats import SpineDistribution, render_int


def _shrunk(images, masks) -> tuple[int, bytes, int]:
    """trees.shrink_codes of the codes `images`, given their `masks`, two
    arrays of a piece: (codes, depths, lows), codes and lows as fields
    (trees._fields), lows the lowest set bit of each mask, the image's last
    internal spine node.  A mask of 0 has none: its field of lows reads 0,
    and the next may read wrong, as the subtraction borrows from it."""
    fields = trees._fields(masks)
    lows = fields ^ (fields & (fields - trees._ones(len(masks))))
    segments = bytes(map(int.bit_count, masks))
    return (*trees.shrink_codes(trees._fields(images), lows, segments), lows)


def _pair_pieces(levels: list, n: int):
    """Level n's pairs (t, node), node a bit of t's right spine (1 << b; the
    terminal leaf's is 1), in the order whose images are level n+1 in
    canonical order, cut as trees._pieces cuts level n+1: (codes, nodes,
    depths) a piece, codes and nodes as fields and depths as bytes.
    `levels` holds the stored levels 0..n, each a pair (codes, masks).

    Block i < n joins each size-i left L, in canonical order, with level
    n-1-i's pairs (R, node) in this same order, giving (join(L, R), node)
    one depth deeper: grow(join(L, R), node) = join(L, grow(R, node)), and
    the fold builds level n+1's block i left by left.  Level n-1-i's pairs
    are the ones that level n-i's codes grew from, read back from them by
    the inverse (_shrunk), each node the lowest bit of its image's mask
    shifted right by 2; a right of a piece or more is read again for each
    left, so that no level's pairs are held whole.  Block n is every tree
    of level n at its root, at depth 0: grow(t, root) = join(t, leaf).
    """
    root = 1 << 2 * n

    def block(lefts: range, rights: range, m: int, i: int):
        codes = levels[i][0][lefts.start:lefts.stop]
        if i == n:
            return trees._fields(codes), root * trees._ones(len(codes)), bytes(len(codes))
        images, masks = (values[rights.start:rights.stop] for values in levels[n - i])
        count = len(images)
        right_codes, depths, lows = _shrunk(images, masks)
        joined = trees._code_block(codes, trees._array(right_codes, count), n, i)
        return (trees._fields(joined), trees._fields(trees._array(lows >> 2, count) * len(codes)),
                depths.translate(trees._SUCCESSOR) * len(codes))

    return trees._pieces(block, [range(len(codes)) for codes, _ in levels], n + 1)


def _runs(pairs, level):
    """Each piece of `pairs` with the run of the stored level (codes, masks)
    as long as it, then (None, the rest) if some of the level is left."""
    (codes, masks), at = level, 0
    for piece in pairs:
        count = len(piece[2])
        yield piece, (codes[at:at + count], masks[at:at + count])
        at += count
    if at < len(codes):
        yield None, (codes[at:], masks[at:])


def _in_order(aligned) -> bool:
    """Whether each piece of pairs (codes, nodes, depths) of `aligned` grows
    onto the piece (images, masks) of level n+1 beside it: the images are
    the codes, the lowest bit of each mask is its pair's node shifted left
    by 2 (as fields, so no bit crosses into the next), and the inverse,
    given the masks, gives back the pairs' codes and depths; and neither
    side has a piece left over.  The inverse's depths are as many as the
    images, so the two pieces have one length."""
    for pairs, piece in aligned:
        if pairs is None or piece is None:
            return False
        (codes, nodes, depths), (images, masks) = pairs, piece
        if trees.grow_codes(codes, nodes, len(depths)) != trees._fields(images):
            return False
        back, back_depths, lows = _shrunk(images, masks)
        if lows != nodes << 2 or (back, back_depths) != (codes, depths):
            return False
    return True


def bijection(max_n: int, cap: int) -> tuple[str, str, str]:
    """Check, for each n up to min(max_n, cap - 1), that the growth step maps
    the pairs (t, d) of a size-n tree and a spine depth one to one onto the
    size-(n+1) trees, and that the inverse gives back (t, d).  Given the
    bijection, that covers every size-(n+1) tree, so a round trip FAIL is
    labelled n+1 and comes after its level's bijection verdict; the detail
    of a FAIL names n, the code and the depth at fault.

    The check runs on int codes and builds no tree: trees.code_levels folds
    each level once per call, and the level-wide trees.grow_codes and
    trees.shrink_codes take a piece of at most trees.PIECE codes a call.
    Level n's pairs come in an order whose images are level n+1's codes in
    canonical order (_pair_pieces), cut as the fold cuts level n+1, so each
    piece of pairs must grow onto the fold's piece of level n+1, field for
    field, and the inverse, given the fold's own masks and never the depth,
    must give them back (_in_order).  The inverse is then a left inverse,
    so the step is one to one, and its images are every code of level n+1
    once.  Level n's pairs below the root are read back from the levels
    below it, which have passed in order, so by induction they are every
    pair of those levels once.  The top level is streamed a piece at a
    time and never held, and no table of any level is made.

    A level that fails is checked again pair by pair in canonical order
    (_fault.first_fault), to name the fault, and so is every level above
    it, whose pairs below the root the check in order could no longer
    trust.  That replay shares no code with this check: it takes one pair
    at a time through trees.grow_codes and trees.shrink_codes, against a
    dict of level n+1's codes and masks.  Its verdict is the level's, so a
    step that is one to one but out of order passes there.
    """
    label = "bijection and predecessor round trip"
    top = min(max_n, cap - 1)
    if top < 0:
        return "SKIP", label, ""
    levels = trees.code_levels(top + 1, cap=cap)
    stored, in_order = [next(levels)], True
    for n in range(top + 1):
        # Level n+1 is a pair of arrays, kept for the levels above, except
        # the last, which is streamed a piece at a time and never held.
        upper, pairs = next(levels), _pair_pieces(stored, n)
        aligned = zip_longest(pairs, upper) if n == top else _runs(pairs, upper)
        in_order = in_order and _in_order(aligned)
        if not in_order:
            from ._fault import first_fault

            fault = first_fault(n, stored[n], cap)
            if fault:
                return fault
        stored.append(upper)
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
