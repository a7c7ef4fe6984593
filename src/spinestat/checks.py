"""The checks behind `spinestat verify`.  Each returns a plain tuple
(verdict, label, detail) and prints nothing: PASS, FAIL, or SKIP when no size
fell within the check; `detail` is the stderr line of a FAIL, naming the
size and the values at fault, else "".  Checks call trees and stats through
their modules, so a function replaced there is the one checked.
"""

from __future__ import annotations

from . import stats, trees
from .series import catalan
from .stats import SpineDistribution, render_int


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


def bijection(max_n: int, cap: int) -> tuple[str, str, str]:
    """Check, for each n up to min(max_n, cap - 1), that the growth step maps
    the pairs (t, d) of a size-n tree and a spine depth one to one onto the
    size-(n+1) trees, and that the inverse gives back (t, d).  Given the
    bijection, that covers every size-(n+1) tree, so a round trip FAIL is
    labelled n+1 and comes after its level's bijection verdict; the detail
    of a FAIL names n, the code and the depth at fault.

    The check runs on int codes through trees.successor_codes and
    trees.predecessor_code, and builds no tree.  trees.code_levels folds
    each level once per call.  A size-(n+1) code is a 1, 2n free bits and
    two 0s (the last internal node in preorder has two external children),
    so with head = 4 ** (n+1) its slot (code - head) >> 2 is one of 4 ** n.
    Level n+1's slots are a bytearray: each code's slot holds its spine
    tail packed in one byte by _spine_tails, 0 marks an empty slot, and a
    code that finds its slot full is one the fold gives twice.  Each image
    of the level-n codes empties its slot: an empty one is a duplicate or
    foreign image, and a slot left full is a code that no pair reaches.  The
    inverse reads the emptied spine tail, never the depth d of the image.
    """
    label = "bijection and predecessor round trip"
    top = min(max_n, cap - 1)
    if top < 0:
        return "SKIP", label, ""
    levels = trees.code_levels(top + 1, cap=cap)
    upper = next(levels)
    for n in range(top + 1):
        # Level n+1 is a pair of arrays, kept for the fold above it, except
        # the last, which is streamed into `tails` and never held.
        lower, upper = upper, next(levels)
        # A code's key is code - head, and its slot key >> 2.  key & outside
        # is 0 just when 0 <= key < head and key & 3 == 0; a negative key
        # would wrap in the bytearray.
        head, width = 4 ** (n + 1), 2 * n + 3
        outside = ~(head - 4)
        unpack = _spine_tails(n)
        # A tail packs to base[1 << bit] + segments.
        base = {1 << bit: packed - s for packed, (bit, s) in enumerate(unpack[1:], 1)}
        tails = bytearray(4 ** n)
        stray = False  # a code of level n+1 that has no slot, so no image reaches it
        for code, mask in zip(*upper):
            key = code - head
            if key & outside:
                stray = True
            elif tails[key >> 2]:
                return "FAIL", f"bijection n={n}", (
                    f"bijection n={n}: the fold gives the size-{n + 1} code"
                    f" {code:0{width}b} twice")
            else:
                tails[key >> 2] = base[mask & -mask] + mask.bit_count()
        fault = ""
        for code, mask in zip(*lower):
            for d, image in enumerate(trees.successor_codes(code, mask)):
                key = image - head
                tail = 0 if key & outside else tails[key >> 2]
                if not tail:
                    return "FAIL", f"bijection n={n}", (
                        f"bijection n={n}: code {code:0{width - 2}b} at depth {d} gives image"
                        f" {image:0{width}b}, a duplicate or not a size-{n + 1} code")
                tails[key >> 2] = 0
                # Positional arguments and an unpacked result: a call with *args
                # and a compared tuple made the whole check about 15% slower.
                bit, segments = unpack[tail]
                origin, depth = trees.predecessor_code(image, bit, segments)
                if not fault and (origin != code or depth != d):
                    # The returned code's width is its own, as its size is in question.
                    fault = (f"predecessor round trip n={n + 1}: image {image:0{width}b}"
                             f" returns ('{origin:b}', {depth}),"
                             f" expected ('{code:0{width - 2}b}', {d})")
        if stray or tails.count(0) != len(tails):
            # Fold level n+1 again to name its first code, in canonical order,
            # that no image reached.
            *_, (codes, _) = trees.code_levels(n + 1, cap=cap)
            first = next(code for code in codes
                         if (key := code - head) & outside or tails[key >> 2])
            return "FAIL", f"bijection n={n}", (
                f"bijection n={n}: no code and depth gives the size-{n + 1} code"
                f" {first:0{width}b}")
        if fault:
            return "FAIL", f"predecessor round trip n={n + 1}", fault
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
