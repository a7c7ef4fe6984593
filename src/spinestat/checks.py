"""The checks behind `spinestat verify`.  Each returns a plain tuple
(verdict, label, detail) and prints nothing: PASS, FAIL, or SKIP when no size
fell within the check; `detail` is the stderr line of a bijection, route
or exhaustive FAIL, else "".  Checks call trees and stats through their
modules, so a function replaced there is the one checked.
"""

from __future__ import annotations

from . import stats, trees
from .series import catalan
from .stats import SpineDistribution, render_int


def bijection(max_n: int, cap: int) -> tuple[str, str, str]:
    """Check, for each n up to min(max_n, cap - 1), that the growth step maps
    the pairs (t, d) of a size-n tree and a spine depth one to one onto the
    size-(n+1) trees, and that the inverse gives back (t, d).  Given the
    bijection, that covers every size-(n+1) tree, so a round trip FAIL is
    labelled n+1 and comes after its level's bijection verdict; the detail
    of a FAIL names n, the code and the depth at fault.

    The check runs on preorder codes through trees.successor_codes and
    trees.predecessor_code, and builds no tree.  The size-(n+1) codes are
    keyed by int(code, 2), one to one there since every code has the same
    length and starts with '1'.  Each key maps to its code's spine_tail,
    read from the level-(n+1) fold and packed below 256 for n <= 14, so the
    values are cached small ints.  trees.marked_levels folds each level once
    per call.  Each image of the level-n codes pops its key: a missing key
    is a duplicate or foreign image, and a key left over is a code that no
    pair reaches.  The inverse reads the popped spine_tail, never the depth
    the image was grown at.
    """
    label = "bijection and predecessor round trip"
    top = min(max_n, cap - 1)
    if top < 0:
        return "SKIP", label, ""
    levels = trees.marked_levels(top + 1, cap=cap)
    upper = next(levels)
    for n in range(top + 1):
        # Level n+1 is a tuple, kept for the fold above it, except the last,
        # which is streamed into `tails` and never held.
        lower, upper = upper, next(levels)
        # Spine positions are even (each left subtree's code has odd
        # length), so last // 2 <= n and segments <= n + 1 pack in width.
        width, length = n + 2, 2 * n + 3
        tails = {}
        for marked in upper:
            last, segments = trees.spine_tail(marked)
            tails[int(trees.unmark(marked), 2)] = last // 2 * width + segments
        fault = ""
        for marked in lower:
            code = trees.unmark(marked)
            for d, image in enumerate(trees.successor_codes(marked)):
                try:
                    tail = tails.pop(int(image, 2)) if len(image) == length else None
                except (KeyError, ValueError):
                    tail = None
                if tail is None:
                    return "FAIL", f"bijection n={n}", (
                        f"bijection n={n}: code {code} at depth {d} gives image {image},"
                        f" a duplicate or not a size-{n + 1} code")
                half, segments = divmod(tail, width)
                returned = trees.predecessor_code(image, 2 * half, segments)
                if not fault and returned != (code, d):
                    fault = (f"predecessor round trip n={n + 1}: image {image} returns"
                             f" {returned}, expected {(code, d)}")
        if tails:
            first = format(next(iter(tails)), "b")
            return "FAIL", f"bijection n={n}", (
                f"bijection n={n}: no code and depth gives the size-{n + 1} code {first}")
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
    max_n = len(rec) - 1
    sizes = range(max_n + 1)
    ser, closed = (stats.ROUTES[name](sizes) for name in ("series", "closed"))
    exhaustive = stats.ROUTES["exhaustive"](range(min(max_n, cap) + 1), cap=cap)
    for n in sizes:
        if not rec[n].counts == ser[n].counts == closed[n].counts:
            counts = {"recurrence": rec[n].counts, "series": ser[n].counts,
                      "closed": closed[n].counts}
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
        n = dist.n
        if sum(dist.counts) != catalan(n):
            return "FAIL", f"conservation n={n}", ""
        weighted = sum(k * c for k, c in enumerate(dist.counts, start=1))
        if weighted != catalan(n + 1) - catalan(n):
            return "FAIL", f"segment-sum identity n={n}", ""
    return "PASS", f"{label} (n <= {rec[-1].n})", ""


def run(max_n: int, cap: int) -> list[tuple[str, str, str]]:
    """Every check up to size max_n, in verify's order; `cap` bounds enumeration."""
    rec = stats.ROUTES["recurrence"](range(max_n + 1))
    return [bijection(max_n, cap), routes(rec, cap), identities(rec)]
