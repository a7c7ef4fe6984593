"""The checks behind `spinestat verify`.  Each returns a plain tuple
(verdict, label, detail) and prints nothing: PASS, FAIL, or SKIP when no size
fell within the check; `detail` is the stderr line of a route or exhaustive
FAIL, else "".  Checks call trees and stats through their modules, so a
function replaced there is the one checked.
"""

from __future__ import annotations

from . import stats, trees
from .series import catalan
from .stats import SpineDistribution, render_int


def bijection(max_n: int, cap: int) -> tuple[str, str, str]:
    """Check, for each n up to min(max_n, cap - 1), that the growth step maps
    the pairs (t, d) of a size-n tree and a spine depth one to one onto the
    size-(n+1) trees, in one pass striking each image's code from the unseen
    codes, and that predecessor gives back (t, d).  Given the bijection, that
    covers every size-(n+1) tree, so a round trip FAIL is labelled n+1 and
    comes after its level's bijection verdict.
    """
    label = "bijection and predecessor round trip"
    top = min(max_n, cap - 1)
    if top < 0:
        return "SKIP", label, ""
    for n in range(top + 1):
        unseen = set(trees.enumerate_codes(n + 1, cap=cap))
        round_trip = True
        for t in trees.enumerate_trees(n, cap=cap):
            for d, s in enumerate(trees.successors(t)):
                try:
                    unseen.remove(trees.encode(s))
                except KeyError:
                    return "FAIL", f"bijection n={n}", ""
                if trees.predecessor(s) != (t, d):
                    round_trip = False
        if unseen:
            return "FAIL", f"bijection n={n}", ""
        if not round_trip:
            return "FAIL", f"predecessor round trip n={n + 1}", ""
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
