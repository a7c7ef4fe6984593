"""Seeded command lists of the three workloads.

A workload is a list of spinestat argv lists, fixed by the seed.  A timed
pass runs the list once, one child process at a time (a closed loop with one
client).  The seed moves sizes only inside narrow bands, so that the work of
a pass, and with it its time, hardly depends on the seed.
"""

from __future__ import annotations

import random

FORMATS = ("text", "csv", "json")


def _routes(rng: random.Random) -> list[list[str]]:
    # Series arithmetic, the recurrence and closed routes, Catalan numbers,
    # decimal rendering and the CLI's 0.8 MB csv/json emission; no trees.
    # Recurrence and closed each run in all three formats so that the format
    # mix, and so the pass cost, is the same for every seed.
    cmds = [["dist", "--n", str(rng.randint(1397, 1403)), "--method", method,
             "--format", fmt]
            for method in ("recurrence", "closed") for fmt in FORMATS]
    # dist_series costs about n^4, so its n stays fixed.
    cmds.append(["dist", "--n", "60", "--method", "series",
                 "--format", rng.choice(FORMATS)])
    for fmt in ("text", "json"):
        cmds.append(["average", "--n", str(rng.randint(9900, 10100)),
                     "--format", fmt, "--precision", str(rng.choice((2, 10, 30)))])
    # k stays below 14284: from there on 2^(k+1) has more than 4300 digits
    # and `limit` fails (see KNOWN_DEFECTS).
    for k in (100, 1000, 4000, 9000, 14000):
        cmds.append(["limit", "--k", str(k + rng.randint(0, 283)),
                     "--format", rng.choice(("text", "json")),
                     "--precision", str(rng.choice((2, 10, 30)))])
    return cmds


def _exhaustive(rng: random.Random) -> list[list[str]]:
    # Canonical enumeration, the growth step and its inverse, the preorder
    # codec and the _all_trees cache.  Sizes are fixed: enumeration grows
    # about 4x per n, so a seeded size would swamp the timing.
    cmds = [
        ["verify", "--max-n", "10"],
        ["dist", "--n", "12", "--method", "exhaustive", "--format", rng.choice(FORMATS)],
        ["enumerate", "--n", "11"],
    ]
    rng.shuffle(cmds)
    return cmds


def _sampler(rng: random.Random) -> list[list[str]]:
    # Random Remy growth in trees, plus dist_recurrence(n) for the exact
    # column.  The sampler's seeds come from the workload seed.
    cmds = [
        ["sample", "--n", str(rng.randint(995, 1005)), "--samples", "1500",
         "--seed", str(rng.randrange(2**31)), "--format", rng.choice(FORMATS)],
        ["sample", "--n", "50", "--samples", "20000",
         "--seed", str(rng.randrange(2**31)), "--format", rng.choice(FORMATS)],
    ]
    rng.shuffle(cmds)
    return cmds


WORKLOADS = {"routes": _routes, "exhaustive": _exhaustive, "sampler": _sampler}

# Commands that fail at the benchmarked code for a known reason.  They run
# once per benchmark run, outside the timed passes, and their outcome is
# printed with the result, so the defect stays visible while the measured
# workloads hold only commands that succeed.
KNOWN_DEFECTS = {
    "routes": [["limit", "--k", "14284"], ["limit", "--k", "15000", "--format", "json"]],
}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass of `workload` for `seed`."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
