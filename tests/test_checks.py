"""verify's checks as a library: each returns (verdict, label, detail) and
prints nothing."""

import io
import itertools
import tracemalloc

import pytest

from spinestat import catalan, checks, stats, trees
from spinestat.cli import EXIT_VERIFY, main

BIJECTION = "bijection and predecessor round trip"
IDENTITIES = "conservation and segment-sum identity"


@pytest.mark.parametrize("max_n, cap, lines", [
    (0, 11, [f"PASS {BIJECTION} (n <= 0)", "PASS route agreement (n <= 0)", f"SKIP {IDENTITIES}"]),
    (3, 0, [f"SKIP {BIJECTION}", "PASS route agreement (n <= 3)", f"PASS {IDENTITIES} (n <= 3)"]),
    (12, 11, [f"PASS {BIJECTION} (n <= 10)", "PASS route agreement (n <= 12)",
              f"PASS {IDENTITIES} (n <= 12)"]),
    # No size falls within any check, so none passes.
    (-1, 11, [f"SKIP {BIJECTION}", "SKIP route agreement", f"SKIP {IDENTITIES}"]),
])
def test_run_gives_verify_lines(max_n, cap, lines):
    assert checks.run(max_n, cap) == [(*line.split(" ", 1), "") for line in lines]


def test_route_detail_is_returned_not_printed(monkeypatch, capsys):
    dist_series = stats.dist_series

    def perturbed(sizes):
        return [stats.SpineDistribution(d.n, (d.counts[0], d.counts[1] + 1, *d.counts[2:]),
                                        d.total) if d.n == 5 else d
                for d in dist_series(sizes)]

    monkeypatch.setattr(stats, "dist_series", perturbed)
    rec = stats.dist_recurrence(range(7))
    assert checks.routes(rec, 11) == (
        "FAIL", "route agreement n=5",
        "route agreement n=5: first differing k=2: recurrence=14 series=15 closed=14")
    assert capsys.readouterr() == ("", "")


_successor_codes = trees.successor_codes


# Each plants a fault in the second image of the size-1 code 100, whose
# images are 11000 and 10100.
@pytest.mark.parametrize("foreign", [
    lambda a, b: b << 1,     # one bit longer
    lambda a, b: b >> 1,     # one bit short
    lambda a, b: -b,         # negative: its key would wrap in the table
    # The right length, but no slot: without the top bit the key is below
    # 0, and the last two bits must be 00.
    lambda a, b: b - 16,
    lambda a, b: b | 1,
    lambda a, b: b | 2,
    lambda a, b: a,          # a duplicate
    lambda a, b: 0b11100,    # a slot, but of no size-2 code: no pair reaches it
])
def test_foreign_image_fails_bijection(foreign, monkeypatch, capsys):
    def planted(code, mask):
        images = _successor_codes(code, mask)
        if code == 0b100:
            images[1] = foreign(*images)
        return images

    monkeypatch.setattr(trees, "successor_codes", planted)
    image = foreign(0b11000, 0b10100)
    assert checks.bijection(3, 11) == (
        "FAIL", "bijection n=1",
        f"bijection n=1: code 100 at depth 1 gives image {image:05b},"
        " a duplicate or not a size-2 code")
    assert capsys.readouterr() == ("", "")


# Two size-4 codes, in canonical order but in reverse numeric order.
MISSED = (0b111000100, 0b110101000)


@pytest.mark.parametrize("max_n", [3, 5])  # level 4 streamed, then held as a tuple
def test_leftover_names_first_code_in_canonical_order(max_n, monkeypatch):
    monkeypatch.setattr(trees, "successor_codes", lambda code, mask: [
        image for image in _successor_codes(code, mask) if image not in MISSED])
    assert checks.bijection(max_n, 11) == (
        "FAIL", "bijection n=3",
        "bijection n=3: no code and depth gives the size-4 code 111000100")


def test_leftover_at_size_0(monkeypatch):
    monkeypatch.setattr(trees, "successor_codes", lambda code, mask: (
        [] if code == 0 else _successor_codes(code, mask)))
    assert checks.bijection(0, 11) == (
        "FAIL", "bijection n=0", "bijection n=0: no code and depth gives the size-1 code 100")


def test_fold_code_without_a_slot_fails_bijection(monkeypatch):
    # Level 2 gains a code that no image can reach, since it has no slot.
    code_levels = trees.code_levels

    def padded(n, cap):
        *smaller, (codes, masks) = code_levels(n, cap)
        return iter([*smaller, (itertools.chain(codes, [0b01100]),
                                itertools.chain(masks, [0b01100]))])

    monkeypatch.setattr(trees, "code_levels", padded)
    assert checks.bijection(1, 11) == (
        "FAIL", "bijection n=1", "bijection n=1: no code and depth gives the size-2 code 01100")


def test_fold_code_given_twice_fails_bijection(monkeypatch):
    # The streamed top level ends with a second copy of its first code, whose
    # slot is then full already.  Writing it again would hide the repeat: the
    # images would still empty every slot once.
    code_levels = trees.code_levels

    def padded(n, cap):
        *smaller, (codes, masks) = code_levels(n, cap)
        codes, masks = list(codes), list(masks)
        return iter([*smaller, (codes + codes[:1], masks + masks[:1])])

    monkeypatch.setattr(trees, "code_levels", padded)
    assert checks.bijection(3, 11) == (
        "FAIL", "bijection n=3", "bijection n=3: the fold gives the size-4 code 101010100 twice")


@pytest.mark.parametrize("n", range(1, 12))
def test_codes_have_distinct_slots(n):
    # A size-n code is a 1, 2n-2 free bits and two 0s, so its slot
    # (code - 4**n) >> 2 lies in range(4 ** (n-1)).
    *_, (codes, _) = trees.code_levels(n)
    codes = list(codes)
    assert all(code.bit_length() == 2 * n + 1 and code & 3 == 0 for code in codes)
    slots = {(code - 4 ** n) >> 2 for code in codes}
    assert len(slots) == len(codes)
    assert 0 <= min(slots) and max(slots) < 4 ** (n - 1)


def test_spine_tails_pack_in_one_byte():
    # Level n+1's tails (bit, segments): the 2h bits above `bit`, h <= n,
    # hold segments - 1 spine nodes, so 1 <= segments <= h + 1.  Up to
    # n = 21 each packs into 1..255.
    for n in range(22):
        unpack = checks._spine_tails(n)
        assert unpack[0] is None and len(unpack) == (n + 1) * (n + 2) // 2 + 1 <= 256
        for h in range(n + 1):
            for s in range(1, h + 2):
                assert unpack[h * (h + 1) // 2 + s] == (2 * (n + 1 - h), s)


def test_bijection_peak_memory():
    # The dict keyed by int(code, 2) peaked at about 6.7 MiB, and levels
    # 0..10 as tuples of ints at about 3.1 MiB.  The slot table of level 11
    # is 1 MiB, and with the levels as arrays the check peaks at about
    # 1.6 MiB.
    tracemalloc.start()
    try:
        assert checks.bijection(10, 11)[0] == "PASS"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


def test_run_builds_the_recurrence_route_once(monkeypatch):
    dist_recurrence, calls = stats.dist_recurrence, []

    def counted(sizes):
        calls.append(sizes)
        return dist_recurrence(sizes)

    monkeypatch.setattr(stats, "dist_recurrence", counted)
    assert all(verdict == "PASS" for verdict, _, _ in checks.run(6, 11))
    assert calls == [range(7)]


def _with_counts(rec, n, counts):
    return [stats.SpineDistribution(d.n, counts(d.counts), d.total) if d.n == n else d
            for d in rec]


# Size 4 loses its sum; size 5 keeps its sum, 42, with 14 and 9 swapped,
# so its k-weighted sum is 95, not c_6 - c_5 = 132 - 42.
BROKEN = {
    "conservation n=4": (4, lambda c: (c[0] + 1, *c[1:]),
                         "conservation n=4: counts sum to 15, c_4 = 14"),
    "segment-sum identity n=5": (5, lambda c: (c[0], c[2], c[1], *c[3:]),
                                 "segment-sum identity n=5: k-weighted counts sum to 95,"
                                 " c_6 - c_5 = 90"),
}


@pytest.mark.parametrize("label", sorted(BROKEN))
def test_identities_fail(label):
    n, counts, detail = BROKEN[label]
    rec = _with_counts(stats.dist_recurrence(range(7)), n, counts)
    assert checks.identities(rec) == ("FAIL", label, detail)


@pytest.mark.parametrize("label", sorted(BROKEN))
def test_verify_exits_3_on_broken_identities(label, monkeypatch, capsys):
    n, counts, detail = BROKEN[label]
    rec = _with_counts(stats.dist_recurrence(range(7)), n, counts)
    monkeypatch.setattr(stats, "dist_recurrence", lambda sizes: rec)
    out = io.StringIO()
    assert main(["verify", "--max-n", "6"], out=out) == EXIT_VERIFY == 3
    assert f"FAIL {label}" in out.getvalue().splitlines()
    # The identities are the last check, so their detail is the last line.
    assert capsys.readouterr().err.splitlines()[-1] == detail


def test_bijection_folds_each_level_once(monkeypatch):
    # Levels 0..11 are joined once each, in order: c_1 + ... + c_11 = 82,499
    # codes.
    fold, code_block, levels = trees._levels, trees._code_block, []

    def counted(n, cap, leaf, block, *rest):
        for level in fold(n, cap, leaf, block, *rest):
            if block is code_block:
                level = list(level)
                levels.append(level)
            yield level

    monkeypatch.setattr(trees, "_levels", counted)
    assert checks.bijection(10, 11)[0] == "PASS"
    assert [len(level) for level in levels] == [catalan(m) for m in range(12)]
    assert sum(map(len, levels[1:])) == 82_499
