"""verify's checks as a library: each returns (verdict, label, detail) and
prints nothing."""

import hashlib
import io
import sys
import tracemalloc
from array import array
from itertools import chain
from operator import add

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


def planted_fractions(n, fault):
    """stats.spine_fractions with its list at size n given to fault(pairs)."""
    spine_fractions = stats.spine_fractions

    def planted(m, k_max):
        pairs = spine_fractions(m, k_max)
        return fault(pairs) if m == n else pairs

    return planted


# A fault in the fractions that `sample` prints, planted at n = 5 (k = 3 is
# 9/42, unreduced 1080/5040) or at n = 4, and the detail it gives.
FRACTION_FAULTS = {
    "value": (5, lambda p: [*p[:2], (p[2][0] + 1, p[2][1]), *p[3:]],
              "route agreement n=5: first differing k=3: recurrence=9/42"
              " spine_fractions=1081/5040"),
    "missing row": (4, lambda p: p[:-1],
                    "route agreement n=4: first differing k=4: recurrence=1/14"
                    " spine_fractions=none"),
    "extra row": (4, lambda p: [*p, (1, 1)],
                  "route agreement n=4: first differing k=5: recurrence=none"
                  " spine_fractions=1/1"),
}


@pytest.mark.parametrize("fault", sorted(FRACTION_FAULTS))
def test_spine_fractions_fault_fails_route_agreement(fault, monkeypatch, capsys):
    n, plant, detail = FRACTION_FAULTS[fault]
    monkeypatch.setattr(stats, "spine_fractions", planted_fractions(n, plant))
    rec = stats.dist_recurrence(range(7))
    assert checks.routes(rec, 11) == ("FAIL", f"route agreement n={n}", detail)
    out = io.StringIO()
    assert main(["verify", "--max-n", "6"], out=out) == EXIT_VERIFY
    assert f"FAIL route agreement n={n}" in out.getvalue().splitlines()
    assert capsys.readouterr().err.splitlines() == [detail]


def test_spine_fractions_are_compared_by_value():
    # Unreduced pairs pass: 1080/5040 is 9/42.
    assert stats.spine_fractions(5, 5)[2] == (1080, 5040)
    assert checks.routes(stats.dist_recurrence(range(7)), 11)[0] == "PASS"


@pytest.mark.parametrize("n, verdict", [(checks.FRACTIONS_MAX_N, "FAIL"),
                                        (checks.FRACTIONS_MAX_N + 1, "PASS")])
def test_spine_fractions_are_checked_up_to_their_bound(n, verdict, monkeypatch):
    monkeypatch.setattr(stats, "spine_fractions",
                        planted_fractions(n, lambda p: [(1, 1), *p[1:]]))
    rec = stats.dist_recurrence(range(checks.FRACTIONS_MAX_N + 2))
    assert checks.routes(rec, 3)[0] == verdict


def each_image(fault):
    """trees.grow_codes with each pair's image replaced by fault(code,
    node, image), node the bit of the spine node grown at (1 << b; the
    terminal leaf's is 1)."""
    grow = trees.grow_codes

    def planted(codes, nodes, count):
        values = (trees._array(fields, count) for fields in (codes, nodes, grow(codes, nodes, count)))
        return trees._fields(array("Q", map(fault, *values)))

    return planted


def appended(m, pairs):
    """trees.code_levels with the (code, mask) pairs after level m's own."""
    code_levels, extra = trees.code_levels, tuple(array("Q", values) for values in zip(*pairs))

    def planted(n, cap):
        for k, level in enumerate(code_levels(n, cap)):
            if k == m:
                level = tuple(map(add, level, extra)) if k < n else chain(level, [extra])
            yield level

    return planted


def replaced(m, old, new):
    """trees.code_levels with level m's code `old` replaced by the (code,
    mask) pair `new`."""
    code_levels = trees.code_levels

    def swapped(codes, masks):
        codes, masks = array("Q", codes), array("Q", masks)
        if old in codes:
            at = codes.index(old)
            codes[at], masks[at] = new
        return codes, masks

    def planted(n, cap):
        for k, level in enumerate(code_levels(n, cap)):
            if k == m:
                level = swapped(*level) if k < n else (swapped(*piece) for piece in level)
            yield level

    return planted


def rootless(m, code):
    """trees.code_levels with a copy of stored level m, whose `code` loses
    the root's bit from its mask once level m+1 is asked for: after level
    m's own check, before the check of the level above it."""
    code_levels = trees.code_levels

    def planted(n, cap):
        for k, level in enumerate(code_levels(n, cap)):
            if k == m:
                codes, masks = level = tuple(array("Q", values) for values in level)
            yield level
            if k == m:
                masks[codes.index(code)] ^= 1 << 2 * m

    return planted


# Each plants a fault in the second image of the size-1 code 100, whose
# images are 11000 (depth 0, grown at the root) and 10100 (depth 1, grown at
# the terminal leaf).
@pytest.mark.parametrize("foreign", [
    lambda a, b: b << 1,     # one bit longer
    lambda a, b: b >> 1,     # one bit short
    # What -b is in a 64-bit field: bits far above a size-2 code's.
    lambda a, b: (1 << 64) - b,
    # The right length, but not a size-2 code's shape, a 1, two free bits
    # and 00: without the top bit, or not ending in 00.
    lambda a, b: b - 16,
    lambda a, b: b | 1,
    lambda a, b: b | 2,
    lambda a, b: a,          # a duplicate
    lambda a, b: 0b11100,    # the shape, but of no size-2 code: no pair reaches it
])
def test_foreign_image_fails_bijection(foreign, monkeypatch, capsys):
    monkeypatch.setattr(trees, "grow_codes", each_image(lambda code, node, image: (
        foreign(0b11000, image) if (code, node) == (0b100, 1) else image)))
    image = foreign(0b11000, 0b10100)
    assert checks.bijection(3, 11) == (
        "FAIL", "bijection n=1",
        f"bijection n=1: code 100 at depth 1 gives image {image:05b},"
        " a duplicate or not a size-2 code")
    assert capsys.readouterr() == ("", "")


def test_two_pairs_on_one_code_fail_bijection(monkeypatch):
    # Level 2's first code, 10100, grows at its terminal leaf the image it
    # grows at its root, 1101000, and no pair gives 1010100.  The level
    # still has as many pairs as level 3 has codes, so only the round trip
    # through the inverse shows the fault.
    monkeypatch.setattr(trees, "grow_codes", each_image(lambda code, node, image: (
        0b1101000 if (code, node) == (0b10100, 1) else image)))
    assert checks.bijection(3, 11) == (
        "FAIL", "bijection n=2",
        "bijection n=2: code 10100 at depth 2 gives image 1101000, a duplicate or not a size-3 code")


# Two codes of a size-4 code's shape but of no tree, in canonical order but
# in reverse numeric order, each with a mask of the root alone.
STRAYS = ((0b111111100, 0b100000000), (0b100000000, 0b100000000))


@pytest.mark.parametrize("max_n", [3, 5])  # level 4 streamed, then stored
def test_leftover_names_first_code_in_canonical_order(max_n, monkeypatch):
    monkeypatch.setattr(trees, "code_levels", appended(4, STRAYS))
    assert checks.bijection(max_n, 11) == (
        "FAIL", "bijection n=3",
        "bijection n=3: no code and depth gives the size-4 code 111111100")


@pytest.mark.parametrize("max_n", [3, 5])  # level 4 streamed, then stored
def test_leftover_in_the_last_block(max_n, monkeypatch):
    # 1 1111100 0 has the shape of a code of level 4's last block, the
    # joins with a leaf on the right, but 1111100 is no tree: the level
    # holds one code more than it has pairs.
    monkeypatch.setattr(trees, "code_levels", appended(4, [(0b111111000, 0b100000000)]))
    assert checks.bijection(max_n, 11) == (
        "FAIL", "bijection n=3", "bijection n=3: no code and depth gives the size-4 code 111111000")


def test_leftover_at_size_0(monkeypatch):
    # Level 1 gains the code 0 (000 at size 1's width), without a root bit.
    monkeypatch.setattr(trees, "code_levels", appended(1, [(0, 0)]))
    assert checks.bijection(0, 11) == (
        "FAIL", "bijection n=0", "bijection n=0: no code and depth gives the size-1 code 000")


def test_fold_code_without_a_slot_fails_bijection(monkeypatch):
    # Level 2 gains a code that no image can reach, since it lacks the
    # root's bit.
    monkeypatch.setattr(trees, "code_levels", appended(2, [(0b01100, 0b01100)]))
    assert checks.bijection(1, 11) == (
        "FAIL", "bijection n=1", "bijection n=1: no code and depth gives the size-2 code 01100")


def test_fold_code_given_twice_fails_bijection(monkeypatch):
    # The streamed top level ends with a second copy of its first code.
    # The images still reach every code once, but there is one code more
    # than pairs.
    monkeypatch.setattr(trees, "code_levels", appended(4, [(0b101010100, 0b101010100)]))
    assert checks.bijection(3, 11) == (
        "FAIL", "bijection n=3", "bijection n=3: the fold gives the size-4 code 101010100 twice")


@pytest.mark.parametrize("max_n", [3, 5])  # level 4 streamed, then stored
def test_code_in_two_blocks_fails_bijection(max_n, monkeypatch):
    # 1 100 11000 is a code of level 4's block 1.  The fold gives it again
    # in block 3, the joins with a leaf on the right, in place of
    # 1 1100100 0, with a mask whose tail, bit 4 and one segment, sends it
    # back to (1100100, 0) through the inverse; and 1100100 grows at its
    # root onto it.  So that image is the fold's code in order, and the
    # inverse gives its pair back, but the mask's lowest bit is not the
    # root's shifted left by 2, and the fold gives the code twice.
    monkeypatch.setattr(trees, "code_levels", replaced(4, 0b111001000, (0b110011000, 1 << 4)))
    monkeypatch.setattr(trees, "grow_codes", each_image(lambda code, node, image: (
        0b110011000 if (code, node) == (0b1100100, 1 << 6) else image)))
    assert checks.bijection(max_n, 11) == (
        "FAIL", "bijection n=3", "bijection n=3: the fold gives the size-4 code 110011000 twice")


def test_rootless_spine_fails_bijection(monkeypatch):
    # Level 3's first code, 1010100, loses its root's bit from its mask
    # after the check of level 2, which reads level 3's masks.  Level 4's
    # last block takes level 3's roots from the level, not from the masks,
    # but level 2's pairs, read back from level 3's masks, are then one
    # depth short at 1010100, and the replay takes level 3's pairs from
    # its masks, without that code's root.
    monkeypatch.setattr(trees, "code_levels", rootless(3, 0b1010100))
    assert checks.bijection(3, 11) == (
        "FAIL", "bijection n=3", "bijection n=3: no code and depth gives the size-4 code 110101000")


def test_bijection_peak_memory():
    # Levels 0..10 as arrays of codes and masks are about 0.35 MiB, and the
    # check holds no table, only a piece of level 10's pairs and of level
    # 11 at a time: it peaks at about 0.53 MiB, where a slot table of up to
    # 4 ** 9 bytes peaked at about 0.76 MiB.  The bound is the measured
    # peak plus a third.
    tracemalloc.start()
    try:
        assert checks.bijection(10, 11)[0] == "PASS"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.7 * 2 ** 20


def test_bijection_peak_memory_at_level_13():
    # Levels 0..12 as arrays of codes and masks are 4.4 MiB, and the check
    # adds a piece at a time: it peaks at about 4.8 MiB, where level 13's
    # largest block table, 4 ** 11 bytes, took it to about 8.7 MiB.  The
    # bound is the measured peak plus a quarter.
    tracemalloc.start()
    try:
        assert checks.bijection(12, 13)[0] == "PASS"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2 ** 20


class _Discarded:
    """An `out` for main that keeps nothing written to it."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_enumerate_peak_memory():
    # Levels 0..11 as tuples of str peaked at about 6.3 MiB.  As arrays of
    # int codes they take 0.63 MiB, and with one piece's text at a time
    # enumerate peaks at about 0.9 MiB.
    tracemalloc.start()
    try:
        assert main(["enumerate", "--n", "12"], out=_Discarded()) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


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
    # codes.  Level n's pairs, c_(n+1) of them, are grown a piece of level
    # n+1 at a time, one call of the growth step a piece: at most n + 1
    # pieces for each chunk of trees.PIECE codes of level n, never a call
    # per code.  The inverse takes each piece once, and once more where the
    # piece's pairs below the root are read back from a lower level.
    fold, code_block, sizes, levels = trees._levels, trees._code_block, [], []

    def counted(n, cap, leaf, block, *rest):
        for m, level in enumerate(fold(n, cap, leaf, block, *rest)):
            if block is code_block:
                pieces = [level] if m < n else list(level)
                sizes.append(sum(map(len, pieces)))
                level = level if m < n else iter(pieces)
            yield level

    def pair_pieces(stored, n):
        levels.append({"n": n, "grow": 0, "shrink": 0, "pairs": 0})
        return checks_pair_pieces(stored, n)

    def grow(codes, nodes, count):
        levels[-1]["grow"] += 1
        levels[-1]["pairs"] += count
        return grow_codes(codes, nodes, count)

    def shrink(images, lows, segments):
        levels[-1]["shrink"] += 1
        return shrink_codes(images, lows, segments)

    checks_pair_pieces = checks._pair_pieces
    grow_codes, shrink_codes = trees.grow_codes, trees.shrink_codes
    monkeypatch.setattr(trees, "_levels", counted)
    monkeypatch.setattr(checks, "_pair_pieces", pair_pieces)
    monkeypatch.setattr(trees, "grow_codes", grow)
    monkeypatch.setattr(trees, "shrink_codes", shrink)
    assert checks.bijection(10, 11)[0] == "PASS"
    assert sizes == [catalan(m) for m in range(12)]
    assert sum(sizes[1:]) == 82_499
    assert [level["n"] for level in levels] == list(range(11))
    for n, level in enumerate(levels):
        chunks = -(-catalan(n) // trees.PIECE)
        assert level["pairs"] == catalan(n + 1)
        assert level["grow"] <= chunks * (n + 1)
        assert level["shrink"] <= 2 * level["grow"]
    assert sum(level["grow"] for level in levels) < 200


def _grid_pairs(n):
    """Level n's pairs (code, node) in canonical order: its codes as the
    fold stores them, and each code's spine nodes from the root down."""
    *_, pieces = trees.code_levels(n)
    return [(code, 1 << b) for codes, masks in pieces for code, mask in zip(codes, masks)
            for b in range((mask | 1).bit_length() - 1, -1, -1) if (mask | 1) >> b & 1]


def _depth_flipped(image):
    """trees.shrink_codes with the depth that `image` returns to flipped in
    its lowest bit."""
    shrink = trees.shrink_codes

    def planted(images, lows, segments):
        codes, depths = shrink(images, lows, segments)
        fields = trees._array(images, len(segments))
        return codes, bytes(d ^ (field == image) for field, d in zip(fields, depths))

    return planted


def _grid(max_n, kind, monkeypatch):
    """The (verdict, label, detail) of checks.bijection(max_n, 11) with one
    fault planted at a time: for kind k, fault k of
    test_foreign_image_fails_bijection at each pair of level max_n in turn
    (its `a` the image of the level's first pair); for "shrink", a flipped
    depth at each image of level max_n+1 in turn."""
    if kind == "shrink":
        *_, pieces = trees.code_levels(max_n + 1)
        plants = [(trees, "shrink_codes", _depth_flipped(image))
                  for codes, _ in pieces for image in codes]
    else:
        foreign, pairs = _FOREIGN[kind], _grid_pairs(max_n)
        first = trees.grow_codes(*pairs[0], 1)
        plants = [(trees, "grow_codes", each_image(
            lambda code, node, image, pair=pair: foreign(first, image) if (code, node) == pair else image))
            for pair in pairs]
    results = []
    for plant in plants:
        with monkeypatch.context() as context:
            context.setattr(*plant)
            results.append(checks.bijection(max_n, 11))
    return results


# The faults of test_foreign_image_fails_bijection, as (a, b) -> image.
_FOREIGN = test_foreign_image_fails_bijection.pytestmark[0].args[1]

# sha256 of the joined (verdict, label, detail) lines of _grid, one per
# max_n and fault kind.
GRID = {
    (1, 0): "99fbad319a2a7f8115165b5eb9183e3ea786ce6502d445e07c9100f7c0ed8c62",
    (1, 1): "c5684b37e94ceba4332da45fee2fef6c28664f4038b81ef94d72513dda98d3ae",
    (1, 2): "c19a8ff22d24f8c40e77aed127ab3cb1d7d82b05fcfc385e44be18fad121e264",
    (1, 3): "6de79cefff73823bd7ea1aeccd323ab603157a7b537dc0712bc3327c65c68f83",
    (1, 4): "d0805d81dd3e2f7c6b170827d0675d9e56767252255839cb8c72e52b85d862e5",
    (1, 5): "36a4d91275f7ecf35c628e4a18495f6a71c83d6f27f1bb4954d4392404424c30",
    (1, 6): "c7b0514935d71b759c78f02070d53f09ec573ced70f1842d05eace279ed0eeeb",
    (1, 7): "857debe10ee76411b8d430b67a7d40bd2bf5efca6c2b8359b8b5eaa7ad9f989e",
    (1, 'shrink'): "af7433280f15c05dbb0fc0182432f73de5224f7524db18b28bc4cf5d6acff0f9",
    (2, 0): "f7f9390e1aa135eefb5f094041401864fa9df98fd01c0ecf1710e7642880d201",
    (2, 1): "bcf61c0203715419fddbdc4da4eefb40b9cf4b5470a618a20f4539618c076054",
    (2, 2): "bcc0dbaf4b37eb72d0916eb7da04507fad52e2a94bd9852872af1e7019f37da4",
    (2, 3): "f0a3e08cc52e2cedd10371174250c35d9ccde6705356c62eb0c4f7758384bc0b",
    (2, 4): "ec7c0a5d678d34be2496dc63d188a85f2c75959f99a5729d8cf11dfaa00b0791",
    (2, 5): "14ab2e316fbb48839b6a9be542625e23bf5c65bb409274a3ecbd72e055245aa3",
    (2, 6): "b204ea1d94d4bcfa64f96064f3bb767d541ba29994c2d1618a4a8a6b21242469",
    (2, 7): "b7dc80be69cf091ea28510869ab57499cc1093cc40def28b81f77fc7297e0555",
    (2, 'shrink'): "db326fb0f2fd511a740998fd3da20e28e906d2408c612f3c3ac124201e069eb1",
    (3, 0): "7acf7e34f38ba040b7edbc5090bd9af11b7495f96ca11e02615124b6be1fb204",
    (3, 1): "c8bc15e96278b49b02dbd59d2665d374314e0ad9e79b90eecda0f3359c46d8f1",
    (3, 2): "043b5c59dc9df906f31ff7c8012dc3447583f0a469071caa73502d83af5b3f8f",
    (3, 3): "2295a81a8f32a269bd0d0eba519730ec88eb5127f3154befcd5f374292cd5ef7",
    (3, 4): "8e5b585de03073a7a3f464e339b7d0191d98627d5c2db88856dc3ce4cd11cdcd",
    (3, 5): "0759e88dbf93e42a176fff8629a502000fc65ff0a7c33d6449b59886c0ac34de",
    (3, 6): "60ad8ec4f40254780c79b9bd66efbb806ee2214453aeb8aa3a69350f37721d7b",
    (3, 7): "f29c47273dbcf0cc33b56d8eefc4266184fcd9dfd57c9d21b5fc17d0ddef6fbb",
    (3, 'shrink'): "d81122266cd400f0f3f3949e4cb1ab21e86d43592d271f92a4e431bc4302e570",
    (4, 0): "74cd3704cae24cf8c6bb8c54b7dd849478a80a7d49fd0ddd06b4c1fb9b1ac6ef",
    (4, 1): "16ae5ec9d3408d8471ec1aac09489e4009ffcae015ab94db9d2c414527dc1f91",
    (4, 2): "02985c2f8f077e425985972ccafd84c382d2588ae268cc6a79347dfaa52f314d",
    (4, 3): "9d61b7f277fcc4cd51480d4140277aa159341cd5d41cc54786140bfbd7e83657",
    (4, 4): "ff0b83a74aeb5b4c77be4ea1686467589e4d5dbd5a8261610d6017c5830d4504",
    (4, 5): "bac7b3a24071c63215beca0de67461d92e2884351c4b71f9f86f228622d6a533",
    (4, 6): "997b657cbd43c518c8ce59cd863b3eb9e6a201f88ca1352a64dda38f09293990",
    (4, 7): "b4b6d5aaee13ff94142f4e7cbbbc28d742a1d3858a415be4a6a2601f4df7fb68",
    (4, 'shrink'): "3d6bd87b559bd0a4b9ea8157bddf9130c15e526f3a95f5bf7e2a223e5f095524",
}


@pytest.mark.parametrize("max_n, kind", sorted(GRID, key=str))
def test_fault_grid_details(max_n, kind, monkeypatch):
    results = _grid(max_n, kind, monkeypatch)
    assert all(verdict == "FAIL" for verdict, _, _ in results[1:])
    joined = "\n".join("\t".join(result) for result in results)
    assert hashlib.sha256(joined.encode()).hexdigest() == GRID[max_n, kind]


# Level 2's code 11000, grown at the root from 100, with the mask 0.
ZERO_MASK = "predecessor round trip n=2: image 11000 returns ('1100', 255), expected ('100', 0)"


@pytest.mark.parametrize("max_n", [3, 1])  # level 2 stored, then streamed
def test_zero_mask_fails_bijection(max_n, monkeypatch):
    monkeypatch.setattr(trees, "code_levels", replaced(2, 0b11000, (0b11000, 0)))
    assert checks.bijection(max_n, 11) == ("FAIL", "predecessor round trip n=2", ZERO_MASK)


def test_verify_exits_3_on_a_zero_mask(monkeypatch, capsys):
    monkeypatch.setattr(trees, "code_levels", replaced(2, 0b11000, (0b11000, 0)))
    out = io.StringIO()
    assert main(["verify", "--max-n", "3"], out=out) == EXIT_VERIFY
    assert "FAIL predecessor round trip n=2" in out.getvalue().splitlines()
    assert capsys.readouterr().err.splitlines() == [ZERO_MASK]


@pytest.mark.parametrize("code", [0b11001, 0b01100, 0b11010])
@pytest.mark.parametrize("max_n", [3, 1])  # level 2 stored, then streamed
def test_slotless_code_given_twice_is_not_reached(code, max_n, monkeypatch):
    # A code that does not end in 00, or lacks its root bit, is not of a
    # size-2 code's shape: given twice, it is a code that no pair gives,
    # not a code the fold gives twice.
    monkeypatch.setattr(trees, "code_levels", appended(2, [(code, 0b10000)] * 2))
    assert checks.bijection(max_n, 11) == (
        "FAIL", "bijection n=1", f"bijection n=1: no code and depth gives the size-2 code {code:05b}")


def test_replay_shares_no_rounds_with_the_check(monkeypatch):
    # Pairs that lack the last of their level fail the check of every
    # level, and each level is refolded for the replay.  The step is one to
    # one, and the replay, which takes its pairs itself, finds no fault
    # there.  spinestat._fault is imported afresh, as by a `verify` that
    # fails.
    pair_pieces, code_levels, folds = checks._pair_pieces, trees.code_levels, []

    def dropped(stored, n):
        *pieces, (codes, nodes, depths) = pair_pieces(stored, n)
        codes, nodes = (trees._fields(trees._array(fields, len(depths))[:-1])
                        for fields in (codes, nodes))
        return [*pieces, (codes, nodes, depths[:-1])]

    def counted(n, cap):
        folds.append(n)
        return code_levels(n, cap)

    monkeypatch.setattr(checks, "_pair_pieces", dropped)
    monkeypatch.setattr(trees, "code_levels", counted)
    monkeypatch.delitem(sys.modules, "spinestat._fault", raising=False)
    assert checks.bijection(4, 11) == ("PASS", f"{BIJECTION} (n <= 4)", "")
    assert folds == [5, 1, 2, 3, 4, 5]


def test_one_to_one_out_of_order_passes_by_the_replay(monkeypatch):
    # Level 2's first code, 10100, grows at its terminal leaf (depth 2) and
    # at the spine node above it (depth 1) onto 1010100 and 1011000, level
    # 3's first piece, here swapped, and the inverse swaps them back.  The
    # step is one to one, but its images are out of canonical order: each
    # level from 2 fails the check in order, and the replay, imported only
    # then, passes it.
    swapped = {(0b10100, 1): 0b1011000, (0b10100, 0b100): 0b1010100}
    back = {0b1011000: (0b10100, 2), 0b1010100: (0b10100, 1)}
    shrink = trees.shrink_codes

    def planted(images, lows, segments):
        count = len(segments)
        codes, depths = shrink(images, lows, segments)
        pairs = [back.get(image, pair) for image, pair in zip(
            trees._array(images, count), zip(trees._array(codes, count), depths))]
        return trees._fields(array("Q", (code for code, _ in pairs))), bytes(d for _, d in pairs)

    monkeypatch.setattr(trees, "grow_codes", each_image(lambda code, node, image: (
        swapped.get((code, node), image))))
    monkeypatch.setattr(trees, "shrink_codes", planted)
    monkeypatch.delitem(sys.modules, "spinestat._fault", raising=False)
    assert checks.bijection(4, 11) == ("PASS", f"{BIJECTION} (n <= 4)", "")
    assert "spinestat._fault" in sys.modules


def test_levels_above_a_replayed_level_are_replayed(monkeypatch):
    # On a piece of more than one image, the inverse sends 1011000 back to
    # 11000 in place of 10100: level 2 fails its check in order, and the
    # replay, one image a call, passes it.  Read back from level 3 that
    # way, level 2's pairs would hold (11000, node 4), which is no pair:
    # 11000 has no spine node at bit 2.  Level 3 grows 1 0 11000 there onto
    # 1 0 1011000, and the inverse of pieces sends that back, while the
    # true pair (1010100, node 4) grows onto 1010100 itself.  Checked in
    # order from those pairs, level 3 would pass without ever growing the
    # true pair; the replay takes level 3's pairs from its masks.
    grown = {(0b1011000, 0b100): 0b101011000, (0b1010100, 0b100): 0b1010100}
    fake = {0b1011000: 0b11000, 0b101011000: 0b1011000}
    shrink = trees.shrink_codes

    def planted(images, lows, segments):
        count = len(segments)
        codes, depths = shrink(images, lows, segments)
        if count > 1:
            codes = trees._fields(array("Q", (fake.get(image, code) for image, code in zip(
                trees._array(images, count), trees._array(codes, count)))))
        return codes, depths

    monkeypatch.setattr(trees, "grow_codes", each_image(lambda code, node, image: (
        grown.get((code, node), image))))
    monkeypatch.setattr(trees, "shrink_codes", planted)
    assert checks.bijection(3, 11) == (
        "FAIL", "bijection n=3",
        "bijection n=3: code 1010100 at depth 2 gives image 001010100, a duplicate or not a size-4 code")


def test_fault_replay_peak_memory(monkeypatch):
    # Each size-9 code's root image is its leaf image.  The replay keeps
    # level 10 as one dict of codes and masks, about 1.9 MiB at its peak,
    # where one slot table of the whole level, a list of its pairs and
    # their sort peaked at about 5.6 MiB.
    monkeypatch.setattr(trees, "grow_codes", each_image(lambda code, node, image: (
        4 * code + 4 if node == 1 << 18 and code.bit_length() == 19 else image)))
    tracemalloc.start()
    try:
        result = checks.bijection(9, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == ("FAIL", "bijection n=9", (
        "bijection n=9: code 1010101010101010100 at depth 9 gives image"
        " 101010101010101010100, a duplicate or not a size-10 code"))
    assert peak <= 3 * 2 ** 20
