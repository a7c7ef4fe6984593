import gc
import random
import sys
import tracemalloc
from array import array
from collections import Counter
from functools import cache
from math import floor
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinestat import CapExceeded, catalan, enumerate_codes
from remy import (
    draw_spine,
    grow_random,
    sample_uniform,
    spine_law,
    spine_step,
    spine_tails,
    tree_from_arrays,
)
from treeref import (
    MalformedCode,
    decode,
    encode,
    enumerate_trees,
    predecessor,
    predecessor_code,
    size,
    spine_segments,
    successor_codes,
    successors,
)
from spinestat import _codetext, sampler, trees
from spinestat.sampler import sample_spines
from spinestat.trees import (
    DEFAULT_CAP,
    PIECE,
    code_levels,
    grow_codes,
    shrink_codes,
    spine_levels,
)

SIZE_ONE = (None, None)


def right_comb(n):
    t = None
    for _ in range(n):
        t = (None, t)
    return t


class TestSize:
    def test_external(self):
        assert size(None) == 0

    def test_single_internal(self):
        assert size(SIZE_ONE) == 1

    def test_right_comb(self):
        assert size(right_comb(4)) == 4

    def test_matches_enumeration(self):
        for n in range(6):
            assert all(size(t) == n for t in enumerate_trees(n))


class TestSpineSegments:
    def test_size_one(self):
        assert spine_segments(SIZE_ONE) == 1

    def test_external(self):
        assert spine_segments(None) == 0

    def test_right_comb(self):
        assert spine_segments(right_comb(4)) == 4

    def test_left_comb_has_one_segment(self):
        t = None
        for _ in range(5):
            t = (t, None)
        assert spine_segments(t) == 1


def marked_codes(n, cap=DEFAULT_CAP):
    """The size-n codes, each with its spine mask: the last level of
    code_levels, as (code, mask) pairs."""
    for level in code_levels(n, cap):
        pass
    for codes, masks in level:
        yield from zip(codes, masks)


def folded(levels):
    """Each level of a fold as the list of sequences it comes in: a stored
    level whole, the last level piece by piece."""
    *stored, last = levels
    return [*([level] for level in stored), list(last)]


def held_after_size_9(enumerate_):
    """Bytes allocated in trees.py, or in the file that defines enumerate_,
    still held after enumerating size 9."""
    tracemalloc.start()
    try:
        assert sum(1 for _ in enumerate_(9)) == catalan(9)
        # A full collection also empties the tuple free list, whose freed
        # tuples tracemalloc still counts.
        gc.collect()
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, trees.__file__),
             tracemalloc.Filter(True, enumerate_.__code__.co_filename)])
    finally:
        tracemalloc.stop()
    return sum(stat.size for stat in held.statistics("filename"))


_kept = []


def enumerate_keeping(n):
    """enumerate_trees with a module-level cache of its last level."""
    _kept.append(list(enumerate_trees(n)))
    yield from _kept[-1]


class TestEnumerate:
    def test_size_zero(self):
        assert list(enumerate_trees(0)) == [None]

    def test_size_three_count(self):
        assert len(list(enumerate_trees(3))) == 5

    def test_size_eleven_count(self):
        assert sum(1 for _ in enumerate_trees(11)) == catalan(11) == 58786

    def test_no_duplicates(self):
        for n in range(9):
            codes = [encode(t) for t in enumerate_trees(n)]
            assert len(codes) == len(set(codes)) == catalan(n)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_trees(15))
        with pytest.raises(CapExceeded):
            list(enumerate_trees(3, cap=2))

    def test_keeps_nothing_after_return(self):
        # A process-wide cache of levels would still hold the c_9 trees here.
        assert held_after_size_9(enumerate_trees) < 10_000

    def test_a_kept_level_is_seen(self):
        try:
            assert held_after_size_9(enumerate_keeping) >= 10_000
        finally:
            _kept.clear()

    def test_canonical_order_is_by_left_subtree_size(self):
        for n in range(2, 7):
            left_sizes = [size(t[0]) for t in enumerate_trees(n)]
            assert left_sizes == sorted(left_sizes)


class TestEnumerateCodes:
    def test_equals_encoded_trees(self):
        for n in range(12):
            assert list(enumerate_codes(n)) == [encode(t) for t in enumerate_trees(n)]

    def test_equals_reference_codes_in_binary(self):
        for n in range(13):
            assert list(enumerate_codes(n)) == [
                format(code, f"0{2 * n + 1}b") for code, _ in reference_level(n)[0]]

    @given(st.integers(1, 63), st.integers(0, PIECE + 1), st.integers(0, 2 ** 32))
    @settings(max_examples=100, deadline=None)
    def test_piece_text_is_each_code_in_binary(self, width, count, seed):
        rng = random.Random(seed)
        codes = [rng.choice((0, 2 ** width - 1, rng.getrandbits(width))) for _ in range(count)]
        assert _codetext._lines(array("Q", codes), width) == "".join(
            f"{code:0{width}b}\n" for code in codes)

    def test_piece_text_on_a_big_endian_host(self, monkeypatch):
        # A big-endian host holds each element's bytes swapped; _fields reads
        # them in its order, so code 0 is the top field there.
        codes = [1, 2, 5, 6, 0, 7]
        piece = array("Q", codes)
        piece.byteswap()
        for module in (trees, _codetext):
            monkeypatch.setattr(module, "sys", SimpleNamespace(byteorder="big"))
        assert _codetext._lines(piece, 3) == "".join(f"{code:03b}\n" for code in codes)

    @pytest.mark.parametrize("enumerate_",
                             [enumerate_codes, marked_codes, code_levels, enumerate_trees])
    def test_guards_raise_lazily(self, enumerate_):
        # The guards fire at the first next(), not at the call.
        negative, too_big = enumerate_(-1), enumerate_(3, cap=2)
        with pytest.raises(ValueError):
            next(negative)
        with pytest.raises(CapExceeded):
            next(too_big)
        with pytest.raises(CapExceeded):
            next(enumerate_(15))

    def test_keeps_nothing_after_return(self):
        assert held_after_size_9(enumerate_codes) < 10_000


def as_int(t):
    """The int code of t: its preorder bits, the root's on top."""
    return int(encode(t), 2)


def marked(t):
    """(code, mask) of t, built from the tree: the mask has the bit of each
    internal node on the right spine, found by walking that spine."""
    code = encode(t)
    mask, position = 0, 0
    while t is not None:
        mask |= 1 << len(code) - 1 - position
        position += 1 + len(encode(t[0]))
        t = t[1]
    return int(code, 2), mask


def tail(mask):
    """The spine tail that predecessor_code reads: the lowest set bit of the
    mask, the last internal spine node, and the mask's bit count."""
    return (mask & -mask).bit_length() - 1, mask.bit_count()


@cache
def reference_level(m):
    """Level m of tests/treeref.py's fold, in canonical order: each tree's
    (code, mask), and the spine counts as bytes."""
    level = list(enumerate_trees(m, cap=12))
    return [marked(t) for t in level], bytes(map(spine_segments, level))


def fields(values):
    """The values as the 64-bit fields of one int, value j in bits
    64j..64j+63."""
    return int.from_bytes(array("Q", values), sys.byteorder)


def unfields(fields, count):
    return list(array("Q", fields.to_bytes(8 * count, sys.byteorder)))


def spine_nodes(mask):
    """The bits (1 << b) of the right spine's nodes by depth from the root,
    the terminal leaf's (1) last."""
    nodes, spine = [], mask | 1
    while spine:
        nodes.append(spine & -spine)
        spine ^= nodes[-1]
    return nodes[::-1]


def assert_level_wide_step(marks, masks_above):
    """grow_codes and shrink_codes on every pair of the (code, mask) list
    `marks` at once equal successor_codes and predecessor_code, one code at
    a time; masks_above gives each image's mask."""
    pairs = [(code, node, depth) for code, mask in marks
             for depth, node in enumerate(spine_nodes(mask))]
    codes, nodes, depths = zip(*pairs)
    images = unfields(grow_codes(fields(codes), fields(nodes), len(pairs)), len(pairs))
    assert images == [image for code, mask in marks for image in successor_codes(code, mask)]
    lows = [masks_above(image) & -masks_above(image) for image in images]
    segments = bytes(masks_above(image).bit_count() for image in images)
    back, back_depths = shrink_codes(fields(images), fields(lows), segments)
    assert (unfields(back, len(pairs)), list(back_depths)) == (list(codes), list(depths))
    assert [predecessor_code(image, *tail(masks_above(image))) for image in images] == [
        (code, depth) for code, _, depth in pairs]


@cache
def pairs_in_order(n):
    """Level n's pairs (t, d) of tests/treeref.py's trees in the order of
    checks.bijection: for each left size i < n, each size-i left L in
    canonical order joined with each pair (R, d) of level n-1-i, in this
    order, as ((L, R), d + 1); then each tree at depth 0."""
    pairs = [((left, right), d + 1) for i in range(n) for left in enumerate_trees(i)
             for right, d in pairs_in_order(n - 1 - i)]
    return pairs + [(t, 0) for t in enumerate_trees(n)]


class TestGrowthOnCodes:
    """The growth step and its inverse on int codes and spine masks are
    successors and predecessor through encode."""

    def test_marked_fold_unmarks_to_codes(self):
        for n in range(12):
            assert [code for code, _ in marked_codes(n)] == [int(c, 2) for c in enumerate_codes(n)]

    def test_marked_fold_marks_the_spine(self):
        # Every stored level and every streamed piece, in canonical order.
        for n in range(13):
            levels = folded(code_levels(n))
            for m, pieces in enumerate(levels):
                assert [pair for codes, masks in pieces for pair in zip(codes, masks)] == (
                    reference_level(m)[0])
            assert all(len(codes) == len(masks) <= PIECE for codes, masks in levels[n])

    def test_spine_fold_counts_the_spine(self):
        for n in range(13):
            levels = folded(spine_levels(n))
            for m, pieces in enumerate(levels):
                assert b"".join(pieces) == reference_level(m)[1]
            assert all(len(piece) <= PIECE for piece in levels[n])

    def test_marked_fold_keeps_nothing_after_return(self):
        assert held_after_size_9(marked_codes) < 10_000

    def test_size_one(self):
        assert list(marked_codes(1)) == [(0b100, 0b100)]
        assert successor_codes(0b100, 0b100) == [0b11000, 0b10100]
        assert tail(0b100) == (2, 1)
        assert predecessor_code(0b100, 2, 1) == (0, 0)

    def test_external(self):
        assert list(marked_codes(0)) == [(0, 0)]
        assert successor_codes(0, 0) == [0b100]

    def test_equal_to_tree_step_up_to_10(self):
        for n in range(11):
            for t, (code, mask) in zip(enumerate_trees(n), marked_codes(n), strict=True):
                assert successor_codes(code, mask) == [as_int(s) for s in successors(t)]
                if n:
                    p, d = predecessor(t)
                    assert tail(mask)[1] == spine_segments(t)
                    assert predecessor_code(code, *tail(mask)) == (as_int(p), d)

    @pytest.mark.parametrize("n", range(10))
    def test_pairs_grow_within_their_block(self, n):
        # Block i of level m is its trees with a size-i left subtree: a run
        # of canonical order, c_i c_(m-1-i) trees long.  A pair of depth
        # d >= 1 grows inside the right subtree, so its image stays in its
        # tree's block, and the pair of depth 0, (t, leaf), is in block n of
        # level n+1.
        def block(code):
            return size(decode(f"{code:0{2 * n + 3}b}")[0])

        blocks = [size(t[0]) for t in enumerate_trees(n + 1)]
        assert blocks == sorted(blocks)
        assert Counter(blocks) == {i: catalan(i) * catalan(n - i) for i in range(n + 1)}
        for t, (code, mask) in zip(enumerate_trees(n), reference_level(n)[0], strict=True):
            root, *below = map(block, successor_codes(code, mask))
            assert root == n
            assert all(image == size(t[0]) for image in below)
        # So the pairs, block by block, each size-i left with level
        # n-1-i's pairs in this same order, one depth deeper, and then every
        # tree at its root, grow onto level n+1 in canonical order.
        assert [successors(t)[d] for t, d in pairs_in_order(n)] == list(enumerate_trees(n + 1))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_codes_have_their_shape(self, n):
        # A size-n code is a 1, 2n-2 free bits and two 0s: the last
        # internal node in preorder has two external children.
        *_, pieces = code_levels(n)
        assert all(code.bit_length() == 2 * n + 1 and code & 3 == 0
                   for codes, _ in pieces for code in codes)

    @pytest.mark.parametrize("n", range(11))
    def test_level_wide_step_on_every_pair(self, n):
        assert_level_wide_step(list(marked_codes(n)), dict(marked_codes(n + 1)).__getitem__)

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 2 ** 64 - 1)),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_level_wide_step_on_random_codes(self, sizes_and_seeds):
        # Codes of any sizes up to 30 share one call: an image of 63 bits
        # still fits its field.
        grown = [sample_uniform(n, seed) for n, seed in sizes_and_seeds]
        masks = dict(marked(s) for t in grown for s in successors(t))
        assert_level_wide_step([marked(t) for t in grown], masks.__getitem__)

    @given(st.integers(0, 40), st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_equal_to_tree_step_on_random_codes(self, n, seed):
        t = sample_uniform(n, seed)
        code, mask = marked(t)
        images = successor_codes(code, mask)
        assert images == [as_int(s) for s in successors(t)]
        if n:
            p, d = predecessor(t)
            assert predecessor_code(code, *tail(mask)) == (as_int(p), d)
        for d, s in enumerate(successors(t)):
            assert predecessor_code(images[d], *tail(marked(s)[1])) == (code, d)


class TestSuccessors:
    def test_size_one(self):
        result = successors(SIZE_ONE)
        assert len(result) == 2
        assert sorted(spine_segments(t) for t in result) == [1, 2]

    def test_external(self):
        assert successors(None) == [SIZE_ONE]

    def test_right_comb_three(self):
        result = successors(right_comb(3))
        assert sorted(spine_segments(t) for t in result) == [1, 2, 3, 4]
        assert {encode(t) for t in result} <= {encode(u) for u in enumerate_trees(4)}

    def test_length_and_sizes(self):
        for t in enumerate_trees(5):
            result = successors(t)
            assert len(result) == 1 + spine_segments(t)
            assert all(size(s) == 6 for s in result)
            assert [spine_segments(s) for s in result] == list(range(1, len(result) + 1))

    def test_partition_bijection(self):
        # Every size n+1 tree arises exactly once from a size-n tree.
        for n in range(8):
            images = Counter(
                encode(s) for t in enumerate_trees(n) for s in successors(t)
            )
            expected = Counter(encode(u) for u in enumerate_trees(n + 1))
            assert images == expected


class TestPredecessor:
    def test_paper_figure(self):
        # Spine tree with left subtrees A,B,C,D (here combs of sizes 1..4)
        # comes from the tree with A,B on the spine and C with D hanging right.
        a, b, c, d = (right_comb(i) for i in range(1, 5))
        t = (a, (b, (c, (d, None))))
        p, depth = predecessor(t)
        assert depth == 3
        assert p == (a, (b, (c, d)))
        assert successors(p)[depth] == t

    def test_size_one(self):
        assert predecessor(SIZE_ONE) == (None, 0)

    def test_external_raises(self):
        with pytest.raises(ValueError):
            predecessor(None)

    def test_round_trip_size_six(self):
        for t in enumerate_trees(6):
            p, d = predecessor(t)
            assert successors(p)[d] == t


class TestLongSpine:
    """The growth step and its inverse walk the spine in a loop: a spine far
    longer than the recursion limit is handled.  Codes are compared, as
    tuples' equality and hash recurse."""

    def test_predecessor_of_a_5000_comb(self):
        t = decode("10" * 5000 + "0")
        p, d = predecessor(t)
        assert (encode(p), d) == ("10" * 4999 + "0", 4999)

    def test_successors_of_a_1200_comb(self):
        # Every image rebuilds the spine above its graft, so a comb of s
        # nodes costs s^2/2 tree nodes; 1200 already passes the default limit.
        t = decode("10" * 1201 + "0")
        p, d = predecessor(t)
        images = successors(p)
        assert len(images) == 1201
        assert [spine_segments(s) for s in images] == list(range(1, 1202))
        assert encode(images[d]) == encode(t)


class TestCodec:
    def test_external(self):
        assert encode(None) == "0"

    def test_size_one(self):
        assert encode(SIZE_ONE) == "100"

    def test_right_comb_three(self):
        assert encode(right_comb(3)) == "1010100"

    def test_round_trip(self):
        for n in range(8):
            for t in enumerate_trees(n):
                assert decode(encode(t)) == t

    @pytest.mark.parametrize("bad", ["", "1", "00", "110", "010", "10", "abc", "1000"])
    def test_malformed(self, bad):
        with pytest.raises(MalformedCode):
            decode(bad)

    @given(st.integers(0, 30), st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_sampled(self, n, seed):
        t = sample_uniform(n, seed)
        assert decode(encode(t)) == t


class TestSampler:
    def test_size_zero(self):
        assert sample_uniform(0, 123) is None

    def test_size_one(self):
        assert sample_uniform(1, 99) == SIZE_ONE

    def test_deterministic(self):
        assert sample_uniform(20, 7) == sample_uniform(20, 7)
        assert list(sample_spines(10, 50, 3)) == list(sample_spines(10, 50, 3))

    def test_correct_size(self):
        assert size(sample_uniform(37, 5)) == 37

    def test_negative_size_raises_lazily(self):
        spines = sample_spines(-3, 4, 1)
        with pytest.raises(ValueError):
            next(spines)

    def test_uniform_over_size_four(self):
        rng = random.Random(42)
        freq = Counter()
        n_samples = 14000
        for _ in range(n_samples):
            freq[encode(tree_from_arrays(*grow_random(4, rng)))] += 1
        assert len(freq) == 14
        for count in freq.values():
            assert abs(count / n_samples - 1 / 14) < 0.02

    # Sizes 0 and 1 are point masses; 36 is the last size whose cuts cover
    # every tail and 37 the first whose list is cut short; past 64 the law
    # is the ballot formula's.
    @pytest.mark.parametrize("seed", [77, 0, 2 ** 64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 9, 12, 16, 17, 33, 36, 37, 63, 64,
                                   256, 257, 512, 513])
    def test_spine_stream_matches_tree_sampler(self, n, seed):
        # Draw for draw: each sample of sample_spines is remy.draw_spine's
        # inverse-CDF draw from the same generator over the chain's exact
        # law.
        samples = 20 if n > 100 else 50
        getrandbits = random.Random(seed).getrandbits
        expected = [draw_spine(exact_law(n), getrandbits) for _ in range(samples)]
        assert list(sample_spines(n, samples, seed)) == expected

    def test_spine_chain_law_is_exact(self):
        # The spine chain pushed forward in exact arithmetic, over all of
        # step n's 2(2n+1) draws, is the ballot law.
        for n in range(65):
            assert spine_law(n) == ballot_law(n), n

    def test_tails_are_the_chain_law(self):
        # The sampler's tails, in Fractions, are P(spine >= k) for every k:
        # of the chain's exact law for every n <= 64, and of the ballot
        # counts at n = 100, 513 and 1000.
        from fractions import Fraction

        for n in [*range(65), 100, 513, 1000]:
            tails = [Fraction(num, den) for num, den in sampler._tails(n)]
            assert tails == spine_tails(exact_law(n)), n

    @pytest.mark.parametrize("n", range(13))
    def test_words_at_each_cut(self, n):
        # Every cut floor(T(k) 2^64) of n as a sample's first word, and its
        # neighbours: only a cut where T(k) 2^64 is not an int reads more
        # than one word, which every n >= 3 has at k = 2, and each word
        # gives draw_spine's spine from the same words.
        refined = 0
        for tail in spine_tails(exact_law(n)):
            cut = floor(tail * 2 ** 64)
            for r in (cut - 1, cut, cut + 1):
                if r < 2 ** 64:
                    spine, read = scripted_sample(n, [r])
                    assert (read > 1) == (r == cut != tail * 2 ** 64), r
                    assert (spine, read) == scripted_reference(n, [r]), r
                    refined += read > 1
        assert refined or n < 3

    @pytest.mark.parametrize("second, spine", [(0, 37), (2 ** 64 - 1, 36)])
    def test_zero_word_below_a_cut_short_list(self, second, spine):
        # At n = 37, T(37) = 1/c_37 is below 2^-64, so the list of cuts ends
        # at 0 and r = 0 ties with it: the second word decides U < T(37).
        assert scripted_sample(37, [0, second]) == (spine, 2)
        assert scripted_reference(37, [0, second]) == (spine, 2)

    @pytest.mark.parametrize("n", [2, 9, 50, 64, 1000, 10 ** 12])
    def test_one_word_a_sample(self, n):
        # A word equal to a cut has probability about 2^-58 a sample, so
        # 10,000 samples read exactly 10,000 words.
        samples = 10_000
        generator = Scripted(5)
        with mock.patch("random.Random", lambda seed: generator):
            assert len(list(sample_spines(n, samples, 5))) == samples
        assert generator.read == samples

    @pytest.mark.parametrize("n", range(6))
    def test_remy_growth_is_uniform_over_every_draw_sequence(self, n):
        # Every sequence of Remy's draws, v < 2k+1 then a side < 2 at step k,
        # is equally likely: 2^n (2n-1)!! sequences, 30,240 at n = 5.  Each
        # of the c_n trees comes from as many of them, so their spines have
        # the ballot law.  From every tree the sequences reach at size n-1,
        # the last step's 2(2n-1) pairs give the spines that spine_step gives
        # over its 2(2n-1) draws: the chain is the spine of Remy's growth.
        from collections import defaultdict
        from fractions import Fraction
        from itertools import product

        class Scripted:
            def __init__(self, draws):
                self.draws = iter(draws)

            def randrange(self, bound):
                u = next(self.draws)
                assert 0 <= u < bound
                return u

        bounds = [b for k in range(n) for b in (2 * k + 1, 2)]
        trees_seen, spines, last_step = Counter(), Counter(), defaultdict(Counter)
        for draws in product(*map(range, bounds)):
            t = tree_from_arrays(*grow_random(n, Scripted(draws)))
            trees_seen[encode(t)] += 1
            spines[spine_segments(t)] += 1
            last_step[draws[:-2]][spine_segments(t)] += 1
        total = sum(trees_seen.values())
        assert len(trees_seen) == catalan(n)
        assert set(trees_seen.values()) == {total // catalan(n)}
        assert {k: Fraction(c, total) for k, c in spines.items()} == ballot_law(n)
        if n:
            for prefix, after in last_step.items():
                before = tree_from_arrays(*grow_random(n - 1, Scripted(prefix)))
                draws = range(2 * (2 * n - 1))
                assert after == Counter(spine_step(spine_segments(before), u) for u in draws)

    def test_chi_square_against_ballot_law_at_n8(self):
        # 7 degrees of freedom; 24.32 is the 0.1% upper point.
        samples = 100_000
        observed = Counter(sample_spines(8, samples, 2026))
        law = ballot_law(8)
        assert set(observed) <= set(law)
        chi2 = sum((observed[k] - samples * p) ** 2 / (samples * p) for k, p in law.items())
        assert chi2 < 24.32

    @pytest.mark.parametrize("n", [40, 65, 200])
    def test_chi_square_against_ballot_law_at_larger_n(self, n):
        # Lists of cuts cut short.  The spines 1..15 and a bin of the rest:
        # 15 degrees of freedom, and 37.70 is the 0.1% upper point.
        samples = 100_000
        observed = Counter(min(k, 16) for k in sample_spines(n, samples, 2026))
        law = Counter()
        for k, p in ballot_law(n).items():
            law[min(k, 16)] += p
        chi2 = sum((observed[k] - samples * p) ** 2 / (samples * p) for k, p in law.items())
        assert set(observed) <= set(law) and len(law) == 16
        assert chi2 < 37.70

    def test_sampler_keeps_no_per_step_state(self):
        tracemalloc.start()
        try:
            assert len(list(sample_spines(100_000, 1, 7))) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def ballot_law(n):
    """The exact spine law of a uniform size-n tree, from the ballot formula."""
    from fractions import Fraction

    from spinestat.stats import dist_closed

    if n == 0:
        return {0: Fraction(1)}
    [dist] = dist_closed(range(n, n + 1))
    return {k: Fraction(dist.count(k), catalan(n)) for k in range(1, n + 1)}


@cache
def exact_law(n):
    """The chain's exact law for n <= 64, and the ballot formula's past it."""
    return spine_law(n) if n <= 64 else ballot_law(n)


class Scripted(random.Random):
    """A generator that gives `words` first and then its seed's words, 64
    bits at a time, and counts in `read` the words drawn."""

    def __init__(self, seed, words=()):
        super().__init__(seed)
        self.words, self.read = list(words), 0

    def getrandbits(self, k):
        assert k == 64
        self.read += 1
        return self.words.pop(0) if self.words else super().getrandbits(k)


def scripted_sample(n, words, seed=0):
    """The first spine of sample_spines(n, ...) fed `words` first, and the
    number of words it read."""
    generator = Scripted(seed, words)
    with mock.patch("random.Random", lambda seed: generator):
        [spine] = sample_spines(n, 1, seed)
    return spine, generator.read


def scripted_reference(n, words, seed=0):
    """scripted_sample's spine and words read, from draw_spine."""
    generator = Scripted(seed, words)
    return draw_spine(exact_law(n), generator.getrandbits), generator.read


@st.composite
def words_near_cuts(draw):
    """A size in 2..80 and up to three first words, each a random word or
    one next to a cut floor(T(k) 2^64) of that size's tails."""
    n = draw(st.integers(2, 80))
    cuts = [floor(tail * 2 ** 64) for tail in spine_tails(exact_law(n))]
    near = st.builds(int.__add__, st.sampled_from(cuts), st.integers(-1, 1))
    word = st.one_of(st.integers(0, 2 ** 64 - 1), near.filter(lambda r: 0 <= r < 2 ** 64))
    return n, draw(st.lists(word, min_size=1, max_size=3))


@given(words_near_cuts(), st.integers(0, 2 ** 64 - 1))
@settings(max_examples=200, deadline=None)
def test_sampler_equals_fraction_reference(n_words, seed):
    n, words = n_words
    assert scripted_sample(n, words, seed) == scripted_reference(n, words, seed)


@given(st.integers(1, 40), st.integers(0, 2 ** 64 - 1))
@settings(max_examples=60, deadline=None)
def test_predecessor_inverts_growth_step(n, seed):
    t = sample_uniform(n, seed)
    p, d = predecessor(t)
    assert size(p) == n - 1
    assert successors(p)[d] == t


@given(st.integers(0, 40), st.integers(0, 2 ** 64 - 1))
@settings(max_examples=60, deadline=None)
def test_successor_count_property(n, seed):
    t = sample_uniform(n, seed)
    assert len(successors(t)) == 1 + spine_segments(t)
