import gc
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinestat import CapExceeded, catalan, enumerate_codes
from remy import grow_random, sample_uniform, spine_chain, spine_step, tree_from_arrays
from treeref import (
    MalformedCode,
    decode,
    encode,
    enumerate_trees,
    predecessor,
    size,
    spine_segments,
    successors,
)
from spinestat import trees
from spinestat.trees import (
    DEFAULT_CAP,
    code_levels,
    predecessor_code,
    sample_spines,
    successor_codes,
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
    yield from zip(*level)


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


class TestGrowthOnCodes:
    """The growth step and its inverse on int codes and spine masks are
    successors and predecessor through encode."""

    def test_marked_fold_unmarks_to_codes(self):
        for n in range(12):
            assert [code for code, _ in marked_codes(n)] == [int(c, 2) for c in enumerate_codes(n)]

    def test_marked_fold_marks_the_spine(self):
        for n in range(9):
            assert list(marked_codes(n)) == [marked(t) for t in enumerate_trees(n)]

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
        import random

        rng = random.Random(42)
        freq = Counter()
        n_samples = 14000
        for _ in range(n_samples):
            freq[encode(tree_from_arrays(*grow_random(4, rng)))] += 1
        assert len(freq) == 14
        for count in freq.values():
            assert abs(count / n_samples - 1 / 14) < 0.02

    # The bound 4k+2 of step k gains a bit at k = 1, 2, 4, ..., 256, 512, so
    # the last step of n = 2, 3, 5, 9, 17, 257, 513 is the first of its width.
    @pytest.mark.parametrize("seed", [77, 0, 2 ** 64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 9, 12, 16, 17, 256, 257, 512, 513])
    def test_spine_stream_matches_tree_sampler(self, n, seed):
        # Draw for draw: successive spine chains on one generator give the
        # same spines as sample_spines with that seed.
        import random

        samples = 20 if n > 100 else 50
        rng = random.Random(seed)
        expected = [spine_chain(n, rng) for _ in range(samples)]
        assert list(sample_spines(n, samples, seed)) == expected

    def test_spine_chain_law_is_exact(self):
        # The spine chain pushed forward in exact arithmetic: at step n each
        # of its 2(2n+1) outcomes u has probability 1/(2(2n+1)).
        from fractions import Fraction

        law = {0: Fraction(1)}
        for n in range(31):
            assert law == ballot_law(n), n
            bound = 2 * (2 * n + 1)
            step = Counter()
            for spine, p in law.items():
                for u in range(bound):
                    step[spine_step(spine, u)] += p / bound
            law = dict(step)

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
