import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinestat import (
    EXTERNAL,
    BinaryTree,
    CapExceeded,
    EmptyTree,
    MalformedCode,
    catalan,
    decode,
    encode,
    enumerate_codes,
    enumerate_trees,
    predecessor,
    sample_uniform,
    size,
    spine_segments,
    successors,
)
from spinestat import trees
from spinestat.trees import sample_spines

SIZE_ONE = BinaryTree(EXTERNAL, EXTERNAL)


def right_comb(n):
    t = EXTERNAL
    for _ in range(n):
        t = BinaryTree(EXTERNAL, t)
    return t


@pytest.mark.parametrize("left, right", [(EXTERNAL, None), (None, EXTERNAL)])
def test_node_has_zero_or_two_children(left, right):
    with pytest.raises(ValueError):
        BinaryTree(left, right)


class TestSize:
    def test_external(self):
        assert size(EXTERNAL) == 0

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
        assert spine_segments(EXTERNAL) == 0

    def test_right_comb(self):
        assert spine_segments(right_comb(4)) == 4

    def test_left_comb_has_one_segment(self):
        t = EXTERNAL
        for _ in range(5):
            t = BinaryTree(t, EXTERNAL)
        assert spine_segments(t) == 1


def held_after_size_9(enumerate_):
    """Bytes allocated in trees.py still held after enumerating size 9."""
    tracemalloc.start()
    try:
        assert sum(1 for _ in enumerate_(9)) == catalan(9)
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, trees.__file__)])
    finally:
        tracemalloc.stop()
    return sum(stat.size for stat in held.statistics("filename"))


class TestEnumerate:
    def test_size_zero(self):
        assert list(enumerate_trees(0)) == [EXTERNAL]

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

    def test_canonical_order_is_by_left_subtree_size(self):
        for n in range(2, 7):
            left_sizes = [size(t.left) for t in enumerate_trees(n)]
            assert left_sizes == sorted(left_sizes)


class TestEnumerateCodes:
    def test_equals_encoded_trees(self):
        for n in range(12):
            assert list(enumerate_codes(n)) == [encode(t) for t in enumerate_trees(n)]

    @pytest.mark.parametrize("enumerate_", [enumerate_codes, enumerate_trees])
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


class TestSuccessors:
    def test_size_one(self):
        result = successors(SIZE_ONE)
        assert len(result) == 2
        assert sorted(spine_segments(t) for t in result) == [1, 2]

    def test_external(self):
        assert successors(EXTERNAL) == [SIZE_ONE]

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
        t = BinaryTree(a, BinaryTree(b, BinaryTree(c, BinaryTree(d, EXTERNAL))))
        p, depth = predecessor(t)
        assert depth == 3
        assert p == BinaryTree(a, BinaryTree(b, BinaryTree(c, d)))
        assert successors(p)[depth] == t

    def test_size_one(self):
        assert predecessor(SIZE_ONE) == (EXTERNAL, 0)

    def test_external_raises(self):
        with pytest.raises(EmptyTree):
            predecessor(EXTERNAL)

    def test_round_trip_size_six(self):
        for t in enumerate_trees(6):
            p, d = predecessor(t)
            assert successors(p)[d] == t


class TestCodec:
    def test_external(self):
        assert encode(EXTERNAL) == "0"

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
        assert sample_uniform(0, 123) == EXTERNAL

    def test_size_one(self):
        assert sample_uniform(1, 99) == SIZE_ONE

    def test_deterministic(self):
        assert sample_uniform(20, 7) == sample_uniform(20, 7)
        assert list(sample_spines(10, 50, 3)) == list(sample_spines(10, 50, 3))

    def test_correct_size(self):
        assert size(sample_uniform(37, 5)) == 37

    def test_uniform_over_size_four(self):
        import random

        from spinestat.trees import _grow_random, _tree_from_arrays

        rng = random.Random(42)
        freq = Counter()
        n_samples = 14000
        for _ in range(n_samples):
            freq[encode(_tree_from_arrays(*_grow_random(4, rng)))] += 1
        assert len(freq) == 14
        for count in freq.values():
            assert abs(count / n_samples - 1 / 14) < 0.02

    # 2k+1 crosses a power of two between n and n+1 at n = 1, 2, 4, 8, 16, 512,
    # where the bit width of randrange(2k+1) grows by one.
    @pytest.mark.parametrize("seed", [77, 0, 2 ** 64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 9, 12, 16, 17, 512, 513])
    def test_spine_stream_matches_tree_sampler(self, n, seed):
        # Draw for draw: successive tree growths on one generator give the
        # same spines as the spine-only stream with that seed.
        import random

        from spinestat.trees import _grow_random, _tree_from_arrays

        samples = 20 if n > 100 else 50
        rng = random.Random(seed)
        expected = [spine_segments(_tree_from_arrays(*_grow_random(n, rng)))
                    for _ in range(samples)]
        assert list(sample_spines(n, samples, seed)) == expected
        assert expected[0] == spine_segments(sample_uniform(n, seed))

    def test_spine_chain_law_is_exact(self):
        # The spine-length chain that sample_spines follows, pushed forward in
        # exact arithmetic: at step k there are 2k+1 nodes; each of the s+1
        # spine nodes of a length-s spine is hit with probability 1/(2k+1),
        # and its side is 1 or 0 with probability 1/2 each.  Side 1 at spine
        # index i leaves length i+1, side 0 leaves s+1, and a miss leaves s.
        from fractions import Fraction

        from spinestat.stats import dist_closed

        law = {0: Fraction(1)}
        for n in range(31):
            if n == 0:
                expected = {0: Fraction(1)}
            else:
                expected = {k: Fraction(dist_closed(n, k), catalan(n))
                            for k in range(1, n + 1)}
            assert law == expected, n
            m = 2 * n + 1
            step = Counter()
            for s, p in law.items():
                hit = p / m
                for i in range(s + 1):
                    step[i + 1] += hit / 2
                    step[s + 1] += hit / 2
                if m > s + 1:
                    step[s] += p * (m - s - 1) / m
            law = dict(step)


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
