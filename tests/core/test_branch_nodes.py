"""Tests for branch keys and the two lookup schemes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.branch_nodes import (
    BranchInfo,
    HashedBranchIndex,
    SortedBranchIndex,
    branch_key,
    make_branch_index,
)
from repro.core.partition import Cell
from tests.oracles.merge import cell_of_branch_key


def info(key, owner=0):
    return BranchInfo(key=key, owner=owner, cell=cell_of_branch_key(key, 3),
                      count=1, mass=1.0, com=np.zeros(3))


class TestBranchKey:
    def test_uniqueness_across_depths(self):
        """Cell 0 at depth 1 and depth 2 must get different keys."""
        assert branch_key(Cell(1, 0), 3) != branch_key(Cell(2, 0), 3)
        assert branch_key(Cell(0, 0), 3) == 1

    def test_round_trip(self):
        for depth in range(5):
            for pk in {0, 1, (1 << (3 * depth)) - 1}:
                if pk >= (1 << (3 * depth)):
                    continue  # path key out of range at this depth
                c = Cell(depth, pk)
                assert cell_of_branch_key(branch_key(c, 3), 3) == c

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 6), st.integers(0, 10**5), st.integers(2, 3))
    def test_round_trip_random(self, depth, pk, dims):
        pk = pk % (1 << (dims * depth)) if depth else 0
        c = Cell(depth, pk)
        assert cell_of_branch_key(branch_key(c, dims), dims) == c

    def test_invalid_key(self):
        with pytest.raises(ValueError):
            cell_of_branch_key(0, 3)


class TestSortedIndex:
    def test_lookup(self):
        idx = SortedBranchIndex([info(9), info(17), info(73)])
        assert idx.lookup(17).key == 17
        assert len(idx) == 3

    def test_missing_key(self):
        idx = SortedBranchIndex([info(9)])
        with pytest.raises(KeyError):
            idx.lookup(10)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            SortedBranchIndex([info(9), info(9)])

    def test_probe_count_is_logarithmic(self):
        branches = [info(branch_key(Cell(3, k), 3), owner=k % 4)
                    for k in range(256)]
        idx = SortedBranchIndex(branches)
        idx.lookup(branches[100].key)
        assert idx.probes <= 10  # ~log2(256) + 1

    def test_iteration(self):
        idx = SortedBranchIndex([info(9), info(3)])
        assert [b.key for b in idx] == [3, 9]


class TestHashedIndex:
    def test_lookup(self):
        idx = HashedBranchIndex([info(9), info(17), info(73)])
        assert idx.lookup(73).key == 73

    def test_missing_key(self):
        idx = HashedBranchIndex([info(9)])
        with pytest.raises(KeyError):
            idx.lookup(99)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            HashedBranchIndex([info(5), info(5)])

    def test_dense_table_has_chains(self):
        """Squeezing many keys into few buckets produces the chaining the
        paper warns about."""
        branches = [info(branch_key(Cell(4, k), 3), owner=0)
                    for k in range(64)]
        idx = HashedBranchIndex(branches, n_buckets=8)
        assert max(len(chain) for chain in idx._buckets) >= 4

    def test_move_to_front_reduces_probes_for_hot_key(self):
        branches = [info(branch_key(Cell(4, k), 3)) for k in range(64)]
        hot = branches[37].key
        mtf = HashedBranchIndex(branches, n_buckets=4, move_to_front=True)
        plain = HashedBranchIndex(branches, n_buckets=4, move_to_front=False)
        for idx in (mtf, plain):
            for _ in range(50):
                idx.lookup(hot)
        assert mtf.probes < plain.probes

    def test_iteration_covers_all(self):
        branches = [info(k) for k in (3, 9, 27)]
        idx = HashedBranchIndex(branches)
        assert sorted(b.key for b in idx) == [3, 9, 27]


class TestFactoryAndInfo:
    def test_factory(self):
        assert isinstance(make_branch_index([info(1)], "hashed"),
                          HashedBranchIndex)
        assert isinstance(make_branch_index([info(1)], "sorted"),
                          SortedBranchIndex)
        with pytest.raises(ValueError):
            make_branch_index([info(1)], "trie")

    def test_wire_bytes_grow_with_coeffs(self):
        plain = info(9)
        rich = info(9)
        rich.coeffs = np.zeros(25, dtype=np.complex128)
        assert rich.wire_bytes(4) > plain.wire_bytes(4)
        assert rich.nbytes > plain.nbytes

    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.integers(0, 10**4), min_size=1, max_size=200,
                    unique=True))
    def test_both_schemes_agree(self, raw_keys):
        keys = [k + 1 for k in raw_keys]  # branch keys are >= 1
        branches = [BranchInfo(key=k, owner=k % 7, cell=Cell(0, 0),
                               count=0, mass=0.0, com=np.zeros(3))
                    for k in keys]
        hashed = HashedBranchIndex(branches)
        sorted_ = SortedBranchIndex(branches)
        for k in keys:
            assert hashed.lookup(k).owner == sorted_.lookup(k).owner
