"""Tests for the SPSA Gray-code modular assignment and the SPDA / DPDA
load balancers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.assignment import axis_split, clusters_of_rank, \
    spsa_assignment
from repro.core.costzones import costzones_owners, split_by_key_boundaries
from repro.core.morton_assign import balance_clusters
from repro.core.partition import cluster_coords


def partition_imbalance(loads, owners, p):
    """max/mean processor load under an assignment (1.0 = perfect)."""
    per_proc = np.zeros(p)
    np.add.at(per_proc, owners, loads)
    mean = per_proc.mean()
    return float(per_proc.max() / mean) if mean > 0 else 1.0


class TestAxisSplit:
    def test_even_split(self):
        assert axis_split(16, 2) == [4, 4]
        assert axis_split(64, 3) == [4, 4, 4]

    def test_uneven_split_favors_first_axes(self):
        assert axis_split(8, 2) == [4, 2]
        assert axis_split(32, 3) == [4, 2, 4] or axis_split(32, 3) == [4, 4, 2]

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            axis_split(12, 2)


class TestSPSAAssignment:
    def test_every_processor_gets_equal_clusters(self):
        owners = spsa_assignment(3, 16, 2)  # 64 clusters, 16 procs
        counts = np.bincount(owners, minlength=16)
        assert (counts == 4).all()

    def test_paper_figure5_shape(self):
        """r = 16 clusters on 4 processors in 2-D: each processor gets 4
        clusters scattered modularly (not one contiguous block)."""
        owners = spsa_assignment(2, 4, 2)
        coords = cluster_coords(np.arange(16, dtype=np.int64), 2)
        for rank in range(4):
            mine = coords[owners == rank]
            # scattered: the 4 clusters of a rank span both halves
            assert mine[:, 0].max() - mine[:, 0].min() >= 2

    def test_adjacent_clusters_on_neighbor_processors(self):
        """The Gray-code property: clusters adjacent along an axis map to
        processors at hypercube distance <= 1 (same or neighbor)."""
        level, p, dims = 3, 16, 2
        owners = spsa_assignment(level, p, dims)
        coords = cluster_coords(np.arange(64, dtype=np.int64), 2)
        lookup = {(int(c[0]), int(c[1])): int(owners[i])
                  for i, c in enumerate(coords)}
        for (x, y), o in lookup.items():
            if (x + 1, y) in lookup:
                dist = bin(o ^ lookup[(x + 1, y)]).count("1")
                assert dist <= 1

    def test_3d_assignment_covers_all_ranks(self):
        owners = spsa_assignment(2, 8, 3)  # 64 clusters, 8 procs
        assert set(owners.tolist()) == set(range(8))

    def test_requires_enough_clusters(self):
        with pytest.raises(ValueError, match="too coarse"):
            spsa_assignment(1, 64, 2)  # 4 clusters for 64 procs

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            spsa_assignment(2, 6, 2)

    def test_clusters_of_rank(self):
        owners = spsa_assignment(2, 4, 2)
        mine = clusters_of_rank(owners, 2)
        assert (owners[mine] == 2).all()
        assert np.all(np.diff(mine) > 0)  # Morton sorted


class TestMortonPartition:
    """SPDA's Morton-order cluster split is the costzones midpoint rule."""

    def test_uniform_loads_even_split(self):
        owners = costzones_owners(np.ones(16), 4)
        assert np.bincount(owners).tolist() == [4, 4, 4, 4]
        assert (np.diff(owners) >= 0).all()  # contiguous runs

    def test_skewed_loads_balance(self):
        loads = np.array([100.0] + [1.0] * 15)
        owners = costzones_owners(loads, 4)
        # the heavy cluster sits alone (or nearly) on its processor
        heavy_owner = owners[0]
        assert (owners == heavy_owner).sum() <= 2
        imb = partition_imbalance(loads, owners, 4)
        naive = partition_imbalance(loads, np.arange(16) * 4 // 16, 4)
        assert imb <= naive

    def test_zero_total_load_spreads_by_count(self):
        owners = costzones_owners(np.zeros(8), 4)
        assert np.bincount(owners, minlength=4).tolist() == [2, 2, 2, 2]

    def test_contiguity_always(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            loads = rng.exponential(1.0, size=64)
            owners = costzones_owners(loads, 8)
            assert (np.diff(owners) >= 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            costzones_owners(np.array([-1.0]), 2)
        with pytest.raises(ValueError):
            costzones_owners(np.ones(4), 0)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=100),
           st.integers(1, 16))
    def test_owner_range_valid(self, loads, p):
        owners = costzones_owners(np.array(loads), p)
        assert owners.min() >= 0 and owners.max() < p
        assert (np.diff(owners) >= 0).all()


class TestBalanceClusters:
    def test_first_call_moves_everything(self):
        owners, moved = balance_clusters(np.ones(8), None, 2)
        assert moved == 8

    def test_stable_loads_move_nothing(self):
        loads = np.ones(8)
        owners, _ = balance_clusters(loads, None, 2)
        owners2, moved = balance_clusters(loads, owners, 2)
        assert moved == 0
        np.testing.assert_array_equal(owners, owners2)

    def test_shifted_load_moves_few(self):
        loads = np.ones(32)
        owners, _ = balance_clusters(loads, None, 4)
        loads[0] = 3.0  # small perturbation
        _, moved = balance_clusters(loads, owners, 4)
        assert moved <= 4

    def test_length_checked(self):
        with pytest.raises(ValueError):
            balance_clusters(np.ones(8), np.zeros(7, dtype=int), 2)


class TestCostzones:
    def test_even_loads(self):
        owners = costzones_owners(np.ones(100), 4)
        assert np.bincount(owners).tolist() == [25, 25, 25, 25]

    def test_empty(self):
        assert costzones_owners(np.zeros(0), 4).size == 0

    def test_heavy_head(self):
        loads = np.concatenate((np.full(10, 50.0), np.ones(90)))
        owners = costzones_owners(loads, 2)
        # boundary must fall inside the heavy head region
        assert (owners == 0).sum() < 20

    def test_validation(self):
        with pytest.raises(ValueError):
            costzones_owners(np.ones((2, 2)), 2)
        with pytest.raises(ValueError):
            costzones_owners(np.array([-1.0]), 2)
        with pytest.raises(ValueError):
            costzones_owners(np.ones(4), 0)

    def test_split_by_key_boundaries_keeps_runs_together(self):
        keys = np.array([0, 0, 1, 1, 1, 2])
        owners = np.array([0, 0, 0, 1, 1, 1])
        snapped = split_by_key_boundaries(keys, owners, 2)
        np.testing.assert_array_equal(snapped, [0, 0, 0, 0, 0, 1])

    def test_split_by_key_requires_sorted(self):
        with pytest.raises(ValueError):
            split_by_key_boundaries(np.array([2, 1]), np.array([0, 0]), 2)

    def test_split_by_key_empty(self):
        out = split_by_key_boundaries(np.zeros(0, dtype=int),
                                      np.zeros(0, dtype=int), 2)
        assert out.size == 0
