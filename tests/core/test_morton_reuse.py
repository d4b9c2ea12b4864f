"""Morton-key reuse across the distributed pipeline.

Quantization happens once per rank per step; every later consumer —
cluster binning, cell assignment, per-cell subtree construction, and the
keys carried through the particle exchange — derives its keys by bit
arithmetic on that one array.  These tests pin the identities that make
the reuse exact and check that the carried keys are the keys of the
received positions.
"""

import numpy as np
import pytest

from repro.bh.distributions import plummer
from repro.bh.morton import morton_keys
from repro.bh.particles import Box
from repro.core.config import SchemeConfig
from repro.core.exchange import Shard
from repro.core.partition import Cell
from repro.core.simulation import _RankState
from repro.core.tree_build import build_local_trees
from repro.machine.comm import estimate_nbytes
from repro.machine.engine import Engine
from repro.machine.profiles import ZERO_COST

ROOT3 = Box(np.full(3, 50.0), 50.0)

TREE_FIELDS = ("children", "depth", "path_key", "center", "half",
               "start", "end", "order", "mass", "com")


class TestShiftIdentity:
    """floor(x * 2^b) >> (b - g) == floor(x * 2^g): coarse keys are a
    right-shift of fine keys, never a re-quantization."""

    @pytest.mark.parametrize("dims", [2, 3])
    def test_coarse_keys_are_shifted_fine_keys(self, dims):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0.0, 100.0, (5000, dims))
        pos[0] = 0.0                      # exact lower corner
        pos[1] = np.nextafter(100.0, 0)   # just inside the upper corner
        lo, side, bits = np.zeros(dims), 100.0, 16
        fine = morton_keys(pos, lo, side, bits)
        for g in (1, 2, 4, 8, 15):
            coarse = morton_keys(pos, lo, side, g)
            np.testing.assert_array_equal(coarse,
                                          fine >> (dims * (bits - g)))


class TestBuildLocalTrees:
    def test_precomputed_keys_change_nothing(self):
        ps = plummer(2000, seed=1)
        cells = [Cell(1, k) for k in range(8)]
        cfg = SchemeConfig(scheme="spsa", alpha=0.67, mode="force",
                           degree=0, leaf_capacity=8)
        bits = 16
        fresh = build_local_trees(ps, cells, ROOT3, cfg, bits)
        keys = morton_keys(ps.positions, ROOT3.lo, ROOT3.side, bits)
        carried = build_local_trees(ps, cells, ROOT3, cfg, bits,
                                    keys=keys)
        assert len(fresh) == len(carried)
        for a, b in zip(fresh, carried):
            assert a.key == b.key
            np.testing.assert_array_equal(a.local_idx, b.local_idx)
            for f in TREE_FIELDS:
                np.testing.assert_array_equal(getattr(a.tree, f),
                                              getattr(b.tree, f),
                                              err_msg=f)


class TestShard:
    def test_charges_only_particle_bytes(self):
        """Carried keys are recomputable from the positions, so the
        virtual machine must not bill them as extra wire traffic."""
        ps = plummer(100, seed=0)
        shard = Shard(ps, np.arange(100, dtype=np.int64))
        assert estimate_nbytes(shard) == estimate_nbytes(ps)


class TestCarriedKeys:
    """Keys always ride the exchange shards; what a rank holds
    afterwards must be what re-quantizing its received positions would
    give (the property the old carry on/off toggle stood for)."""

    @pytest.mark.parametrize("scheme", ["spsa", "spda", "dpda"])
    def test_keys_after_exchange_match_received_positions(self, scheme):
        p, bits = 4, 10
        ps = plummer(600, seed=4)
        root = ps.bounding_box()
        cfg = SchemeConfig(scheme=scheme, alpha=0.7, mode="force",
                           degree=0, leaf_capacity=8)
        # A round-robin deal, so the exchange really moves particles.
        shards = [ps.subset(np.arange(r, ps.n, p)) for r in range(p)]

        def main(comm, shard):
            state = _RankState(comm, cfg, root, bits, shard)
            state.decompose(0)           # balancing exchange inside
            fresh = morton_keys(state.particles.positions, root.lo,
                                root.side, bits)
            return (state.keys, fresh, state.particles.ids,
                    comm.metrics.counter("sim.particles_shipped").value)

        out = Engine(p, ZERO_COST, recv_timeout=30.0).run(
            main, rank_args=[(s,) for s in shards]).values
        for held, fresh, _, _ in out:
            np.testing.assert_array_equal(held, fresh)
        assert sum(shipped for *_, shipped in out) > ps.n // 2
        np.testing.assert_array_equal(
            np.sort(np.concatenate([ids for _, _, ids, _ in out])),
            np.sort(ps.ids))
