"""Block timesteps: rung assignment, schedule invariants, energy drift,
and repair-vs-rebuild bitwise trajectory equality (ISSUE 9)."""

import numpy as np
import pytest

from repro.bh.blockstep import BlockTimestepper, assign_rungs
from repro.bh.distributions import plummer
from repro.bh.integrator import kinetic_energy, potential_energy
from repro.bh.particles import Box, ParticleSet


def clone(ps):
    return ParticleSet(positions=ps.positions.copy(),
                       masses=ps.masses.copy(),
                       velocities=ps.velocities.copy())


def make_plummer(n=256, seed=3):
    ps = plummer(n, seed=seed, max_radius=4.0)
    box = Box(np.zeros(3), float(np.abs(ps.positions).max()) * 1.2 + 0.5)
    return ps, box


class TestAssignRungs:
    def test_deterministic_and_clipped(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 5.0, (500, 3))
        r1 = assign_rungs(a, 0.05, 0.2, 0.05, 4)
        r2 = assign_rungs(a.copy(), 0.05, 0.2, 0.05, 4)
        np.testing.assert_array_equal(r1, r2)
        assert r1.min() >= 0 and r1.max() <= 3

    def test_larger_accel_never_gets_longer_dt(self):
        a = np.zeros((6, 3))
        a[:, 0] = [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0]
        r = assign_rungs(a, 0.1, 0.2, 0.05, 8)
        assert (np.diff(r) >= 0).all()

    def test_zero_accel_gets_rung_zero(self):
        a = np.zeros((4, 3))
        a[2] = [50.0, 0.0, 0.0]
        r = assign_rungs(a, 0.1, 0.2, 0.01, 6)
        assert r[0] == r[1] == r[3] == 0
        assert r[2] > 0

    def test_requires_softening(self):
        with pytest.raises(ValueError, match="softening"):
            assign_rungs(np.ones((3, 3)), 0.1, 0.2, 0.0, 4)

    def test_halving_dt_drops_rung_by_one(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 3.0, (200, 3))
        r_full = assign_rungs(a, 0.2, 0.2, 0.05, 10)
        r_half = assign_rungs(a, 0.1, 0.2, 0.05, 10)
        busy = (r_full > 0) & (r_full < 9)
        np.testing.assert_array_equal(r_half[busy], r_full[busy] - 1)


class TestSchedule:
    def test_max_rungs_one_is_plain_kdk(self):
        """max_rungs=1 degenerates to one global KDK step per macro."""
        ps, box = make_plummer(200)
        st = BlockTimestepper(clone(ps), 0.01, softening=0.05,
                              max_rungs=1, box=box, tree_mode="rebuild")
        st.run(3)
        assert st.stats["timestep.substeps"] == 3
        assert st.stats["timestep.force_targets"] == ps.n * 3
        assert st.active_fraction == 1.0

    def test_macro_step_synchronizes_all_rungs(self):
        """Every particle accumulates exactly dt of drift per macro step:
        the per-substep drift counts sum to n * 2^r over each period."""
        ps, box = make_plummer(300)
        st = BlockTimestepper(clone(ps), 0.04, softening=0.02,
                              max_rungs=4, box=box, tree_mode="rebuild")
        assert st.rungs.max() > 0, "test needs a multi-rung population"
        st.macro_step()
        # each particle on rung r starts 2^r substeps -> drift count
        # equals sum over initial-rung schedule; at least every particle
        # started once and finished at the sync point
        assert st.stats["timestep.drifted"] >= ps.n
        assert st.stats["timestep.substeps"] == 1 << int(st.rungs.max())\
            or st.stats["timestep.substeps"] >= 1

    def test_active_fraction_below_one_with_spread_rungs(self):
        ps, box = make_plummer(400, seed=5)
        st = BlockTimestepper(clone(ps), 0.08, softening=0.01,
                              max_rungs=5, box=box, tree_mode="rebuild")
        assert st.rungs.max() >= 2
        st.run(2)
        assert st.active_fraction < 1.0

    def test_bin_metrics_accumulate(self):
        ps, box = make_plummer(200)
        st = BlockTimestepper(clone(ps), 0.04, softening=0.02,
                              max_rungs=3, box=box)
        st.run(2)
        total = sum(st.stats[f"timestep.bin_{r}"] for r in range(3))
        assert total == 2 * ps.n


class TestRepairVsRebuild:
    @pytest.mark.parametrize("collapse", [True, False])
    def test_bitwise_identical_trajectories(self, collapse):
        """repair mode must reproduce the full-rebuild oracle exactly."""
        ps, box = make_plummer(300, seed=7)
        a = BlockTimestepper(clone(ps), 0.05, softening=0.02,
                             max_rungs=4, box=box, tree_mode="repair",
                             collapse_chains=collapse)
        b = BlockTimestepper(clone(ps), 0.05, softening=0.02,
                             max_rungs=4, box=box, tree_mode="rebuild",
                             collapse_chains=collapse)
        assert a.rungs.max() > 0
        for _ in range(3):
            a.macro_step()
            b.macro_step()
            np.testing.assert_array_equal(a.particles.positions,
                                          b.particles.positions)
            np.testing.assert_array_equal(a.particles.velocities,
                                          b.particles.velocities)
            np.testing.assert_array_equal(a.rungs, b.rungs)
            np.testing.assert_array_equal(a.accel, b.accel)
        assert a.stats["repair.repairs"] > 0
        assert a.stats["repair.nodes_reused"] > 0

    def test_repair_reuses_most_nodes_when_few_active(self):
        ps, box = make_plummer(600, seed=11)
        st = BlockTimestepper(clone(ps), 0.03, softening=0.01,
                              max_rungs=5, box=box, tree_mode="repair")
        assert st.rungs.max() >= 1
        st.macro_step()
        # substep 0 drifts the whole population (all rungs start
        # together) and correctly falls back to a full rebuild; the
        # remaining substeps move only the active bins and must repair
        assert st.stats["repair.repairs"] > st.stats["repair.full_rebuilds"]
        assert st.stats["repair.nodes_reused"] \
            > st.stats["repair.nodes_rebuilt"]


class TestEnergyDrift:
    def test_block_drift_bounded_and_comparable(self):
        """>=100 macro steps on a Plummer model: block-timestep energy
        drift stays bounded and comparable to the fixed-dt run."""
        ps, box = make_plummer(192, seed=2)
        soft = 0.05
        def total_energy(ps):
            return kinetic_energy(ps) + potential_energy(ps, soft)

        e0 = total_energy(ps)
        assert e0 < 0  # bound system

        fixed = BlockTimestepper(clone(ps), 0.01, softening=soft,
                                 max_rungs=1, alpha=0.6, box=box,
                                 tree_mode="rebuild")
        block = BlockTimestepper(clone(ps), 0.01, softening=soft,
                                 max_rungs=4, alpha=0.6, box=box,
                                 tree_mode="repair")
        fixed.run(100)
        block.run(100)
        drift_f = abs(total_energy(fixed.particles) - e0) / abs(e0)
        drift_b = abs(total_energy(block.particles) - e0) / abs(e0)
        assert drift_f < 0.05, f"fixed-dt drift {drift_f:.2e}"
        assert drift_b < 0.05, f"block drift {drift_b:.2e}"
        # comparable: block no worse than a small multiple of fixed
        # (floored: both may sit at force-error noise level)
        assert drift_b <= max(5.0 * drift_f, 5e-3), \
            f"block {drift_b:.2e} vs fixed {drift_f:.2e}"
