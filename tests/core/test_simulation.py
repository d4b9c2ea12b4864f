"""End-to-end tests of the parallel Barnes-Hut simulation.

The key correctness property: for fixed-depth cluster schemes (SPSA,
SPDA) the parallel result is *bitwise equal* to the single-processor
result for any processor count — partitioning must never change the
physics.  DPDA's cell geometry legitimately differs (cover cells of load
boundaries), so it is held to an accuracy tolerance instead.
"""

import numpy as np
import pytest

from repro.bh.direct import direct_forces, direct_potentials
from repro.bh.distributions import make_instance, plummer
from repro.core.config import SchemeConfig
from repro.core.simulation import ParallelBarnesHut
from repro.machine.profiles import CM5, NCUBE2, ZERO_COST
from tests.helpers import uniform_cube

PS = plummer(800, seed=42)
PD = direct_potentials(PS)


def run(scheme="spda", p=4, mode="potential", degree=0, alpha=0.67,
        profile=ZERO_COST, particles=PS, steps=1, dt=None, **cfg_kw):
    cfg = SchemeConfig(scheme=scheme, alpha=alpha, mode=mode, degree=degree,
                       **cfg_kw)
    sim = ParallelBarnesHut(particles, cfg, p=p, profile=profile)
    return sim.run(steps=steps, dt=dt)


class TestSchemeEquivalence:
    @pytest.mark.parametrize("scheme", ["spsa", "spda"])
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_grid_schemes_match_single_processor(self, scheme, p):
        base = run(scheme=scheme, p=1).values
        vals = run(scheme=scheme, p=p).values
        np.testing.assert_allclose(vals, base, atol=1e-10)

    def test_spsa_equals_spda(self):
        np.testing.assert_allclose(run(scheme="spsa", p=4).values,
                                   run(scheme="spda", p=4).values,
                                   atol=1e-10)

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_dpda_within_treecode_accuracy(self, p):
        vals = run(scheme="dpda", p=p).values
        err = np.linalg.norm(vals - PD) / np.linalg.norm(PD)
        assert err < 5e-3  # same magnitude as the serial treecode error

    def test_force_mode_matches_direct(self):
        vals = run(mode="force", p=4).values
        fd = direct_forces(PS)
        rel = np.linalg.norm(vals - fd, axis=1) / np.linalg.norm(fd, axis=1)
        assert np.median(rel) < 1e-2

    def test_multipole_run_more_accurate_than_monopole(self):
        mono = run(p=4, degree=0, alpha=1.0).values
        multi = run(p=4, degree=4, alpha=1.0).values
        err_mono = np.linalg.norm(mono - PD)
        err_multi = np.linalg.norm(multi - PD)
        assert err_multi < err_mono

    def test_nonreplicated_merge_same_values(self):
        a = run(p=4, merge="broadcast").values
        b = run(p=4, merge="nonreplicated").values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_sorted_lookup_same_values(self):
        a = run(p=4, branch_lookup="hashed").values
        b = run(p=4, branch_lookup="sorted").values
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestSofteningWhereverTheCellSits:
    """On this cube grid levels 2 and 3 give one global tree and the
    same MAC decisions; only how many accepted clusters sit in the
    replicated top tree rather than in a local subtree differs (about
    8 000 vs 110 000).  The physics must not see that split: a top-tree
    cluster is softened exactly like a local one."""

    CUBE = uniform_cube(3000, seed=3)

    @pytest.mark.parametrize("softening", [0.05, 0.0])
    def test_forces_independent_of_grid_level(self, softening):
        res = [run(mode="force", p=2, particles=self.CUBE,
                   softening=softening, grid_level=g) for g in (2, 3)]
        assert res[0].force_computations() == res[1].force_computations()
        f2, f3 = (r.values for r in res)
        rel = np.linalg.norm(f2 - f3, axis=1) / np.linalg.norm(f3, axis=1)
        assert rel.max() <= 1e-12


class TestSchemeBehaviour:
    def test_spda_beats_spsa_on_irregular_instance(self):
        """The paper's headline: SPDA's load-driven assignment beats
        SPSA's randomized one on irregular distributions (Table 1)."""
        ps = make_instance("s_10g_a", scale=0.08, seed=7)
        t_spsa = run(scheme="spsa", p=8, profile=NCUBE2, particles=ps,
                     grid_level=2).parallel_time
        t_spda = run(scheme="spda", p=8, profile=NCUBE2, particles=ps,
                     grid_level=2).parallel_time
        assert t_spda < t_spsa

    def test_parallel_time_decreases_with_p(self):
        ps = plummer(2500, seed=3)
        t4 = run(p=4, profile=NCUBE2, particles=ps).parallel_time
        t16 = run(p=16, profile=NCUBE2, particles=ps).parallel_time
        assert t16 < t4

    def test_phase_breakdown_contains_paper_phases(self):
        res = run(p=4, scheme="spda", profile=NCUBE2)
        phases = res.phase_breakdown()
        assert "force computation" in phases
        assert "local tree construction" in phases
        assert "all-to-all broadcast" in phases
        assert phases["force computation"] > phases["local tree construction"]

    def test_spsa_spends_nothing_on_load_balancing(self):
        res = run(p=4, scheme="spsa", profile=NCUBE2)
        assert res.phase_breakdown().get("load balancing", 0.0) == 0.0

    def test_spda_pays_small_balancing_overhead(self):
        res = run(p=4, scheme="spda", profile=NCUBE2, steps=2, mode="force",
                  dt=1e-6)
        phases = res.phase_breakdown()
        assert phases.get("load balancing", 0.0) > 0.0
        assert phases["load balancing"] < phases["force computation"]

    def test_force_computation_counter(self):
        res = run(p=4)
        assert res.force_computations() > PS.n  # at least ~n log n

    def test_load_imbalance_reported(self):
        assert run(p=4, profile=NCUBE2).load_imbalance() >= 1.0

    def test_deterministic_virtual_time(self):
        t1 = run(p=8, profile=NCUBE2).parallel_time
        t2 = run(p=8, profile=NCUBE2).parallel_time
        assert t1 == t2


class TestMultiStep:
    def test_two_steps_with_advance(self):
        ps = plummer(400, seed=5)
        res = run(mode="force", p=4, particles=ps, steps=2, dt=1e-3,
                  softening=0.05)
        assert len(res.steps) == 2
        assert np.isfinite(res.positions).all()
        # particles moved
        assert not np.allclose(res.positions, ps.positions)

    def test_ids_preserved_across_steps(self):
        ps = plummer(300, seed=6)
        res = run(scheme="dpda", mode="force", p=4, particles=ps, steps=3,
                  dt=1e-4, softening=0.05)
        # host reassembly touched every original particle exactly once
        assert np.isfinite(res.values).all()
        assert res.positions.shape == ps.positions.shape

    @pytest.mark.parametrize("backend", ["virtual", "process"])
    def test_advance_requires_force_mode(self, backend):
        """Refused on the host, before any rank exists — not as a
        rank's failure wrapped in RuntimeError / RemoteRankError."""
        sim = ParallelBarnesHut(PS, SchemeConfig(mode="potential"), p=2,
                                profile=ZERO_COST, backend=backend)
        with pytest.raises(ValueError, match="mode='force'"):
            sim.run(dt=0.01)

    def test_spda_rebalances_after_first_step(self):
        ps = make_instance("s_1g_a", scale=0.05, seed=8)
        res = run(scheme="spda", mode="force", p=4, particles=ps, steps=2,
                  dt=1e-6, profile=NCUBE2, grid_level=3)
        # step 2 force phase should not be grossly imbalanced
        assert res.load_imbalance() < 3.0


class TestTwoDimensional:
    """The paper illustrates with 2-D quad-trees; the whole pipeline
    supports dims=2 (monopole only — the spherical-harmonic expansions
    are 3-D)."""

    def _ps2d(self, n=500, seed=9):
        from repro.bh.particles import ParticleSet
        rng = np.random.default_rng(seed)
        return ParticleSet(positions=rng.uniform(0, 1, (n, 2)),
                           masses=np.full(n, 1.0 / n))

    @pytest.mark.parametrize("scheme", ["spsa", "spda", "dpda"])
    def test_2d_matches_direct(self, scheme):
        ps = self._ps2d()
        res = run(scheme=scheme, p=4, mode="force", particles=ps,
                  grid_level=2)
        fd = direct_forces(ps)
        rel = np.linalg.norm(res.values - fd, axis=1) \
            / np.linalg.norm(fd, axis=1)
        assert np.median(rel) < 5e-2

    def test_2d_grid_schemes_match_serial(self):
        ps = self._ps2d()
        base = run(scheme="spda", p=1, mode="force", particles=ps,
                   grid_level=2).values
        par = run(scheme="spda", p=4, mode="force", particles=ps,
                  grid_level=2).values
        np.testing.assert_allclose(par, base, atol=1e-10)

    def test_2d_multipole_rejected(self):
        """Refused at construction, before any rank starts."""
        for degree in (2, 3):
            with pytest.raises(ValueError, match="3-D"):
                ParallelBarnesHut(self._ps2d(), SchemeConfig(
                    mode="potential", degree=degree), p=2)


class TestStepTiming:
    def test_step_times_cover_run(self):
        res = run(p=4, profile=NCUBE2, steps=3, mode="force", dt=1e-6,
                  softening=0.01)
        per_step = [res.step_time(s) for s in range(3)]
        assert all(t > 0 for t in per_step)
        assert res.last_step_time == per_step[-1]
        # the sum of per-rank step spans equals each rank's final clock
        for r in range(4):
            total = sum(res.steps[s][r].virtual_seconds for s in range(3))
            assert total == pytest.approx(res.run.ranks[r].time)


class TestValidation:
    def test_zero_particles(self):
        from repro.bh.particles import ParticleSet
        with pytest.raises(ValueError):
            ParallelBarnesHut(ParticleSet.empty(3), SchemeConfig(), p=2)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            ParallelBarnesHut(PS, SchemeConfig(), p=0)

    def test_p_off_the_topology_claims_no_checkpoint_dir(self, tmp_path):
        """A hypercube has no 3-node shape: construction says so, before
        anything claims the checkpoint directory for 3 ranks (a rerun
        at p = 4 used to be refused with "holds a 3-rank run")."""
        ckpt = tmp_path / "ckpt"
        with pytest.raises(ValueError, match="p = 3 .*hypercube"):
            ParallelBarnesHut(PS, SchemeConfig(), p=3, profile=NCUBE2,
                              checkpoint_every=1, checkpoint_dir=str(ckpt))
        assert not ckpt.exists()

    def test_spsa_needs_enough_clusters(self):
        with pytest.raises(ValueError, match="r >= p"):
            ParallelBarnesHut(PS, SchemeConfig(scheme="spsa", grid_level=1),
                              p=64)

    def test_bad_steps(self):
        sim = ParallelBarnesHut(PS, SchemeConfig(), p=2)
        with pytest.raises(ValueError):
            sim.run(steps=0)

    def test_cm5_profile_runs(self):
        res = run(p=4, profile=CM5)
        assert res.parallel_time > 0


class TestStepTimeEdgeCases:
    """step_time / last_step_time on degenerate runs (satellite of the
    observability PR)."""

    def test_single_rank_single_step(self):
        res = run(p=1, steps=1)
        assert res.step_time(0) > 0
        assert res.last_step_time == res.step_time(0)
        # With one rank there is no straggler: the step IS the run.
        assert res.step_time(0) == pytest.approx(res.parallel_time)

    def test_out_of_range_step_raises(self):
        res = run(p=2, steps=1)
        with pytest.raises(IndexError):
            res.step_time(5)

    def test_step_time_is_max_over_ranks(self):
        res = run(p=4, profile=NCUBE2, steps=2, mode="force", dt=1e-6,
                  softening=0.01)
        for s in range(2):
            per_rank = [sr.virtual_seconds for sr in res.steps[s]]
            assert res.step_time(s) == max(per_rank)

    def test_step_seconds_metric_matches_step_times(self):
        """The sim.step_seconds histogram aggregates exactly the same
        per-rank step spans the StepResults carry."""
        res = run(p=4, profile=NCUBE2, steps=3, mode="force", dt=1e-6,
                  softening=0.01)
        h = res.metrics_summary().histogram("sim.step_seconds")
        assert h.count == 4 * 3
        total = sum(sr.virtual_seconds
                    for step in res.steps for sr in step)
        assert h.total == pytest.approx(total)
