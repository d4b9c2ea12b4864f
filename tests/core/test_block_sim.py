"""Distributed block timesteps: the KDK macro-step path of the
simulation orchestrator.

What must hold:

- the default config (``integrator="euler"``, ``timestep="fixed"``)
  never enters the new path (the legacy loop stays bitwise — covered by
  the pre-existing regression suite running unchanged);
- block-mode runs are deterministic bit for bit, per scheme, including
  mid-macro domain-boundary crossings (stray exchanges);
- the virtual and process backends produce bitwise-identical results;
- checkpoint/resume restores the rung/acceleration bin state verbatim,
  so a resumed run is bitwise identical to an uninterrupted one;
- the ``repair.*`` / ``timestep.*`` counters actually fire.
"""

import numpy as np
import pytest

from repro import ParallelBarnesHut, SchemeConfig, plummer
from repro.machine.profiles import NCUBE2

P = 4
N = 240
DT = 5e-3


def block_config(scheme, **kw):
    kw.setdefault("alpha", 0.8)
    kw.setdefault("softening", 0.05)
    kw.setdefault("integrator", "kdk")
    kw.setdefault("timestep", "block")
    kw.setdefault("max_rungs", 3)
    kw.setdefault("dt_eta", 0.3)
    return SchemeConfig(scheme=scheme, mode="force", **kw)


def run_sim(cfg, steps=2, n=N, seed=5, dt=DT, backend="virtual", **kw):
    sim = ParallelBarnesHut(plummer(n, seed=seed), cfg, p=P,
                            profile=NCUBE2, backend=backend, **kw)
    return sim.run(steps=steps, dt=dt)


def assert_bitwise_equal(a, b):
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)
    assert np.array_equal(a.values, b.values)
    assert a.parallel_time == b.parallel_time


# ------------------------------------------------------------ validation

class TestConfigValidation:
    def test_block_requires_kdk(self):
        with pytest.raises(ValueError, match="kdk"):
            SchemeConfig(timestep="block", softening=0.05)

    def test_block_requires_softening(self):
        with pytest.raises(ValueError, match="softening"):
            SchemeConfig(timestep="block", integrator="kdk")

    def test_block_requires_force_mode(self):
        with pytest.raises(ValueError, match="force"):
            SchemeConfig(timestep="block", integrator="kdk",
                         softening=0.05, mode="potential", degree=2)

    def test_bad_integrator_and_timestep_rejected(self):
        with pytest.raises(ValueError, match="integrator"):
            SchemeConfig(integrator="rk4")
        with pytest.raises(ValueError, match="timestep"):
            SchemeConfig(timestep="adaptive")

    def test_rung_parameters_validated(self):
        with pytest.raises(ValueError, match="dt_eta"):
            SchemeConfig(dt_eta=0.0)
        with pytest.raises(ValueError, match="max_rungs"):
            SchemeConfig(max_rungs=0)
        with pytest.raises(ValueError, match="max_rungs"):
            SchemeConfig(max_rungs=17)

    def test_block_requires_dt(self):
        """Block timesteps advance particles: without ``dt`` the run is
        refused, not quietly turned into a force evaluation."""
        sim = ParallelBarnesHut(plummer(N, seed=5), block_config("spda"),
                                p=P, profile=NCUBE2)
        with pytest.raises(ValueError, match="give dt"):
            sim.run(steps=1, dt=None)

    def test_defaults_stay_legacy(self):
        cfg = SchemeConfig()
        assert cfg.integrator == "euler"
        assert cfg.timestep == "fixed"


# ---------------------------------------------------------- determinism

class TestDeterminism:
    @pytest.mark.parametrize("scheme", ["spsa", "spda", "dpda"])
    def test_block_run_is_deterministic(self, scheme):
        cfg = block_config(scheme)
        assert_bitwise_equal(run_sim(cfg), run_sim(cfg))

    def test_fixed_kdk_is_deterministic_without_softening(self):
        # timestep="fixed" + kdk short-circuits the rung criterion, so
        # softening=0 must be accepted on this path.
        cfg = SchemeConfig(scheme="spda", mode="force", alpha=0.8,
                           integrator="kdk", timestep="fixed")
        assert_bitwise_equal(run_sim(cfg), run_sim(cfg))

    def test_block_metrics_fire(self):
        cfg = block_config("dpda")
        result = run_sim(cfg, steps=3)
        snap = result.metrics_summary().snapshot()

        def counter(name):
            return snap.get(name, {}).get("value", 0)

        assert counter("timestep.macro_steps") == 3 * P
        assert counter("timestep.substeps") >= 3 * P
        assert counter("timestep.bootstraps") == P   # first macro only
        assert counter("timestep.force_targets") > 0
        # every particle is binned at each macro end, on exactly one rung
        bins = sum(counter(f"timestep.bin_{r}") for r in range(16))
        assert bins == 3 * N
        # the forest machinery ran every substep: either refreshed in
        # place (repair counters) or rebuilt after a stray exchange
        assert (counter("repair.nodes_reused")
                + counter("repair.nodes_rebuilt")
                + counter("timestep.midmacro_exchanges")) > 0

    def test_repair_path_fires_distributed(self):
        """Clusters sitting inside their own octants keep domain
        membership stable across substeps, so the per-subtree repair
        (not the stray-exchange rebuild) carries the forest."""
        from repro.bh.particles import Box, ParticleSet

        rng = np.random.default_rng(1)
        n = 2000
        c1 = rng.normal(size=(n // 2, 3)) * 0.3 + 2.5
        c2 = rng.normal(size=(n // 2, 3)) * 0.3 + 7.5
        pos = np.vstack([c1, c2])
        vel = rng.normal(size=(n, 3)) * 0.01
        masses = np.full(n, 1.0 / n)

        def make():
            return ParticleSet(pos.copy(), masses.copy(), vel.copy())

        cfg = block_config("dpda", softening=0.01, max_rungs=5,
                           dt_eta=0.1)
        box = Box(np.zeros(3), 10.0)
        sim = ParallelBarnesHut(make(), cfg, p=P, profile=NCUBE2,
                                root=box)
        result = sim.run(steps=2, dt=0.05)
        snap = result.metrics_summary().snapshot()

        def counter(name):
            return snap.get(name, {}).get("value", 0)

        assert counter("repair.repairs") > 0
        assert counter("repair.nodes_reused") > 0
        # nothing carries walks across substeps, so nothing counts them
        assert not any(name.startswith("repair.walks_") for name in snap)
        # several rungs occupied: the active-subset machinery was real
        occupied = sum(counter(f"timestep.bin_{r}") > 0 for r in range(5))
        assert occupied >= 2
        # and the run stays deterministic despite all of it
        sim2 = ParallelBarnesHut(make(), cfg, p=P, profile=NCUBE2,
                                 root=box)
        assert_bitwise_equal(result, sim2.run(steps=2, dt=0.05))

    def test_kdk_advances_differently_from_euler(self):
        euler = SchemeConfig(scheme="spda", mode="force", alpha=0.8)
        kdk = SchemeConfig(scheme="spda", mode="force", alpha=0.8,
                           integrator="kdk", timestep="fixed")
        a = run_sim(euler)
        b = run_sim(kdk)
        # Different integrators, same initial data: trajectories differ
        # but remain finite and comparable in magnitude.
        assert not np.array_equal(a.positions, b.positions)
        assert np.all(np.isfinite(b.positions))
        assert np.max(np.abs(a.positions - b.positions)) < 1.0


# -------------------------------------------------------- cross-backend

class TestCrossBackend:
    def test_virtual_and_process_backends_bitwise_identical(self):
        cfg = block_config("spda")
        a = run_sim(cfg)
        b = run_sim(cfg, backend="process")
        assert_bitwise_equal(a, b)
        for ra, rb in zip(a.run.ranks, b.run.ranks):
            assert ra.time == rb.time
            assert ra.timings == rb.timings


# --------------------------------------------------- checkpoint / resume

class TestCheckpointResume:
    def test_resume_restores_bin_state_bitwise(self, tmp_path):
        """Stop a block run at a checkpoint boundary and resume it: the
        finished trajectory must equal an uninterrupted run exactly —
        which requires the checkpointed rungs/accelerations to be
        restored verbatim (a re-bootstrap would re-derive the schedule
        from freshly-computed forces at the *wrong* positions)."""
        cfg = block_config("dpda")
        full = run_sim(cfg, steps=4, checkpoint_dir=str(tmp_path / "a"),
                       checkpoint_every=2)
        run_sim(cfg, steps=2, checkpoint_dir=str(tmp_path / "b"),
                checkpoint_every=2)
        resumed = ParallelBarnesHut(
            plummer(N, seed=5), cfg, p=P, profile=NCUBE2,
            checkpoint_dir=str(tmp_path / "b"), checkpoint_every=2,
            resume=True,
        ).run(steps=4, dt=DT)
        assert resumed.resumed_from == 2
        assert_bitwise_equal(full, resumed)
        # No re-bootstrap after the resume: metric accounting rides the
        # checkpoint, so the resumed run reports exactly the one
        # bootstrap of macro step 0 — same as the uninterrupted run.
        # (A re-bootstrap would also add collective force evaluations
        # and break the parallel_time equality asserted above.)
        snap = resumed.metrics_summary().snapshot()
        full_snap = full.metrics_summary().snapshot()
        assert snap["timestep.bootstraps"] == full_snap["timestep.bootstraps"]
        assert snap["timestep.bootstraps"]["value"] == P
