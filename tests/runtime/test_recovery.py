"""Crash-tolerant process runtime: supervision and rollback recovery.

The acceptance bar of the crash-recovery work: a run whose worker is
SIGKILL'd mid-flight must recover automatically from the latest common
durable checkpoint and finish **bitwise identical** — positions,
velocities, virtual clocks, per-rank communication accounting — to a
run that was never interrupted.  Around that sit the supporting
guarantees: stalled (livelocked) workers are convicted by heartbeat,
restart budgets bound the respawn loop, and watchdog errors carry
per-rank diagnostics.
"""

import os
import signal

import numpy as np
import pytest

import repro.core.simulation as simulation
from repro import ParallelBarnesHut, SchemeConfig, plummer
from repro.core.checkpoint import DiskCheckpointStore, RestartPolicy
from repro.machine.faults import FaultPlan, RankCrashedError
from repro.machine.profiles import NCUBE2
from repro.runtime.process_engine import WorkerLostError
from repro.runtime import supervision
from repro.runtime.supervision import classify_exit

P = 4
STEPS = 2


def _run(scheme, ckpt_dir=None, plan=None, steps=STEPS, backend="process",
         **kw):
    particles = plummer(240, seed=5)
    cfg = SchemeConfig(scheme=scheme, alpha=0.67, mode="force")
    sim = ParallelBarnesHut(particles, cfg, p=P, profile=NCUBE2,
                            backend=backend, fault_plan=plan,
                            checkpoint_dir=ckpt_dir,
                            checkpoint_every=1 if (ckpt_dir or plan) else None,
                            restart_backoff=0.01, **kw)
    return sim.run(steps=steps, dt=1e-3)


def assert_bitwise_equal(a, b):
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)
    assert np.array_equal(a.values, b.values)
    assert a.parallel_time == b.parallel_time
    for ra, rb in zip(a.run.ranks, b.run.ranks):
        assert ra.time == rb.time
        assert ra.timings == rb.timings
        assert ra.stats == rb.stats


# ------------------------------------------------------- rollback recovery

@pytest.mark.parametrize("scheme", ["spsa", "spda", "dpda"])
def test_sigkill_recovery_is_bitwise_identical(scheme, tmp_path):
    """SIGKILL rank 1 at the top of step 1: the run self-heals from the
    durable step-1 boundary and matches the uninterrupted run exactly."""
    baseline = _run(scheme)
    hurt = _run(scheme, ckpt_dir=tmp_path / scheme,
                plan=FaultPlan(seed=7, kill={1: 1}))
    assert hurt.recoveries == 1
    assert_bitwise_equal(baseline, hurt)
    snap = hurt.metrics_summary().snapshot()
    assert snap["recovery.restarts"]["value"] == 1
    assert snap["recovery.wall_seconds"]["count"] == 1
    assert snap["recovery.quiesce_seconds"]["count"] == 1


def test_sigkill_recovery_with_block_timesteps(tmp_path):
    """Crash recovery must restore the block-timestep bin state (rungs
    and stored accelerations) from the checkpoint: a SIGKILL'd block
    run finishes bitwise identical to an uninterrupted one, which only
    holds if the recovered ranks re-enter the exact same substep
    schedule."""
    def _block_run(plan=None, ckpt_dir=None):
        particles = plummer(240, seed=5)
        cfg = SchemeConfig(scheme="dpda", alpha=0.8, mode="force",
                           softening=0.05, integrator="kdk",
                           timestep="block", max_rungs=3, dt_eta=0.3)
        sim = ParallelBarnesHut(
            particles, cfg, p=P, profile=NCUBE2, backend="process",
            fault_plan=plan, checkpoint_dir=ckpt_dir,
            checkpoint_every=1 if (ckpt_dir or plan) else None,
            restart_backoff=0.01)
        return sim.run(steps=3, dt=5e-3)

    baseline = _block_run()
    hurt = _block_run(plan=FaultPlan(seed=7, kill={1: 2}),
                      ckpt_dir=tmp_path / "block")
    assert hurt.recoveries == 1
    assert_bitwise_equal(baseline, hurt)


def test_stalled_heartbeat_convicted_and_recovered(tmp_path, monkeypatch):
    """A livelocked worker (heartbeat silenced, process alive) must be
    convicted by the heartbeat timeout and the run recovered."""
    baseline = _run("spda")
    monkeypatch.setattr(supervision, "HEARTBEAT_TIMEOUT", 1.5)
    monkeypatch.setattr(supervision, "HEARTBEAT_INTERVAL", 0.1)
    hurt = _run("spda", ckpt_dir=tmp_path / "stall",
                plan=FaultPlan(seed=7, stall_heartbeat={2: 1}))
    assert hurt.recoveries == 1
    assert_bitwise_equal(baseline, hurt)


def test_virtual_crash_recovers_on_process_backend(tmp_path):
    """The virtual-clock crash model (RankCrashedError inside a worker)
    keeps working across OS process boundaries."""
    baseline = _run("spda")
    hurt = _run("spda", ckpt_dir=tmp_path / "crash",
                plan=FaultPlan(seed=7, crash={1: 1e-9}))
    assert hurt.recoveries >= 1
    assert_bitwise_equal(baseline, hurt)


class _FailsBeforeFirstSave(DiskCheckpointStore):
    """Rank 1 dies inside its very first ``save``, before anything is
    written, so the failing attempt deterministically leaves *no*
    common checkpoint — the ordering CPU contention used to produce by
    crashing rank 1 while slower ranks had not yet saved step 0.  A
    marker file makes it once-only across restarts and processes."""

    how = "crash"

    def save(self, ckpt):
        marker = os.path.join(self.root, "failed-once")
        if ckpt.rank == 1 and not os.path.exists(marker):
            open(marker, "w").close()
            if self.how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RankCrashedError(1, ckpt.clock_now)
        super().save(ckpt)


@pytest.mark.parametrize("backend,how", [("virtual", "crash"),
                                         ("process", "crash"),
                                         ("process", "kill")])
def test_failure_before_first_checkpoint_restarts_from_initial_deal(
        backend, how, tmp_path, monkeypatch):
    """No common checkpoint yet is not fatal: the host still holds the
    initial deal and restarts from step 0, with the usual budget,
    spent-fault removal and ``recovery.*`` accounting."""
    monkeypatch.setattr(_FailsBeforeFirstSave, "how", how)
    monkeypatch.setattr(simulation, "DiskCheckpointStore",
                        _FailsBeforeFirstSave)
    baseline = _run("spda", backend=backend)
    # The planned crash is what a RankCrashedError spends on restart;
    # the store fires it early (a killed worker needs no plan).
    plan = FaultPlan(seed=7, crash={1: 1e-9}) if how == "crash" else None
    hurt = _run("spda", ckpt_dir=tmp_path / "early", plan=plan,
                backend=backend)
    assert os.path.exists(tmp_path / "early" / "failed-once")
    assert hurt.recoveries == 1
    snap = hurt.metrics_summary().snapshot()
    assert snap["recovery.restarts"]["value"] == 1
    assert snap["recovery.wall_seconds"]["count"] == 1
    assert_bitwise_equal(baseline, hurt)
    if how == "kill":
        with pytest.raises(WorkerLostError):
            _run("spda", ckpt_dir=tmp_path / "early-budget",
                 backend=backend, max_restarts=0)


def test_restart_budget_bounds_recovery(tmp_path):
    """max_restarts=0 means the first worker loss is terminal, and the
    raised error carries the per-rank post-mortem."""
    with pytest.raises(WorkerLostError) as ei:
        _run("spda", ckpt_dir=tmp_path / "budget",
             plan=FaultPlan(seed=7, kill={1: 1}), max_restarts=0)
    err = ei.value
    assert err.rank == 1
    assert err.kind == "killed"
    assert "rank 1" in str(err)
    assert "SIGKILL" in str(err)
    # Diagnostics cover every rank and identify the dead one.
    assert err.diagnostics is not None
    assert sorted(d.rank for d in err.diagnostics) == list(range(P))
    dead = next(d for d in err.diagnostics if d.rank == 1)
    assert not dead.alive and dead.exitcode == -9
    assert err.quiesce_seconds is not None and err.quiesce_seconds >= 0.0


def test_rollback_metrics_account_lost_progress(tmp_path):
    """Killing at step 1 with the step-1 boundary already durable means
    zero steps of progress are re-executed; the counters must say so."""
    res = _run("spda", ckpt_dir=tmp_path / "metrics",
               plan=FaultPlan(seed=7, kill={1: 1}))
    snap = res.metrics_summary().snapshot()
    assert snap["recovery.restarts"]["value"] == 1
    assert snap["recovery.rollback_steps"]["value"] == 0


def test_process_faults_rejected_on_virtual_backend():
    with pytest.raises(ValueError, match="process"):
        _run("spda", plan=FaultPlan(seed=7, kill={1: 1}),
             backend="virtual")


# ------------------------------------------------------------- small units

def test_classify_exit():
    assert classify_exit(None) == "still running"
    assert classify_exit(0) == "exited cleanly"
    assert classify_exit(-9) == "killed by SIGKILL (exit -9)"
    assert classify_exit(-15) == "killed by SIGTERM (exit -15)"
    assert classify_exit(3) == "exited with status 3"


def test_restart_policy_backoff():
    assert (RestartPolicy.factor, RestartPolicy.cap) == (2.0, 10.0)
    pol = RestartPolicy(max_restarts=5, backoff_seconds=0.25)
    assert pol.delay(0) == 0.25
    assert pol.delay(1) == 0.5
    assert pol.delay(2) == 1.0
    assert pol.delay(10) == 10.0   # capped
    with pytest.raises(ValueError):
        RestartPolicy(max_restarts=-1)
    with pytest.raises(ValueError):
        RestartPolicy(backoff_seconds=-0.5)
    # The simulation's two options are this policy, checks included.
    sim = ParallelBarnesHut(plummer(64, seed=5), SchemeConfig(), p=2,
                            max_restarts=5, restart_backoff=0.25)
    assert sim.restart_policy == pol
    with pytest.raises(ValueError):
        ParallelBarnesHut(plummer(64, seed=5), SchemeConfig(), p=2,
                          max_restarts=-1)
