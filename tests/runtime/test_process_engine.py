"""ProcessEngine: RunReport contract, failure propagation, watchdog."""

import os
import threading
import time

import numpy as np
import pytest

from repro import ParallelBarnesHut, SchemeConfig, plummer
from repro.machine.comm import DeadlockError
from repro.machine.engine import Engine
from repro.machine.faults import FaultPlan, RankCrashedError
from repro.machine.profiles import NCUBE2
from repro.runtime import (
    ProcessEngine,
    ProcessWatchdogError,
    RemoteRankError,
)
from repro.runtime.supervision import notify_step


def _work(comm, n):
    with comm.phase("work"):
        comm.compute(n * 10.0)
    return comm.allreduce(comm.rank, lambda a, b: a + b)


def test_run_report_contract():
    report = ProcessEngine(4, NCUBE2).run(_work, 100)
    assert report.size == 4
    assert report.values == [6, 6, 6, 6]
    assert report.parallel_time > 0
    for r, res in enumerate(report.ranks):
        assert res.rank == r
        assert res.error is None
        assert res.timings.get("work") > 0
        assert res.stats.messages_sent > 0
        assert res.metrics is not None
    assert report.metrics_summary().snapshot()
    assert report.load_imbalance() >= 1.0


def _per_rank(comm, base, bonus):
    return base + bonus * comm.rank


def test_rank_args_forwarded():
    report = ProcessEngine(2).run(
        _per_rank, 100, rank_args=[(1,), (2,)])
    assert report.values == [100, 102]


def test_rank_args_length_validated():
    with pytest.raises(ValueError, match="rank_args"):
        ProcessEngine(3).run(_per_rank, 0, rank_args=[(1,)])


def _boom(comm):
    if comm.rank == 1:
        raise ValueError("deliberate failure on rank 1")
    comm.send(comm.rank, dst=(comm.rank + 1) % comm.size, tag=1)
    return comm.recv(src=(comm.rank - 1) % comm.size, tag=1)


def test_remote_exception_rank_tagged_with_traceback():
    with pytest.raises(RemoteRankError) as ei:
        ProcessEngine(3, recv_timeout=10.0).run(_boom)
    err = ei.value
    assert err.rank == 1
    assert "ValueError: deliberate failure on rank 1" in str(err)
    assert "traceback from rank 1" in str(err)
    assert "_boom" in err.remote_traceback


def test_failed_run_attaches_partial_report():
    with pytest.raises(RemoteRankError) as ei:
        ProcessEngine(3, recv_timeout=10.0).run(_boom)
    partial = ei.value.partial_report
    assert partial is not None
    assert partial.size == 3
    assert partial.ranks[1].value is None
    assert partial.ranks[1].error.startswith("ValueError")
    # Every rank appears, even ones terminated before reporting.
    assert all(res.error is None or res.value is None
               for res in partial.ranks)


def _hang(comm):
    if comm.rank == 0:
        comm.send(b"x" * 64, dst=1, tag=3)
        return comm.recv(src=1, tag=99)   # never sent
    return comm.recv(src=0, tag=3)


def test_deadlock_detected_as_typed_error():
    with pytest.raises(DeadlockError) as ei:
        ProcessEngine(2, recv_timeout=2.0).run(_hang)
    err = ei.value
    assert err.rank == 0
    assert (err.src, err.tag) == (1, 99)
    assert "likely deadlock" in str(err)


def _crashy(comm):
    comm.compute(1e9)
    return comm.rank


def test_planned_crash_keeps_type_and_time():
    plan = FaultPlan(seed=1, crash={1: 0.05})
    with pytest.raises(RankCrashedError) as ei:
        ProcessEngine(2, NCUBE2, recv_timeout=10.0,
                      fault_plan=plan).run(_crashy)
    assert ei.value.rank == 1
    assert ei.value.at_time == 0.05


def _sleepy(comm):
    if comm.rank == 1:
        time.sleep(60.0)
    return comm.rank


def test_wall_clock_watchdog_fires():
    eng = ProcessEngine(2, recv_timeout=None, wall_timeout=2.0)
    t0 = time.monotonic()
    with pytest.raises(ProcessWatchdogError) as ei:
        eng.run(_sleepy)
    assert time.monotonic() - t0 < 30.0
    assert ei.value.missing == [1]
    assert "rank 1" in str(ei.value)


def _stepper(comm, steps):
    """One message each way per 1 s step, each step reported."""
    for i in range(steps):
        notify_step(i)
        time.sleep(1.0)
        comm.send(i, dst=1 - comm.rank, tag=i)
        comm.recv(src=1 - comm.rank, tag=i)
    return steps


def test_watchdog_restarts_on_step_progress():
    """``wall_timeout`` bounds a stall, not a run: four 1 s steps finish
    under a 2 s budget because every reported step restarts it."""
    eng = ProcessEngine(2, recv_timeout=None, wall_timeout=2.0)
    assert eng.run(_stepper, 4).values == [4, 4]


def _exiter(comm):
    if comm.rank == 1:
        os._exit(17)    # dies without reporting anything
    return comm.recv(src=1, tag=0)


def test_silently_dead_worker_detected():
    t0 = time.monotonic()
    with pytest.raises(ProcessWatchdogError) as ei:
        ProcessEngine(2, recv_timeout=300.0).run(_exiter)
    # Detection must come from the liveness check, not the full timeout.
    assert time.monotonic() - t0 < 60.0
    assert 1 in ei.value.missing


def _traced(comm):
    with comm.phase("p1"):
        comm.compute(1000.0)
    comm.send(np.arange(10), dst=(comm.rank + 1) % comm.size, tag=2)
    got = comm.recv(src=(comm.rank - 1) % comm.size, tag=2)
    return int(got.sum())


def test_trace_merge_matches_virtual_backend():
    v = Engine(2, NCUBE2).run(_traced, trace=True)
    p = ProcessEngine(2, NCUBE2).run(_traced, trace=True)
    assert p.trace is not None
    assert p.trace.size == 2
    assert v.trace.parallel_time == p.trace.parallel_time
    for r in range(2):
        assert [(s.name, s.t0, s.t1) for s in v.trace.phases[r]] == \
               [(s.name, s.t0, s.t1) for s in p.trace.phases[r]]
    # Whole events, seq included: each rank numbers its own sends.
    assert p.trace.sends == v.trace.sends
    assert p.trace.recvs == v.trace.recvs
    # Sends and receives stitch by (src, seq) on both backends.
    assert set(p.trace.sends_by_seq()) >= {(e.src, e.seq)
                                           for e in p.trace.all_recvs()}


def test_engine_size_validated():
    with pytest.raises(ValueError, match="positive"):
        ProcessEngine(0)


def test_one_rank_lifecycle():
    """Both engines share one constructor; the process engine has no
    start-method or shm-threshold option and no second reclamation
    path, and the board has one name."""
    import repro.runtime
    from repro.machine.engine import SPMDEngine
    from repro.runtime.process_transport import ProcessTransport

    assert issubclass(Engine, SPMDEngine)
    assert issubclass(ProcessEngine, SPMDEngine)
    for option in ("start_method", "shm_threshold"):
        with pytest.raises(TypeError):
            ProcessEngine(2, **{option: None})
    assert not hasattr(ProcessTransport, "drain_leftovers")
    assert not hasattr(ProcessEngine, "_drain_results")
    assert not hasattr(repro.runtime, "TelemetryBoard")
    assert Engine(2).last_quiesce_seconds == 0.0


def _full_pipe(comm):
    # 1 MiB rides the pipe, as every payload does: far more than a
    # pipe buffer, so rank 0's queue feeder is still writing it when
    # the host terminates rank 0.
    if comm.rank == 0:
        comm.send(b"x" * (1 << 20), dst=1, tag=5)
        return 0
    raise ValueError("rank 1 fails before reading")


def _within(seconds, fn):
    """``fn()``'s outcome as ``{"value": ...}`` or ``{"error": ...}``,
    run on a daemon thread: a hung teardown fails the test after
    ``seconds`` instead of wedging the suite."""
    box = {}

    def body():
        try:
            box["value"] = fn()
        except BaseException as exc:
            box["error"] = exc

    t = threading.Thread(target=body, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"still running after {seconds} s"
    return box


def _plummer_dpda(**kw):
    sim = ParallelBarnesHut(plummer(2000, seed=3),
                            SchemeConfig(scheme="dpda"), p=2,
                            profile=NCUBE2, recv_timeout=60.0,
                            backend="process", **kw)
    return sim.run(steps=3, dt=1e-3)


def test_failed_run_tears_down_with_a_full_pipe():
    """A worker terminated inside a ``put`` leaves a partial frame in
    the pipe; teardown must not read it (the read would wait for the
    rest forever)."""
    box = _within(10.0, lambda: ProcessEngine(2, recv_timeout=10.0)
                  .run(_full_pipe))
    assert isinstance(box.get("error"), RemoteRankError), box
    assert box["error"].rank == 1

    # The same teardown inside crash recovery: rank 1 crashes mid step
    # 2 of 3 while rank 0 may be mid-put; the run must roll back and
    # finish bitwise equal to the uninterrupted one.
    base = _within(60.0, _plummer_dpda)["value"]
    mid_step_2 = (base.steps[0][1].virtual_seconds
                  + 0.5 * base.steps[1][1].virtual_seconds)
    box = _within(60.0, lambda: _plummer_dpda(
        fault_plan=FaultPlan(crash={1: mid_step_2}), checkpoint_every=1))
    hurt = box.get("value")
    assert hurt is not None, box
    assert hurt.recoveries == 1
    assert np.array_equal(hurt.values, base.values)
    assert np.array_equal(hurt.positions, base.positions)
    assert np.array_equal(hurt.velocities, base.velocities)
    for ra, rb in zip(base.run.ranks, hurt.run.ranks):
        assert (ra.time, ra.timings, ra.stats) == (rb.time, rb.timings,
                                                   rb.stats)
