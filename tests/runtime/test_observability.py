"""Wall-clock observability: neutrality, dual-clock traces, telemetry.

The acceptance bar of the observability work: with wall tracing and
live telemetry fully enabled, a process-backend run must stay
**bitwise identical** — positions, velocities, values, virtual clocks,
comm accounting — to the uninstrumented run, while the trace gains a
wall track per rank and the event stream records the run's life cycle.
A SIGKILL-recovered traced run must keep its *virtual* tracks identical
to the uninterrupted run's; only the wall tracks may differ (they
carry the ``recovery:restore`` marker).
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro import ParallelBarnesHut, SchemeConfig, plummer
from repro.analysis import (
    format_skew_report,
    per_rank_wall_seconds,
    phase_skew,
    wall_load_imbalance,
)
from repro.machine.faults import FaultPlan
from repro.machine.profiles import NCUBE2
from repro.machine.trace import PhaseSpan, Trace
from repro.runtime.supervision import (
    PHASE_NAMES,
    HeartbeatBoard,
    phase_id,
    phase_name,
)
from repro.runtime import telemetry
from repro.runtime.telemetry import (
    EventLog,
    RankTelemetry,
    TelemetrySampler,
    format_live_line,
)

P = 4
STEPS = 2


def _run(scheme, *, trace=False, wall_trace=None, events_out=None,
         ckpt_dir=None, plan=None):
    particles = plummer(240, seed=5)
    cfg = SchemeConfig(scheme=scheme, alpha=0.67, mode="force")
    sim = ParallelBarnesHut(
        particles, cfg, p=P, profile=NCUBE2, backend="process",
        fault_plan=plan, checkpoint_dir=ckpt_dir,
        checkpoint_every=1 if (ckpt_dir or plan) else None,
        restart_backoff=0.01,
        events_out=events_out)
    return sim.run(steps=STEPS, dt=1e-3, trace=trace,
                   wall_trace=wall_trace)


def assert_bitwise_equal(a, b):
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)
    assert np.array_equal(a.values, b.values)
    assert a.parallel_time == b.parallel_time
    for ra, rb in zip(a.run.ranks, b.run.ranks):
        assert ra.time == rb.time
        assert ra.timings == rb.timings
        assert ra.stats == rb.stats


# ----------------------------------------------------------- neutrality

@pytest.mark.parametrize("scheme", ["spsa", "spda", "dpda"])
def test_instrumentation_is_bitwise_neutral(scheme, tmp_path, monkeypatch):
    """Wall tracing + event stream + fast telemetry sampling must not
    perturb a single bit of the simulation's observable state."""
    plain = _run(scheme)
    events = tmp_path / "events.jsonl"
    monkeypatch.setattr(telemetry, "TELEMETRY_INTERVAL", 0.02)
    instrumented = _run(
        scheme, trace=True, wall_trace=True, events_out=str(events))
    assert_bitwise_equal(plain, instrumented)
    assert instrumented.trace is not None
    assert instrumented.trace.has_wall
    assert events.exists()


# --------------------------------------------------------- wall tracks

def test_wall_tracks_cover_every_rank():
    result = _run("spda", trace=True, wall_trace=True)
    trace = result.trace
    assert len(trace.wall_phases) == P
    for rank, spans in enumerate(trace.wall_phases):
        assert spans, f"rank {rank} has no wall spans"
        assert all(s.rank == rank for s in spans)
        assert all(s.t1 >= s.t0 >= 0.0 for s in spans)
    cats = {s.cat for s in trace.all_wall_phases()}
    assert "wall:phase" in cats
    assert "wall:step" in cats

    chrome = trace.to_chrome()
    pids = {e.get("pid") for e in chrome["traceEvents"]}
    assert pids == {0, 1}
    wall_threads = {
        e["tid"] for e in chrome["traceEvents"]
        if e.get("pid") == 1 and e.get("ph") == "M"
        and e.get("name") == "thread_name"}
    assert len(wall_threads) == P
    assert "wall_timebase" in chrome["otherData"]


def test_wall_trace_defaults_on_for_traced_process_runs():
    assert _run("spda", trace=True).trace.has_wall
    assert not _run("spda", trace=True, wall_trace=False).trace.has_wall


def test_wall_trace_requires_trace():
    particles = plummer(60, seed=5)
    sim = ParallelBarnesHut(
        particles, SchemeConfig(scheme="spda", alpha=0.67, mode="force"),
        p=2, profile=NCUBE2, backend="process")
    with pytest.raises(ValueError, match="requires trace"):
        sim.run(steps=1, dt=1e-3, trace=False, wall_trace=True)


# ------------------------------------------------ recovery continuity

def test_recovered_trace_virtual_tracks_identical(tmp_path):
    """SIGKILL rank 1 at step 1: the recovered run's *virtual* tracks
    must equal the uninterrupted checkpointed run's exactly; its wall
    track must carry the ``recovery:restore`` marker."""
    clean = _run("spda", trace=True, wall_trace=True,
                 ckpt_dir=tmp_path / "clean")
    hurt = _run("spda", trace=True, wall_trace=True,
                ckpt_dir=tmp_path / "crash",
                plan=FaultPlan(seed=7, kill={1: 1}))
    assert hurt.recoveries == 1
    assert_bitwise_equal(clean, hurt)

    tc, th = clean.trace, hurt.trace
    assert th.phases == tc.phases
    assert th.sends == tc.sends
    assert th.recvs == tc.recvs
    assert th.final_times == tc.final_times

    def virtual_events(trace):
        return [e for e in trace.to_chrome()["traceEvents"]
                if e.get("pid") == 0]

    assert virtual_events(th) == virtual_events(tc)

    wall_names = {(s.name, s.cat) for s in th.all_wall_phases()}
    assert ("recovery:restore", "wall:recovery") in wall_names
    assert any(cat == "wall:checkpoint" for _, cat in wall_names)
    clean_names = {(s.name, s.cat) for s in tc.all_wall_phases()}
    assert ("recovery:restore", "wall:recovery") not in clean_names


# ------------------------------------------------------- event stream

def test_event_stream_schema(tmp_path, monkeypatch):
    events = tmp_path / "events.jsonl"
    monkeypatch.setattr(telemetry, "TELEMETRY_INTERVAL", 0.01)
    _run("spda", events_out=str(events), ckpt_dir=tmp_path / "ckpt")
    lines = [json.loads(line)
             for line in events.read_text().splitlines() if line]
    assert lines, "no events written"
    for rec in lines:
        assert isinstance(rec["t"], float) and rec["t"] >= 0.0
        assert isinstance(rec["event"], str)
    assert lines[0]["event"] == "run_start"
    assert lines[0]["backend"] == "process"
    assert lines[0]["p"] == P and lines[0]["steps"] == STEPS
    assert lines[-1]["event"] == "run_end"
    assert lines[-1]["ok"] is True
    assert lines[-1]["recoveries"] == 0
    assert lines[-1]["wall_seconds"] > 0.0
    # Timestamps are monotone non-decreasing down the file.
    ts = [rec["t"] for rec in lines]
    assert ts == sorted(ts)
    steps = [rec for rec in lines if rec["event"] == "step"]
    assert steps, "telemetry sampling produced no step events"
    for rec in steps:
        assert 0 <= rec["step"] < STEPS
        assert len(rec["ranks"]) == P
        for row in rec["ranks"]:
            assert set(row) == {
                "rank", "step", "phase", "wall_in_phase", "bytes_sent",
                "bytes_recv", "peak_rss", "steps_per_s", "ckpt_step"}
    ckpts = [rec for rec in lines if rec["event"] == "checkpoint"]
    assert all(rec["step"] >= 0 for rec in ckpts)


def test_worker_lost_and_recovery_events(tmp_path):
    events = tmp_path / "events.jsonl"
    _run("spda", events_out=str(events), ckpt_dir=tmp_path / "ckpt",
         plan=FaultPlan(seed=7, kill={1: 1}))
    lines = [json.loads(line)
             for line in events.read_text().splitlines() if line]
    kinds = [rec["event"] for rec in lines]
    assert "worker_lost" in kinds
    assert "recovery" in kinds
    lost = next(rec for rec in lines if rec["event"] == "worker_lost")
    assert isinstance(rec_detail := lost["detail"], list) and rec_detail
    recovery = next(rec for rec in lines if rec["event"] == "recovery")
    assert recovery["restart"] == 1
    assert recovery["resume_step"] >= 0
    assert lines[-1]["event"] == "run_end"
    assert lines[-1]["recoveries"] == 1


def test_events_require_process_backend():
    particles = plummer(60, seed=5)
    cfg = SchemeConfig(scheme="spda", alpha=0.67, mode="force")
    with pytest.raises(ValueError, match="backend='process'"):
        ParallelBarnesHut(particles, cfg, p=2, profile=NCUBE2,
                          backend="virtual", events_out="x.jsonl")


# -------------------------------------------------- board + telemetry

def test_phase_name_table_round_trips():
    for name in PHASE_NAMES:
        assert phase_name(phase_id(name)) == name
    assert phase_id(None) == -1
    assert phase_name(-1) is None
    assert phase_id("no such phase") == 0          # "other" bucket
    assert phase_name(999) is None                 # out of table range


def test_every_simulation_phase_has_a_board_id():
    """A phase missing from the table is reported as "other" by live
    telemetry and worker-lost diagnostics ("tree repair" once was)."""
    from repro.core import exchange, forest, function_shipping, stepping
    names = [value for module in (exchange, forest, function_shipping,
                                  stepping)
             for key, value in vars(module).items()
             if key.startswith("PHASE_")]
    assert "tree repair" in names
    for name in names:
        assert phase_id(name) != 0, name


def test_board_telemetry_round_trip():
    ctx = multiprocessing.get_context("spawn")
    board = HeartbeatBoard(ctx, 2)
    board.note_phase(0, "force computation")
    board.note_bytes(0, 123, 456)
    board.note_rss(0, 7 << 20)
    board.note_step(0, 1)
    board.note_checkpoint(0, 1)
    assert board.current_phase(0) == "force computation"
    assert board.current_phase(1) is None
    assert board.wall_in_phase(0) >= 0.0
    assert board.bytes_sent(0) == 123
    assert board.bytes_received(0) == 456
    assert board.peak_rss(0) == 7 << 20
    assert board.last_checkpoint_step(0) == 1

    sampler = TelemetrySampler(board, 2)
    rows = sampler.sample()
    assert [row.rank for row in rows] == [0, 1]
    assert rows[0].phase == "force computation"
    assert rows[0].bytes_sent == 123
    assert rows[0].ckpt_step == 1
    assert rows[1].step == -1 and rows[1].phase is None

    line = format_live_line(rows, total_steps=5)
    assert "r0:force computation" in line
    assert "sent 123B" in line


def test_event_log_writes_sorted_flushed_lines(tmp_path):
    path = tmp_path / "ev.jsonl"
    with EventLog(str(path)) as elog:
        elog.emit("run_start", p=2, n=10)
        elog.emit_step(0, [RankTelemetry(
            rank=0, step=0, phase="setup", wall_in_phase=0.1,
            bytes_sent=1, bytes_recv=2, peak_rss=3, steps_per_s=0.0)])
        raw = path.read_text().splitlines()
        assert len(raw) == 2          # flushed before close
    rec = json.loads(raw[0])
    # Keys are emitted sorted, so the stream diffs cleanly across runs.
    assert raw[0].index('"event"') < raw[0].index('"n"') \
        < raw[0].index('"p"') < raw[0].index('"t"')
    assert rec["event"] == "run_start"
    step = json.loads(raw[1])
    assert step["ranks"][0]["phase"] == "setup"


# --------------------------------------------------------- skew report

def _synthetic_trace():
    def span(rank, name, t0, t1, cat, depth=1):
        return PhaseSpan(rank=rank, name=name, t0=t0, t1=t1,
                         depth=depth, cat=cat)

    # Virtual: force dominates (80/20); wall: even split (50/50).
    phases = [[span(0, "force computation", 0.0, 8.0, "phase"),
               span(0, "tree merging", 8.0, 10.0, "phase")],
              [span(1, "force computation", 0.0, 8.0, "phase"),
               span(1, "tree merging", 8.0, 10.0, "phase")]]
    wall = [[span(0, "force computation", 0.0, 1.0, "wall:phase"),
             span(0, "tree merging", 1.0, 2.0, "wall:phase"),
             span(0, "step 0", 0.0, 2.0, "wall:step", depth=0)],
            [span(1, "force computation", 0.0, 3.0, "wall:phase"),
             span(1, "tree merging", 3.0, 6.0, "wall:phase")]]
    return Trace(size=2, phases=phases, sends=[[], []], recvs=[[], []],
                 final_times=[10.0, 10.0], wall_phases=wall)


def test_phase_skew_compares_shares():
    rows = phase_skew(_synthetic_trace())
    by_name = {r.name: r for r in rows}
    force = by_name["force computation"]
    assert force.virtual_share == pytest.approx(0.8)
    assert force.wall_share == pytest.approx(0.5)
    assert force.skew == pytest.approx(-0.3)       # over-modelled
    merge = by_name["tree merging"]
    assert merge.skew == pytest.approx(+0.3)       # under-modelled
    # Sorted by |skew| descending; wall:step spans never counted.
    assert abs(rows[0].skew) >= abs(rows[-1].skew)
    assert sum(r.wall_seconds for r in rows) == pytest.approx(8.0)


def test_wall_load_imbalance_and_per_rank_seconds():
    trace = _synthetic_trace()
    assert per_rank_wall_seconds(trace) == pytest.approx([2.0, 6.0])
    assert wall_load_imbalance(trace) == pytest.approx(6.0 / 4.0)
    assert wall_load_imbalance(trace, "force computation") \
        == pytest.approx(3.0 / 2.0)
    report = format_skew_report(trace)
    assert "force computation" in report
    assert "wall load imbalance" in report


def test_skew_requires_wall_tracks():
    trace = Trace(size=1, phases=[[]], sends=[[]], recvs=[[]])
    with pytest.raises(ValueError, match="no wall tracks"):
        phase_skew(trace)
    with pytest.raises(ValueError, match="no wall tracks"):
        wall_load_imbalance(trace)


# ------------------------------------------- metrics determinism (CLI)

def test_metrics_snapshot_is_deterministically_ordered():
    result = _run("spda")
    snap = result.metrics_summary().snapshot()
    assert list(snap) == sorted(snap)
    # The full JSON document is byte-stable under key sorting — what
    # --metrics-out writes.
    dumped = json.dumps(snap, indent=2, sort_keys=True)
    assert dumped == json.dumps(json.loads(dumped), indent=2,
                                sort_keys=True)
    assert snap["force.walks_built"]["value"] > 0
