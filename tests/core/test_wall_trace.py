"""Dual-clock traces on the thread backend: one ``RankTrace`` per rank
records every block on the virtual and the wall clock, and the skew
report compares the two over the same steps."""

import pytest

from repro import plummer
from repro.analysis import phase_skew
from repro.core.config import SchemeConfig
from repro.core.simulation import ParallelBarnesHut
from repro.machine.faults import FaultPlan

STEPS = 2


def _sim(n, **kw):
    return ParallelBarnesHut(plummer(n, seed=5), SchemeConfig(scheme="spda"),
                             p=2, checkpoint_every=1, **kw)


def _blocks(spans, cat: str) -> list[tuple[str, int]]:
    return [(s.name, s.depth) for s in spans if s.cat == cat]


def test_one_call_records_both_clocks(tmp_path):
    trace = _sim(600, checkpoint_dir=str(tmp_path)).run(
        steps=STEPS, dt=1e-3, trace=True, wall_trace=True).trace
    assert trace.has_wall
    for virtual, wall in zip(trace.phases, trace.wall_phases):
        assert _blocks(wall, "wall:phase") == _blocks(virtual, "phase")
        assert [s.name for s in wall if s.cat == "wall:step"] == \
            [s.name for s in virtual if s.cat == "step"] == \
            [f"step {i}" for i in range(STEPS)]
        # The step-0 snapshot, then one after every step.
        assert len(_blocks(wall, "wall:checkpoint")) == STEPS + 1


def _step_seconds(trace, step: int) -> dict[str, float]:
    """Depth-1 virtual phase seconds inside step ``step``, all ranks."""
    out: dict[str, float] = {}
    for spans in trace.phases:
        (marker,) = [s for s in spans
                     if s.cat == "step" and s.name == f"step {step}"]
        for s in spans:
            if (s.cat == "phase" and s.depth == 1
                    and marker.t0 <= s.t0 and s.t1 <= marker.t1):
                out[s.name] = out.get(s.name, 0.0) + s.duration
    return out


def test_skew_after_recovery_compares_the_reexecuted_steps():
    """A run recovered at step 1 has wall spans for step 1 only, so its
    virtual rows count step 1 only: no ``setup`` row (step 0's), and
    every row's virtual seconds are the clean run's step-1 seconds."""
    run = dict(steps=STEPS, dt=1e-3, trace=True, wall_trace=True)
    clean = _sim(400).run(**run).trace
    (marker,) = [s for s in clean.phases[1] if s.name == "step 1"]
    plan = FaultPlan(crash={1: 0.5 * (marker.t0 + marker.t1)})
    hurt = _sim(400, fault_plan=plan).run(**run)
    assert hurt.recoveries == 1
    assert [s.name for s in hurt.trace.all_wall_phases()
            if s.cat == "wall:step"] == ["step 1", "step 1"]

    rows = phase_skew(hurt.trace)
    expected = _step_seconds(clean, 1)
    assert "setup" not in {r.name for r in rows}
    for row in rows:
        assert row.virtual_seconds == pytest.approx(
            expected.get(row.name, 0.0), rel=1e-12, abs=0.0), row.name
