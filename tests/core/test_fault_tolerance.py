"""Simulation-level fault-tolerance acceptance tests.

These exercise the full parallel Barnes-Hut pipeline (host shard,
tree merge, function shipping, balancing exchange) under injected
faults: message delays on the default configuration keep answers within
1e-12 of the fault-free run, crash recovery is bitwise identical, slow
ranks shed load, and zero-fault plans leave timings untouched.
"""

import numpy as np
import pytest

from repro import plummer
from repro.bh.distributions import make_instance
from repro.core.config import SchemeConfig
from repro.core.simulation import ParallelBarnesHut
from repro.core.bins import TAG_REQUEST, TAG_RESULT
from repro.machine import transport
from repro.machine.faults import FaultPlan
from repro.machine.mailbox import Mailbox
from repro.machine.profiles import NCUBE2

P = 4
STEPS = 2


def _particles():
    return make_instance("g_160535", scale=0.0008, seed=3)


def _config():
    return SchemeConfig(scheme="dpda", alpha=0.7, degree=0,
                        mode="potential")


def _sim(**kw):
    kw.setdefault("recv_timeout", 120.0)
    return ParallelBarnesHut(_particles(), _config(), p=P,
                             profile=NCUBE2, **kw)


@pytest.fixture(scope="module")
def baseline():
    return _sim().run(steps=STEPS)


class TestReliableDelivery:
    """Every message is delivered exactly once; an injected delay moves
    only its virtual arrival."""

    def test_delays_on_shipping_tags(self, baseline):
        """Delays on the function-shipping tags: the run completes,
        values match to 1e-12, and the delay counter lands in the
        RunReport."""
        plan = FaultPlan(seed=7, delay_rate=0.3, delay_seconds=2e-3,
                         tags={TAG_REQUEST, TAG_RESULT})
        res = _sim(fault_plan=plan).run(steps=STEPS)

        np.testing.assert_allclose(res.values, baseline.values,
                                   rtol=1e-12, atol=0.0)
        assert res.fault_summary()["delays_injected"] > 0
        assert res.parallel_time > baseline.parallel_time

    def test_identical_plans_identical_runs(self):
        """Same seed, same plan: makespans and counters are bitwise
        reproducible across runs."""
        plan = FaultPlan(seed=7, delay_rate=0.3, delay_seconds=2e-3,
                         tags={TAG_REQUEST, TAG_RESULT})
        a = _sim(fault_plan=plan).run(steps=STEPS)
        b = _sim(fault_plan=plan).run(steps=STEPS)
        assert a.parallel_time == b.parallel_time
        assert a.fault_summary() == b.fault_summary()
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.positions, b.positions)

    def test_zero_fault_reliable_is_timing_neutral(self, baseline):
        """A plan that injects no fault must not move the makespan by a
        single ulp."""
        res = _sim(fault_plan=FaultPlan()).run(steps=STEPS)
        assert res.parallel_time == baseline.parallel_time
        assert np.array_equal(res.values, baseline.values)
        assert all(v == 0 for v in res.fault_summary().values())


class TestDefaultConfiguration:
    """A delay plan needs nothing but the plan: on the default
    configuration a delayed run computes what the clean run does."""

    @staticmethod
    def _run(plan=None):
        return ParallelBarnesHut(
            plummer(2000, seed=1), SchemeConfig(scheme="spda"), p=P,
            profile=NCUBE2, recv_timeout=120.0, fault_plan=plan,
        ).run(steps=STEPS, dt=0.01)

    def test_delays_keep_answers(self):
        clean = self._run()
        res = self._run(FaultPlan(seed=5, delay_rate=0.1,
                                  delay_seconds=1e-3))
        assert res.fault_summary()["delays_injected"] > 0
        assert res.force_computations() == clean.force_computations()
        np.testing.assert_allclose(res.values, clean.values,
                                   rtol=1e-12, atol=0.0)


class TestMailboxesDrain:
    """A clean run receives every message it sends: when it ends, every
    rank's mailbox is empty.  No copy is still in flight when a rank
    returns, so a process rank's counters are final when its program
    returns."""

    @pytest.mark.parametrize("cfg, dt", [
        (SchemeConfig(scheme="spsa"), 0.01),
        (SchemeConfig(scheme="spda"), 0.01),
        (SchemeConfig(scheme="dpda"), 0.01),
        (SchemeConfig(scheme="dpda", softening=0.01, integrator="kdk",
                      timestep="block", dt_eta=0.1, max_rungs=5), 0.05),
    ], ids=["spsa", "spda", "dpda", "dpda-block"])
    def test_every_message_is_received(self, monkeypatch, cfg, dt):
        boxes = []

        class Recorded(Mailbox):
            def __init__(self, rank):
                super().__init__(rank)
                boxes.append(self)

        monkeypatch.setattr(transport, "Mailbox", Recorded)
        res = ParallelBarnesHut(
            plummer(600, seed=2), cfg, p=P, profile=NCUBE2,
            recv_timeout=120.0,
        ).run(steps=STEPS, dt=dt)
        assert res.run.total_messages > 0
        assert len(boxes) == P
        assert [box._pending for box in boxes] == [0] * P
        assert [box.pending_summary() for box in boxes] == [{}] * P


class TestCrashRecovery:
    def test_crash_recovery_is_bitwise_identical(self, baseline):
        """A mid-run crash with per-step checkpoints rolls back and
        re-executes to the exact fault-free trajectory."""
        crash_at = 0.5 * baseline.parallel_time
        plan = FaultPlan(crash={1: crash_at})
        res = _sim(fault_plan=plan,
                   checkpoint_every=1).run(steps=STEPS)
        assert res.recoveries == 1
        assert np.array_equal(res.values, baseline.values)
        assert np.array_equal(res.positions, baseline.positions)
        assert np.array_equal(res.velocities, baseline.velocities)

    def test_recovered_metrics_equal_uninterrupted(self):
        """Rank 1 crashes mid step 2 of 3: every rank's whole metrics
        snapshot of the recovered run equals the uninterrupted run's —
        ``mailbox.max_pending`` included, which the checkpoint must fold
        in from the endpoint.  Virtual
        backend only: on the process backend the high-water mark depends
        on OS scheduling."""
        def run(**kw):
            return ParallelBarnesHut(
                plummer(2000, seed=3), SchemeConfig(scheme="dpda"), p=2,
                profile=NCUBE2, recv_timeout=120.0, **kw,
            ).run(steps=3, dt=1e-3)

        base = run()
        mid_step_2 = (base.steps[0][1].virtual_seconds
                      + 0.5 * base.steps[1][1].virtual_seconds)
        hurt = run(fault_plan=FaultPlan(crash={1: mid_step_2}),
                   checkpoint_every=1)
        assert hurt.recoveries == 1
        for ra, rb in zip(base.run.ranks, hurt.run.ranks):
            assert ra.metrics.snapshot() == rb.metrics.snapshot()

    def test_recovered_trace_equals_uninterrupted(self, baseline):
        """The thread-rank counterpart of the process backend's
        recovered-trace test: after rank 1 crashes and every rank rolls
        back, the traced run records the uninterrupted run's phases,
        sends and receives, message seqs included, and its final
        clocks."""
        clean = _sim(checkpoint_every=1).run(steps=STEPS, trace=True)
        plan = FaultPlan(crash={1: 0.5 * baseline.parallel_time})
        hurt = _sim(fault_plan=plan,
                    checkpoint_every=1).run(steps=STEPS, trace=True)
        assert hurt.recoveries == 1
        assert hurt.trace.phases == clean.trace.phases
        assert hurt.trace.sends == clean.trace.sends
        assert hurt.trace.recvs == clean.trace.recvs
        assert hurt.trace.final_times == clean.trace.final_times

    @pytest.mark.parametrize("backend", ["virtual", "process"])
    def test_recovery_under_a_delay_plan_redraws_nothing(self, backend):
        """Rank 1 crashes at 0.6 T_p under a delay plan: the rolled-back
        ranks continue their channels' delay draws from the checkpoint,
        so the recovered run injects the uninterrupted run's 502 delays
        (not 522) and ends in its exact values."""
        def run(**crash):
            plan = FaultPlan(seed=3, delay_rate=0.2, delay_seconds=5e-4,
                             **crash)
            return ParallelBarnesHut(
                plummer(1500, seed=3), SchemeConfig(scheme="spda"), p=4,
                profile=NCUBE2, recv_timeout=120.0, fault_plan=plan,
                checkpoint_every=1, backend=backend,
            ).run(steps=3)

        base = run()
        hurt = run(crash={1: 0.6 * base.parallel_time})
        assert hurt.recoveries == 1
        assert base.fault_summary()["delays_injected"] == 502
        assert hurt.fault_summary()["delays_injected"] == 502
        assert hurt.parallel_time == base.parallel_time
        assert np.array_equal(hurt.values, base.values)
        assert np.array_equal(hurt.positions, base.positions)
        assert np.array_equal(hurt.velocities, base.velocities)

    def test_crash_without_checkpoints_is_fatal(self):
        from repro.machine.faults import RankCrashedError
        plan = FaultPlan(crash={1: 1e-6})
        with pytest.raises(RankCrashedError):
            _sim(fault_plan=plan).run(steps=STEPS)


class TestGracefulDegradation:
    def test_slow_rank_sheds_load(self):
        """With rank 0 running 4x slow, the dynamic balancer must end
        up less imbalanced than the static scheme, which keeps feeding
        the slow rank its full share."""
        plan = FaultPlan(slowdown={0: 4.0})
        static_cfg = SchemeConfig(scheme="spsa", alpha=0.7, degree=0,
                                  mode="potential", grid_level=1)
        ps = _particles()
        static = ParallelBarnesHut(ps, static_cfg, p=P, profile=NCUBE2,
                                   recv_timeout=120.0,
                                   fault_plan=plan).run(steps=3)
        dynamic = _sim(fault_plan=plan).run(steps=3)
        assert dynamic.load_imbalance() < static.load_imbalance()
        # Shedding also shortens the tail iteration itself.
        assert dynamic.last_step_time < static.last_step_time
