"""Simulation-level fault-tolerance acceptance tests.

These exercise the full parallel Barnes-Hut pipeline (host shard,
tree merge, function shipping, balancing exchange) under injected
faults: message faults are recovered on the default configuration and
keep answers within 1e-12 of the fault-free run (duplicates alone
change nothing), crash recovery is bitwise identical, slow ranks shed
load, and zero-fault plans leave timings untouched.
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
    def test_drops_and_dup_on_shipping_tags(self, baseline):
        """5% drops plus a forced duplicate on the function-shipping
        tags: the run completes, values match to 1e-12, and retry
        counters land in the RunReport."""
        plan = FaultPlan(seed=7, drop_rate=0.05,
                         tags={TAG_REQUEST, TAG_RESULT},
                         duplicate_first=(0, 1, TAG_REQUEST))
        res = _sim(fault_plan=plan).run(steps=STEPS)

        np.testing.assert_allclose(res.values, baseline.values,
                                   rtol=1e-12, atol=0.0)
        fs = res.fault_summary()
        assert fs["drops_injected"] > 0
        assert fs["retransmissions"] == fs["drops_injected"]
        assert fs["duplicates_injected"] == 1
        assert fs["duplicates_suppressed"] == 1
        assert res.run.total_retransmissions == fs["retransmissions"]

    def test_identical_plans_identical_runs(self):
        """Same seed, same plan: makespans and counters are bitwise
        reproducible across runs."""
        plan = FaultPlan(seed=7, drop_rate=0.05,
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
    """A message-fault plan needs nothing but the plan: recovery from
    drops and duplicates is part of the fault model."""

    @staticmethod
    def _run(plan=None):
        return ParallelBarnesHut(
            plummer(2000, seed=1), SchemeConfig(scheme="spda"), p=P,
            profile=NCUBE2, recv_timeout=120.0, fault_plan=plan,
        ).run(steps=STEPS, dt=0.01)

    @pytest.fixture(scope="class")
    def clean(self):
        return self._run()

    def test_duplicates_change_nothing(self, clean):
        res = self._run(FaultPlan(seed=5, dup_rate=0.1))
        assert res.fault_summary()["duplicates_suppressed"] > 0
        assert np.array_equal(res.values, clean.values)
        assert np.array_equal(res.positions, clean.positions)

    def test_dedupe_state_is_one_seq_per_source(self, monkeypatch):
        """A mailbox suppresses duplicates by its highest accepted seq
        per source: its dedupe state never outgrows the machine, and it
        suppresses every copy the network injected."""
        boxes = []

        class Recorded(Mailbox):
            def __init__(self, rank):
                super().__init__(rank)
                boxes.append(self)

        monkeypatch.setattr(transport, "Mailbox", Recorded)
        fs = self._run(FaultPlan(seed=5, dup_rate=0.2)).fault_summary()
        assert fs["duplicates_injected"] > 0
        assert fs["duplicates_suppressed"] == fs["duplicates_injected"]
        assert len(boxes) == P
        for box in boxes:
            assert len(box._last_seq) <= P

    def test_drops_are_retransmitted(self, clean):
        res = self._run(FaultPlan(seed=5, drop_rate=0.05))
        fs = res.fault_summary()
        assert fs["drops_injected"] > 0
        assert fs["retransmissions"] == fs["drops_injected"]
        assert res.force_computations() == clean.force_computations()
        np.testing.assert_allclose(res.values, clean.values,
                                   rtol=1e-12, atol=0.0)


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
        in from the endpoint like ``duplicates_suppressed``.  Virtual
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
