"""Tests for deterministic fault injection."""

import json
from dataclasses import fields

import pytest

from repro.machine.costmodel import MachineProfile
from repro.machine.engine import Engine
from repro.machine.faults import (
    FaultInjector,
    FaultPlan,
    RankCrashedError,
)
from repro.machine.profiles import ZERO_COST

TOY = MachineProfile(name="toy", topology_kind="hypercube",
                     t_s=10.0, t_h=1.0, t_w=0.5, flops_per_second=1.0)


class TestFaultPlan:
    def test_defaults_are_fault_free(self):
        plan = FaultPlan()
        assert plan.delay_rate == 0.0
        assert plan.crash == {} and plan.slowdown == {}

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="delay_rate"):
            FaultPlan(delay_rate=1.5)
        with pytest.raises(ValueError, match="delay_seconds"):
            FaultPlan(delay_seconds=-1.0)
        with pytest.raises(ValueError, match="negative"):
            FaultPlan(crash={0: -1.0})
        with pytest.raises(ValueError, match="slowdown"):
            FaultPlan(slowdown={0: 0.5})

    def test_json_round_trip(self):
        text = json.dumps({"seed": 42, "delay_rate": 0.2,
                           "delay_seconds": 1e-3, "tags": [7001, 7002],
                           "crash": {"2": 1.5}, "slowdown": {"0": 3.0}})
        assert FaultPlan.from_json(text) == FaultPlan(
            seed=42, delay_rate=0.2, delay_seconds=1e-3, tags={7001, 7002},
            crash={2: 1.5}, slowdown={0: 3.0})
        # Every field can be set from a plan file.
        plan = FaultPlan(seed=3, kill={1: 2})
        assert FaultPlan.from_dict(
            {f.name: getattr(plan, f.name) for f in fields(plan)}) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict({"drop_probability": 0.1})
        # Message drops and duplicates are not part of the fault model.
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan.from_dict({"drop_rate": 0.05})

    def test_without_crash(self):
        plan = FaultPlan(crash={0: 1.0, 1: 2.0})
        left = plan.without_crash(0)
        assert left.crash == {1: 2.0}
        assert plan.crash == {0: 1.0, 1: 2.0}  # original untouched

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "plan.json"
        p.write_text('{"seed": 9, "delay_rate": 0.25}')
        assert FaultPlan.load(str(p)) == FaultPlan(seed=9, delay_rate=0.25)

    def test_process_faults_round_trip(self):
        plan = FaultPlan(seed=3, kill={1: 2}, stall_heartbeat={3: 0})
        assert plan.any_process_faults
        again = FaultPlan.from_json(
            '{"seed": 3, "kill": {"1": 2}, "stall_heartbeat": {"3": 0}}')
        assert again == plan
        assert again.kill == {1: 2} and again.stall_heartbeat == {3: 0}
        assert not FaultPlan(crash={0: 1.0}).any_process_faults

    def test_process_fault_validation(self):
        with pytest.raises(ValueError, match="kill"):
            FaultPlan(kill={0: -1})
        with pytest.raises(ValueError, match="stall"):
            FaultPlan(stall_heartbeat={0: -2})

    def test_without_process_faults(self):
        plan = FaultPlan(kill={0: 1, 1: 2}, stall_heartbeat={0: 3},
                         crash={2: 1.0})
        left = plan.without_process_faults(0)
        assert left.kill == {1: 2}
        assert left.stall_heartbeat == {}
        assert left.crash == {2: 1.0}          # virtual faults untouched
        assert plan.kill == {0: 1, 1: 2}       # original untouched


class TestInjectorDeterminism:
    def test_same_plan_same_decisions(self):
        plan = FaultPlan(seed=3, delay_rate=0.5, delay_seconds=1.0)
        a = FaultInjector(plan, 4)
        b = FaultInjector(plan, 4)
        seq_a = [a.delay(0, 1, 5) for _ in range(50)]
        seq_b = [b.delay(0, 1, 5) for _ in range(50)]
        assert seq_a == seq_b
        assert 0.0 in seq_a and any(seq_a)

    def test_different_seeds_differ(self):
        a = FaultInjector(FaultPlan(seed=1, delay_rate=0.5,
                                    delay_seconds=1.0), 2)
        b = FaultInjector(FaultPlan(seed=2, delay_rate=0.5,
                                    delay_seconds=1.0), 2)
        assert ([a.delay(0, 1, 0) for _ in range(64)]
                != [b.delay(0, 1, 0) for _ in range(64)])

    def test_delays_are_pinned(self):
        """Each channel draws once per send from its own counter, so a
        plan's delays are fixed numbers: these are the bits the
        ``"delay"``/``"jitter"`` hash salts give for seed 7."""
        inj = FaultInjector(FaultPlan(seed=7, delay_rate=0.5,
                                      delay_seconds=2e-3, tags={3}), 4)
        got = []
        for _ in range(8):
            got.append(inj.delay(0, 1, 3))
            assert inj.delay(0, 1, 4) == 0.0    # not a planned tag
            got.append(inj.delay(2, 1, 3))
        assert [x.hex() for x in got] == [
            "0x0.0p+0", "0x1.f65322c3ccde1p-10", "0x1.c75dfd54dd81fp-10",
            "0x1.a0ef6f17cfc39p-10", "0x1.310b5a0757085p-9", "0x0.0p+0",
            "0x1.227ede939c9c0p-9", "0x1.295ba8ef94b54p-9",
            "0x1.044c78904ea2bp-9", "0x1.d9aa22e902aebp-10", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x1.74e8e1cd9b4ecp-9"]

    def test_tag_filter(self):
        inj = FaultInjector(FaultPlan(delay_rate=1.0, delay_seconds=1.0,
                                      tags={7}), 2)
        assert inj.delay(0, 1, 8) == 0.0
        assert inj.delay(0, 1, 7) > 0.0

    def test_unknown_rank_rejected(self):
        with pytest.raises(ValueError, match="rank 9"):
            FaultInjector(FaultPlan(crash={9: 1.0}), 4)


class TestMessageFaults:
    def test_delay_pushes_arrival(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, dst=1, tag=2)
            else:
                comm.recv(src=0, tag=2)
                return comm.now

        plan = FaultPlan(delay_rate=1.0, delay_seconds=50.0)
        rep = Engine(2, ZERO_COST, recv_timeout=10.0,
                     fault_plan=plan).run(main)
        # jitter keeps the delay within [0.5, 1.5) * delay_seconds
        assert 25.0 <= rep.values[1] < 75.0
        assert rep.fault_summary()["delays_injected"] == 1


class TestCrashAndSlowdown:
    def test_crash_raises_typed_error(self):
        def main(comm):
            comm.compute(100.0)
            comm.barrier()

        with pytest.raises(RankCrashedError) as ei:
            Engine(2, ZERO_COST, recv_timeout=10.0,
                   fault_plan=FaultPlan(crash={0: 40.0})).run(main)
        assert ei.value.rank == 0
        assert ei.value.at_time == pytest.approx(40.0)

    def test_crash_releases_other_ranks(self):
        def main(comm):
            if comm.rank == 0:
                comm.compute(100.0)
            comm.recv(src=0, tag=1)  # never sent: rank 1 must be released

        with pytest.raises(RankCrashedError):
            Engine(2, ZERO_COST, recv_timeout=30.0,
                   fault_plan=FaultPlan(crash={0: 10.0})).run(main)

    def test_slowdown_degrades_compute(self):
        def main(comm):
            comm.compute(100.0)
            return comm.now

        plan = FaultPlan(slowdown={1: 2.5})
        rep = Engine(2, ZERO_COST, fault_plan=plan).run(main)
        assert rep.values[0] == pytest.approx(100.0)
        assert rep.values[1] == pytest.approx(250.0)


class TestZeroFaultNeutrality:
    def test_reliable_layer_is_free_when_clean(self):
        """A plan that injects nothing leaves every timing unchanged."""
        def main(comm):
            comm.compute(float(comm.rank) * 3.0)
            comm.allgather(comm.rank)
            comm.alltoall(list(range(comm.size)))
            comm.barrier()
            return comm.now

        base = Engine(8, TOY).run(main)
        guarded = Engine(8, TOY, fault_plan=FaultPlan()).run(main)
        assert guarded.values == base.values
        assert guarded.fault_summary() == {
            k: 0 for k in guarded.fault_summary()
        }

    def test_fault_runs_reproducible(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, dst=1, tag=3)
            else:
                for _ in range(10):
                    comm.recv(src=0, tag=3)
            comm.barrier()
            return comm.now

        plan = FaultPlan(seed=5, delay_rate=0.3, delay_seconds=7.0)
        reps = [Engine(2, TOY, recv_timeout=30.0,
                       fault_plan=plan).run(main) for _ in range(3)]
        assert (reps[0].values == reps[1].values == reps[2].values)
        assert (reps[0].fault_summary() == reps[1].fault_summary()
                == reps[2].fault_summary())
