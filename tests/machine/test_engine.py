"""Tests for the SPMD engine and run reports."""

import sys
import threading
import time

import pytest

from repro.machine.costmodel import MachineProfile
from repro.machine.engine import Engine, RunReport, RankResult
from repro.machine.clock import PhaseTimings
from repro.machine.comm import CommStats, DeadlockError
from repro.machine.profiles import NCUBE2, ZERO_COST

TOY = MachineProfile(name="toy", topology_kind="hypercube",
                     t_s=10.0, t_h=1.0, t_w=0.5, flops_per_second=1.0)


class TestEngine:
    def test_rank_identity(self):
        rep = Engine(4).run(lambda comm: (comm.rank, comm.size))
        assert rep.values == [(r, 4) for r in range(4)]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Engine(0)

    def test_shared_args(self):
        rep = Engine(3).run(lambda comm, a, b: a + b + comm.rank, 10, 20)
        assert rep.values == [30, 31, 32]

    def test_rank_args(self):
        rep = Engine(3).run(lambda comm, x: x * 2,
                            rank_args=[(1,), (2,), (3,)])
        assert rep.values == [2, 4, 6]

    def test_rank_args_length_checked(self):
        with pytest.raises(ValueError):
            Engine(3).run(lambda comm, x: x, rank_args=[(1,)])

    def test_exception_propagates_with_rank(self):
        def main(comm):
            if comm.rank == 2:
                raise ValueError("bad physics")
            comm.barrier()

        with pytest.raises(RuntimeError, match="rank 2.*bad physics"):
            Engine(4, recv_timeout=10.0).run(main)

    def test_exception_does_not_hang_other_ranks(self):
        """Ranks blocked in recv must be released when a peer dies."""
        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("dead")
            comm.recv(src=0)

        with pytest.raises(RuntimeError):
            Engine(2, recv_timeout=30.0).run(main)

    def test_large_rank_count(self):
        def main(comm):
            return comm.allreduce(1, lambda a, b: a + b)

        rep = Engine(128, NCUBE2).run(main)
        assert rep.values == [128] * 128


class TestRunReport:
    def _report(self):
        def main(comm):
            with comm.phase("tree"):
                comm.compute(10.0 * (comm.rank + 1))
            with comm.phase("force"):
                comm.compute(100.0)
            if comm.rank == 0:
                comm.send(b"xxxx", dst=1)
            elif comm.rank == 1:
                comm.recv(src=0)
            return comm.rank

        return Engine(4, TOY).run(main)

    def test_parallel_time_is_makespan(self):
        rep = self._report()
        assert rep.parallel_time == max(r.time for r in rep.ranks)

    def test_phase_max(self):
        rep = self._report()
        assert rep.phase_max()["tree"] == pytest.approx(40.0)
        assert rep.phase_max()["force"] == pytest.approx(100.0)

    def test_phase_mean(self):
        """The balance ratio divides by the mean over all ranks."""
        rep = self._report()
        assert rep.load_imbalance("tree") == pytest.approx(40.0 / 25.0)

    def test_traffic_totals(self):
        rep = self._report()
        assert rep.total_messages == 1
        assert rep.total_bytes == 4

    def test_load_imbalance_overall(self):
        rep = self._report()
        assert rep.load_imbalance() > 1.0

    def test_load_imbalance_balanced_phase(self):
        rep = self._report()
        assert rep.load_imbalance("force") == pytest.approx(1.0)

    def test_size_property(self):
        assert self._report().size == 4

    def test_load_imbalance_empty_phase(self):
        rep = RunReport(ranks=[
            RankResult(rank=0, value=None, time=0.0,
                       timings=PhaseTimings(), stats=CommStats())
        ])
        assert rep.load_imbalance() == 1.0


class TestDeterminism:
    def test_virtual_times_reproducible(self):
        def main(comm):
            comm.compute(float(comm.rank) * 3.0)
            comm.allgather(comm.rank)
            comm.alltoall(list(range(comm.size)))
            comm.barrier()
            return comm.now

        runs = [Engine(16, NCUBE2).run(main).values for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


class TestReportEdgeCases:
    """phase_max / load_imbalance on degenerate reports: missing
    phases, single ranks, zero-time phases must all come back
    well-defined, never raise."""

    def test_phase_mean_missing_on_some_ranks(self):
        """A phase only some ranks enter still averages over ALL ranks —
        absent ranks contribute zero, they are not skipped."""
        def main(comm):
            if comm.rank == 0:
                with comm.phase("solo"):
                    comm.compute(8.0)

        rep = Engine(4, TOY).run(main)
        assert rep.load_imbalance("solo") == pytest.approx(8.0 / 2.0)

    def test_phase_mean_unknown_phase_absent(self):
        rep = Engine(2, TOY).run(lambda comm: comm.compute(1.0))
        assert "no such phase" not in rep.phase_max()

    def test_load_imbalance_missing_phase_is_balanced(self):
        """Asking about a phase nobody recorded: every rank reports 0,
        the mean is 0, and the ratio degrades gracefully to 1.0."""
        rep = Engine(4, TOY).run(lambda comm: comm.compute(1.0))
        assert rep.load_imbalance("does not exist") == 1.0

    def test_single_rank_never_imbalanced(self):
        rep = Engine(1, TOY).run(lambda comm: comm.compute(37.0))
        assert rep.load_imbalance() == 1.0
        assert rep.phase_max()["other"] == pytest.approx(37.0)

    def test_zero_time_phase(self):
        """A phase entered but charged nothing (all ranks): ratio 1.0."""
        def main(comm):
            with comm.phase("empty"):
                pass
            comm.compute(1.0)

        rep = Engine(4, TOY).run(main)
        assert rep.load_imbalance("empty") == 1.0
        assert rep.phase_max().get("empty", 0.0) == 0.0

    def test_partial_phase_imbalance_ratio(self):
        """One rank works 4 s in a phase the rest skip: max/mean = 4."""
        def main(comm):
            if comm.rank == 0:
                with comm.phase("lopsided"):
                    comm.compute(4.0)

        rep = Engine(4, TOY).run(main)
        assert rep.load_imbalance("lopsided") == pytest.approx(4.0)


class TestRunToBlock:
    """Thread ranks are run by one scheduler: exactly one executes
    between blocking receives, the run goes to the lowest-numbered
    runnable rank, and a receive no rank can satisfy fails at once."""

    @pytest.mark.parametrize("p", [2, 8])
    def test_one_rank_between_receives(self, p):
        """A counter raised on entry to user code and lowered around
        every ``recv`` never exceeds one — also with the interpreter
        switching threads every 10 µs."""
        running, peak = [0], [0]

        def enter():
            running[0] += 1
            peak[0] = max(peak[0], running[0])

        def recv(comm, src):
            running[0] -= 1
            try:
                return comm.recv(src=src, tag=1)
            finally:
                enter()

        def main(comm):
            enter()
            try:
                token = comm.rank
                for _ in range(25):             # a ring, p hops a lap
                    comm.send(token, (comm.rank + 1) % comm.size, tag=1)
                    token = recv(comm, (comm.rank - 1) % comm.size)
                    sum(range(2000))            # user code worth preempting
                return token
            finally:
                running[0] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rep = Engine(p, recv_timeout=30.0).run(main)
        finally:
            sys.setswitchinterval(interval)
        assert peak[0] == 1 and running[0] == 0
        assert rep.values == [(r - 25) % p for r in range(p)]

    def test_raising_rank_releases_a_blocked_peer_promptly(self):
        def main(comm):
            if comm.rank == 1:
                raise KeyError("true cause")
            comm.recv(src=1)

        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="rank 1.*true cause") as info:
            Engine(2, recv_timeout=30.0).run(main)
        assert time.monotonic() - t0 < 2.0
        assert isinstance(info.value.__cause__, KeyError)

    def test_all_blocked_is_a_deadlock_error_with_the_waits_board(self):
        """A two-rank mutual ``recv`` is reported the moment both park,
        whatever ``recv_timeout`` says, with every rank's wait."""
        def main(comm):
            comm.recv(src=1 - comm.rank, tag=5)

        t0 = time.monotonic()
        with pytest.raises(DeadlockError) as info:
            Engine(2, recv_timeout=600.0).run(main)
        assert time.monotonic() - t0 < 1.0
        assert info.value.blocked == [(1, 5), (0, 5)]
        assert "wait-for: 0 -> 1 -> 0" in str(info.value)
        ranks = info.value.partial_report.ranks
        assert all(r.error.startswith("DeadlockError") for r in ranks)

    def test_a_cycle_of_three_names_the_cycle(self):
        def main(comm):
            comm.recv(src=(comm.rank + 1) % 3, tag=4)

        t0 = time.monotonic()
        with pytest.raises(DeadlockError) as info:
            Engine(3, recv_timeout=600.0).run(main)
        assert time.monotonic() - t0 < 1.0
        assert info.value.rank == 0
        assert info.value.blocked == [(1, 4), (2, 4), (0, 4)]
        assert "wait-for: 0 -> 1 -> 2 -> 0" in str(info.value)

    def test_holder_blocked_outside_the_mailbox_is_a_deadlock_error(self):
        """``recv_timeout`` is the watchdog for a rank stuck outside the
        machine: rank 0 keeps the run while it waits on a wall-only
        event, rank 1's message is queued but it is never handed the run
        — a typed error after ``recv_timeout``, not a hang."""
        def main(comm):
            if comm.rank == 1:
                comm.send("go", 0)
                return comm.recv(src=0)             # made runnable, never run
            comm.recv(src=1)
            comm.send("x", 1)
            threading.Event().wait(timeout=1.5)     # never set

        t0 = time.monotonic()
        with pytest.raises(DeadlockError) as info:
            Engine(2, recv_timeout=0.5).run(main)
        assert 0.5 <= time.monotonic() - t0 < 5.0
        assert info.value.rank == 1
        assert "timed out after 0.5s" in str(info.value)
        assert "no rank was handed the run for 0.5s" in \
            str(info.value.__cause__)

    def test_waiting_on_a_returned_rank_is_a_deadlock_error(self):
        """A receive from a rank whose program already returned fails
        at once, however long ``recv_timeout`` is."""
        def main(comm):
            if comm.rank == 2:
                return None
            return comm.recv(src=comm.rank + 1, tag=1)

        t0 = time.monotonic()
        with pytest.raises(DeadlockError) as info:
            Engine(3, recv_timeout=600.0).run(main)
        assert time.monotonic() - t0 < 1.0
        assert info.value.blocked == [(1, 1), (2, 1), None]
        assert "wait-for: 0 -> 1 -> 2 (returned)" in str(info.value)
        assert "rank 2: returned" in str(info.value)

    def test_the_schedule_is_the_same_every_run(self):
        """Who runs next is the scheduler's choice, not the OS's: the
        interleaving of a many-to-one exchange repeats exactly, starting
        with rank 0 and handing on to the lowest-numbered runnable rank."""
        def main(comm, log):
            log.append(("start", comm.rank))
            if comm.rank == 0:
                for src in (3, 1, 2):
                    log.append(("got", comm.recv(src=src, tag=2)))
            else:
                comm.send(comm.rank, dst=0, tag=2)

        logs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                logs.append([])
                Engine(4).run(main, logs[-1])
        finally:
            sys.setswitchinterval(interval)
        assert logs[0] == [("start", 0), ("start", 1), ("start", 2),
                           ("start", 3), ("got", 3), ("got", 1), ("got", 2)]
        assert all(log == logs[0] for log in logs)

    def test_no_communication_at_all(self):
        rep = Engine(8).run(lambda comm: comm.rank ** 2)
        assert rep.values == [r ** 2 for r in range(8)]
