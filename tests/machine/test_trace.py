"""Tests for the per-rank trace recorder and Chrome trace export."""

import json

import pytest

from repro.machine.costmodel import MachineProfile
from repro.machine.engine import Engine
from repro.machine.faults import FaultPlan
from repro.machine.profiles import NCUBE2, ZERO_COST

TOY = MachineProfile(name="toy", topology_kind="hypercube",
                     t_s=10.0, t_h=1.0, t_w=0.5, flops_per_second=1.0)


def _pingpong(comm):
    with comm.phase("work"):
        comm.compute(5.0 * (comm.rank + 1))
    if comm.rank == 0:
        comm.send(b"abcd", dst=1, tag=3)
    elif comm.rank == 1:
        comm.recv(src=0, tag=3)
    return comm.now


class TestTracerOffByDefault:
    def test_untraced_report_has_no_trace(self):
        rep = Engine(2, TOY).run(_pingpong)
        assert rep.trace is None

    def test_virtual_times_identical_with_and_without_tracer(self):
        """The overhead-neutrality guarantee: tracing must not perturb
        any virtual clock, bitwise."""
        plain = Engine(8, NCUBE2).run(_pingpong)
        traced = Engine(8, NCUBE2).run(_pingpong, trace=True)
        assert plain.values == traced.values          # exact, not approx
        assert [r.time for r in plain.ranks] == \
            [r.time for r in traced.ranks]
        assert [r.timings.seconds for r in plain.ranks] == \
            [r.timings.seconds for r in traced.ranks]


class TestPhaseSpans:
    def test_span_times_and_names(self):
        def main(comm):
            with comm.phase("outer"):
                comm.compute(10.0)
                with comm.phase("inner"):
                    comm.compute(5.0)

        rep = Engine(1, TOY).run(main, trace=True)
        spans = {s.name: s for s in rep.trace.phases[0]}
        assert spans["inner"].t0 == 10.0 and spans["inner"].t1 == 15.0
        assert spans["outer"].t0 == 0.0 and spans["outer"].t1 == 15.0
        assert spans["inner"].depth == 2 and spans["outer"].depth == 1

    def test_spans_recorded_per_rank(self):
        rep = Engine(4, TOY).run(_pingpong, trace=True)
        for r in range(4):
            names = [s.name for s in rep.trace.phases[r]]
            assert names == ["work"]

    def test_final_times_match_report(self):
        rep = Engine(4, TOY).run(_pingpong, trace=True)
        assert rep.trace.final_times == [r.time for r in rep.ranks]
        assert rep.trace.parallel_time == rep.parallel_time


class TestMessageEvents:
    def test_send_event_fields(self):
        rep = Engine(2, TOY).run(_pingpong, trace=True)
        sends = rep.trace.sends[0]
        assert len(sends) == 1
        ev = sends[0]
        assert (ev.src, ev.dst, ev.tag, ev.nbytes) == (0, 1, 3, 4)
        # Channel charge t_s + nbytes * t_w = 10 + 2; one hop of t_h = 1.
        assert ev.t_end - ev.t_begin == pytest.approx(12.0)
        assert ev.arrival == pytest.approx(ev.t_end + 1.0)
        assert ev.extra_delay == 0.0

    def test_recv_event_waited_flag(self):
        rep = Engine(2, TOY).run(_pingpong, trace=True)
        recvs = rep.trace.recvs[1]
        assert len(recvs) == 1
        ev = recvs[0]
        assert (ev.rank, ev.src, ev.tag) == (1, 0, 3)
        # Rank 1 computed 10 s; the message arrives at 5+12+1 = 18 s,
        # so the receive genuinely waited.
        assert ev.waited and ev.arrival > ev.t_begin
        # Copy-out charge nbytes * t_w = 2 after the wait.
        assert ev.t_end == pytest.approx(ev.arrival + 2.0)

    def test_seq_links_send_to_recv(self):
        rep = Engine(2, TOY).run(_pingpong, trace=True)
        send = rep.trace.sends[0][0]
        recv = rep.trace.recvs[1][0]
        assert send.seq == recv.seq
        assert rep.trace.sends_by_seq()[(recv.src, recv.seq)] is send

    def test_local_send_traced(self):
        def main(comm):
            comm.send(b"xy", dst=comm.rank, tag=9)
            comm.recv(src=comm.rank, tag=9)

        rep = Engine(1, TOY).run(main, trace=True)
        ev = rep.trace.sends[0][0]
        assert ev.t_begin == ev.t_end == ev.arrival
        assert not rep.trace.recvs[0][0].waited

    def test_collectives_produce_matched_flows(self):
        def main(comm):
            comm.allgather(comm.rank)
            comm.barrier()

        rep = Engine(4, NCUBE2).run(main, trace=True)
        sends = rep.trace.sends_by_seq()
        for recv in rep.trace.all_recvs():
            assert (recv.src, recv.seq) in sends

    def test_identical_runs_number_messages_alike(self):
        """Each rank numbers its own sends from 0, so two identical runs
        in one interpreter record equal events, ``seq`` included."""
        def main(comm):
            comm.allgather(comm.rank)
            comm.send(b"xy", dst=comm.rank, tag=9)
            comm.recv(src=comm.rank, tag=9)
            comm.barrier()

        a, b = (Engine(4, NCUBE2).run(main, trace=True).trace
                for _ in range(2))
        assert [ev.seq for ev in a.sends[0]] == \
            list(range(len(a.sends[0])))
        assert a.sends == b.sends
        assert a.recvs == b.recvs


class TestFaultDispositions:
    def test_delays_recorded(self):
        plan = FaultPlan(seed=7, delay_rate=1.0, delay_seconds=4.0)
        rep = Engine(2, TOY, fault_plan=plan).run(_pingpong, trace=True)
        (ev,) = rep.trace.all_sends()
        assert rep.fault_summary()["delays_injected"] == 1
        # jitter keeps the delay within [0.5, 1.5) * delay_seconds
        assert 2.0 <= ev.extra_delay < 6.0
        assert ev.arrival == ev.t_end + 1.0 + ev.extra_delay


class TestChromeExport:
    def _trace(self):
        return Engine(4, TOY).run(_pingpong, trace=True).trace

    def test_valid_json_round_trip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.json"
        trace.write_chrome(str(path))
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["ranks"] == 4

    def test_phase_spans_for_every_rank(self):
        doc = self._trace().to_chrome()
        span_tids = {e["tid"] for e in doc["traceEvents"]
                     if e["ph"] == "X"}
        assert span_tids == {0, 1, 2, 3}

    def test_flow_events_paired_by_id(self):
        doc = self._trace().to_chrome()
        starts = {e["id"] for e in doc["traceEvents"] if e["ph"] == "s"}
        ends = {e["id"] for e in doc["traceEvents"] if e["ph"] == "f"}
        assert ends <= starts and ends

    def test_timestamps_microseconds(self):
        trace = self._trace()
        doc = trace.to_chrome()
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        span = trace.phases[0][0]
        match = [e for e in xs if e["tid"] == 0 and e["name"] == "work"]
        assert match[0]["ts"] == pytest.approx(span.t0 * 1e6)
        assert match[0]["dur"] == pytest.approx(span.duration * 1e6)

    def test_export_byte_identical_across_runs(self):
        """Flow ids derive from each message's ``(src, seq)``, and each
        rank numbers its own sends in program order, so identical runs
        export identical bytes."""
        docs = [json.dumps(self._trace().to_chrome(), sort_keys=True)
                for _ in range(2)]
        assert docs[0] == docs[1]

    def test_zero_cost_machine_traces_cleanly(self):
        def main(comm):
            with comm.phase("free"):
                if comm.rank == 0:
                    comm.send(b"abcd", dst=1, tag=3)
                elif comm.rank == 1:
                    comm.recv(src=0, tag=3)

        rep = Engine(2, ZERO_COST).run(main, trace=True)
        doc = rep.trace.to_chrome()
        assert doc["otherData"]["parallel_time"] == 0.0
