"""Tests for point-to-point Comm semantics and virtual-time charging."""

import numpy as np
import pytest

from repro.machine.comm import estimate_nbytes
from repro.machine.costmodel import MachineProfile
from repro.machine.engine import Engine
from repro.machine.profiles import ZERO_COST

TOY = MachineProfile(name="toy", topology_kind="hypercube",
                     t_s=10.0, t_h=1.0, t_w=0.5, flops_per_second=1.0)


def run(p, main, profile=ZERO_COST, **kw):
    return Engine(p, profile, recv_timeout=10.0, **kw).run(main)


class TestEstimateNbytes:
    def test_numpy_array(self):
        assert estimate_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_scalars(self):
        assert estimate_nbytes(None) == 0
        assert estimate_nbytes(True) == 1
        assert estimate_nbytes(7) == 8
        assert estimate_nbytes(3.14) == 8
        assert estimate_nbytes(1 + 2j) == 16

    def test_containers_recursive(self):
        assert estimate_nbytes([1, 2.0, None]) == 16
        assert estimate_nbytes({"ab": 1}) == 10
        assert estimate_nbytes((np.zeros(2), 1)) == 24

    def test_string(self):
        assert estimate_nbytes("abcd") == 4

    def test_unknown_object_charged_token(self):
        class Thing:
            pass
        assert estimate_nbytes(Thing()) == 8


class TestSendRecv:
    def test_payload_round_trip(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"v": 41}, dst=1, tag=5)
                return None
            if comm.rank == 1:
                return comm.recv(src=0, tag=5)["v"]
            return None

        assert run(2, main).values[1] == 41

    def test_numpy_payload_identity(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.arange(5), dst=1)
            elif comm.rank == 1:
                return comm.recv(src=0).sum()

        assert run(2, main).values[1] == 10

    def test_invalid_destination(self):
        def main(comm):
            comm.send(1, dst=99)

        with pytest.raises(RuntimeError, match="out of range"):
            run(2, main)

    def test_self_send_is_free_and_works(self):
        def main(comm):
            comm.send("hello", dst=comm.rank, tag=1)
            v = comm.recv(src=comm.rank, tag=1)
            return (v, comm.now)

        rep = run(1, main, profile=TOY)
        assert rep.values[0] == ("hello", 0.0)

    def test_deadlock_detected(self):
        def main(comm):
            comm.recv(src=(comm.rank + 1) % comm.size, tag=9)

        with pytest.raises(RuntimeError, match="timed out|deadlock"):
            Engine(2, ZERO_COST, recv_timeout=0.1).run(main)


class TestVirtualTiming:
    def test_sender_charge(self):
        """send of 8 bytes: t_s + 8*t_w = 10 + 4 = 14 on the sender."""
        def main(comm):
            if comm.rank == 0:
                comm.send(1.0, dst=1)  # 0->1 is 1 hop
            elif comm.rank == 1:
                comm.recv(src=0)
            return comm.now

        rep = run(2, main, profile=TOY)
        assert rep.values[0] == pytest.approx(14.0)
        # receiver waits for arrival (14 + 1 hop) then pays copy 8*t_w
        assert rep.values[1] == pytest.approx(15.0 + 4.0)

    def test_receiver_not_delayed_if_busy_past_arrival(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1.0, dst=1)
            elif comm.rank == 1:
                comm.compute(1000.0)  # clock = 1000 >> arrival
                comm.recv(src=0)
            return comm.now

        rep = run(2, main, profile=TOY)
        assert rep.values[1] == pytest.approx(1000.0 + 4.0)

    def test_hop_term_uses_topology(self):
        """0->3 in a 4-cube is 2 hops; arrival is one t_h later than 0->1."""
        def main(comm):
            if comm.rank == 0:
                comm.send(1.0, dst=1)
                comm.send(1.0, dst=3)
            elif comm.rank in (1, 3):
                comm.recv(src=0)
            return comm.now

        rep = run(4, main, profile=TOY)
        # second send departs at 28; 2 hops -> arrival 30; copy 4
        assert rep.values[3] - rep.values[1] == pytest.approx(15.0)

    def test_compute_charges_flops(self):
        def main(comm):
            comm.compute(123.0)
            return comm.now

        assert run(1, main, profile=TOY).values[0] == pytest.approx(123.0)

    def test_explicit_nbytes_overrides_estimate(self):
        def main(comm):
            if comm.rank == 0:
                comm.send([1] * 100, dst=1, nbytes=4)
            elif comm.rank == 1:
                comm.recv(src=0)
            return comm.now

        rep = run(2, main, profile=TOY)
        assert rep.values[0] == pytest.approx(10.0 + 2.0)

    def test_determinism_across_runs(self):
        def main(comm):
            comm.compute(float(comm.rank))
            others = comm.allgather(comm.rank * 2)
            comm.send(sum(others), dst=(comm.rank + 1) % comm.size, tag=3)
            comm.recv(src=(comm.rank - 1) % comm.size, tag=3)
            return comm.now

        a = run(8, main, profile=TOY)
        b = run(8, main, profile=TOY)
        assert a.values == b.values


class TestStats:
    def test_counters(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.zeros(4), dst=1, tag=2)   # 32 bytes
                comm.send(np.zeros(2), dst=1, tag=2)   # 16 bytes
            elif comm.rank == 1:
                comm.recv(src=0, tag=2)
                comm.recv(src=0, tag=2)
            return (comm.stats.messages_sent, comm.stats.bytes_sent,
                    comm.stats.messages_received, comm.stats.bytes_received,
                    dict(comm.stats.bytes_by_tag))

        rep = run(2, main)
        assert rep.values[0] == (2, 48, 0, 0, {2: 48})
        assert rep.values[1][2:4] == (2, 48)
