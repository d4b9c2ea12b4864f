"""Transport parity: the same program over LocalTransport (virtual
backend) and ProcessTransport (process backend) must produce identical
results AND identical virtual communication charges."""

import numpy as np
import pytest

from repro.machine.engine import Engine
from repro.machine.faults import FaultPlan
from repro.machine.profiles import NCUBE2, ZERO_COST
from repro.runtime import ProcessEngine


def run_both(size, main, *args, profile=NCUBE2, **engine_kw):
    v = Engine(size, profile, **engine_kw).run(main, *args)
    p = ProcessEngine(size, profile, **engine_kw).run(main, *args)
    return v, p


def assert_reports_match(v, p, values=True):
    if values:
        assert v.values == p.values
    for rv, rp in zip(v.ranks, p.ranks):
        assert rv.time == rp.time, f"rank {rv.rank} virtual clock differs"
        assert rv.stats == rp.stats, f"rank {rv.rank} comm charges differ"
        assert rv.timings == rp.timings
    assert v.parallel_time == p.parallel_time


def _bcast_prog(comm):
    rng = np.random.default_rng(11)
    payload = rng.standard_normal(3000) if comm.rank == 0 else None
    out = comm.bcast(payload, root=0)
    return float(out.sum()), out.tobytes()


def _allreduce_prog(comm):
    rng = np.random.default_rng(100 + comm.rank)
    local = float(rng.standard_normal(50).sum())
    s = comm.allreduce(local, lambda a, b: a + b)
    m = comm.allreduce(local, max)
    return s, m


def _alltoallv_prog(comm):
    # Variable-size exchange: rank r sends (r + dst + 1) elements to dst,
    # so every pairwise message has a different wire size.
    rng = np.random.default_rng(7 * (comm.rank + 1))
    outgoing = [rng.standard_normal(comm.rank + dst + 1)
                for dst in range(comm.size)]
    incoming = comm.alltoall(outgoing)
    return [x.tobytes() for x in incoming]


@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize(
    "prog", [_bcast_prog, _allreduce_prog, _alltoallv_prog],
    ids=["bcast", "allreduce", "alltoallv"])
def test_collectives_identical_across_transports(size, prog):
    v, p = run_both(size, prog)
    assert_reports_match(v, p)


def test_point_to_point_ring_identical():
    def ring(comm):
        rng = np.random.default_rng(comm.rank)
        data = rng.standard_normal(comm.rank * 500 + 10)
        comm.send(data, dst=(comm.rank + 1) % comm.size, tag=5)
        got = comm.recv(src=(comm.rank - 1) % comm.size, tag=5)
        return got.tobytes()

    v, p = run_both(4, ring)
    assert_reports_match(v, p)


def test_large_payloads_cross_shm_path_bitwise():
    # 40 KB messages, pickled whole onto the pipe like every payload:
    # the charge model and the bytes must still match exactly.
    def big(comm):
        rng = np.random.default_rng(comm.rank + 42)
        data = rng.standard_normal(5000)
        return comm.alltoall([data * (d + 1) for d in range(comm.size)])

    v = Engine(4, NCUBE2).run(big)
    p = ProcessEngine(4, NCUBE2).run(big)
    for rv, rp in zip(v.values, p.values):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(rv, rp))
    assert_reports_match(v, p, values=False)


def _overwrite_after_send(comm):
    if comm.rank == 0:
        data = np.arange(1 << 17, dtype=np.float64)    # 1 MiB
        comm.send(data, dst=1, tag=3)
        data[:] = -1.0
        comm.send(data, dst=1, tag=3)
        return None
    first = comm.recv(src=0, tag=3)
    second = comm.recv(src=0, tag=3)
    return first.tobytes(), second.tobytes()


def test_process_payload_snapshot_at_send():
    """A payload is pickled when it is sent, not later in the queue's
    feeder thread: overwriting the array right after the first send
    leaves the first message with the original values.  Thread ranks
    share payload objects by design, so this holds on processes only."""
    first, second = ProcessEngine(2, NCUBE2).run(
        _overwrite_after_send).values[1]
    assert first == np.arange(1 << 17, dtype=np.float64).tobytes()
    assert second == np.full(1 << 17, -1.0).tobytes()


def test_delay_injection_matches():
    # Delays are pure functions of (seed, src, dst, tag, count): the
    # per-worker injectors of the process backend make exactly the
    # decisions the per-rank injectors of the virtual backend make.
    plan = FaultPlan(seed=13, delay_rate=0.5, delay_seconds=1e-3)

    def chatter(comm):
        total = 0.0
        for round_ in range(4):
            comm.send(float(comm.rank * 10 + round_),
                      dst=(comm.rank + 1) % comm.size, tag=round_)
            total += comm.recv(src=(comm.rank - 1) % comm.size,
                               tag=round_)
        return total

    v, p = run_both(4, chatter, fault_plan=plan)
    assert_reports_match(v, p)
    assert v.fault_summary()["delays_injected"] > 0  # the plan fired
    assert v.fault_summary() == p.fault_summary()


def test_zero_cost_profile_matches_too():
    v, p = run_both(2, _allreduce_prog, profile=ZERO_COST)
    assert_reports_match(v, p)
    assert v.parallel_time == 0.0
