"""Tests for the function-shipping bin protocol."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ParallelBarnesHut, SchemeConfig, plummer
from repro.core.bins import BinManager, RequestBin, ResultBin
from repro.machine.costmodel import PARTICLE_RECORD_BYTES
from repro.machine.engine import Engine
from repro.machine.profiles import NCUBE2, ZERO_COST


def records(n, key=7, start=0):
    return (np.arange(start, start + n, dtype=np.int64),
            np.full(n, key, dtype=np.int64),
            np.zeros((n, 3)))


class TestBinRecords:
    def test_request_bin_wire_size(self):
        s, k, c = records(10)
        assert RequestBin(s, k, c).nbytes == 10 * PARTICLE_RECORD_BYTES

    def test_result_bin_wire_size(self):
        r_pot = ResultBin(np.arange(5), np.zeros(5))
        r_force = ResultBin(np.arange(5), np.zeros((5, 3)))
        assert r_pot.nbytes == 20
        assert r_force.nbytes == 60


def run(p, main, profile=ZERO_COST):
    return Engine(p, profile, recv_timeout=30.0).run(main)


def zeros(bins):
    """A per-drain ``serve``: one values array per request bin."""
    return [np.zeros(b.n) for b in bins]


class TestBinManagerProtocol:
    def test_round_trip_two_ranks(self):
        """Rank 0 ships requests; rank 1 serves with value = slot * 10."""
        def main(comm):
            got = {}

            def serve(bins):
                return [b.slots.astype(float) * 10.0 for b in bins]

            def accumulate(slots, vals):
                for s, v in zip(slots, vals):
                    got[int(s)] = float(v)

            mgr = BinManager(comm, capacity=4, dims=3, serve=serve,
                             accumulate=accumulate)
            if comm.rank == 0:
                s, k, c = records(10)
                mgr.add_requests(1, s, k, c)
            mgr.complete()
            return got if comm.rank == 0 else mgr.records_served

        rep = run(2, main)
        assert rep.values[0] == {i: i * 10.0 for i in range(10)}
        assert rep.values[1] == 10

    def test_bins_ship_at_capacity(self):
        def main(comm):
            mgr = BinManager(comm, capacity=3, dims=3,
                             serve=zeros, accumulate=lambda s, v: None)
            sent_bins = None
            if comm.rank == 0:
                s, k, c = records(7)
                mgr.add_requests(1, s, k, c)
                # 7 records, capacity 3 -> two full bins shipped, 1 pending
                sent_bins = mgr.stats.request_bins_sent
            mgr.complete()
            return sent_bins, mgr.stats.request_bins_sent

        rep = run(2, main)
        assert rep.values[0] == (2, 3)

    def test_flow_control_stalls_counted(self):
        def main(comm):
            mgr = BinManager(comm, capacity=2, dims=3,
                             serve=zeros, accumulate=lambda s, v: None)
            if comm.rank == 0:
                s, k, c = records(8)
                mgr.add_requests(1, s, k, c)  # 4 bins to same dst
            mgr.complete()
            return mgr.stats.flow_control_stalls

        rep = run(2, main)
        assert rep.values[0] >= 3  # every bin after the first stalls

    def test_mutual_exchange_no_deadlock(self):
        """All ranks ship to all others and serve each other."""
        def main(comm):
            total = [0.0]

            def serve(bins):
                return [np.full(b.n, float(comm.rank)) for b in bins]

            def accumulate(slots, vals):
                total[0] += vals.sum()

            mgr = BinManager(comm, capacity=5, dims=3, serve=serve,
                             accumulate=accumulate)
            for dst in range(comm.size):
                if dst != comm.rank:
                    s, k, c = records(12)
                    mgr.add_requests(dst, s, k, c)
            mgr.complete()
            return total[0]

        rep = run(4, main)
        for rank, v in enumerate(rep.values):
            expected = 12.0 * sum(r for r in range(4) if r != rank)
            assert v == pytest.approx(expected)

    def test_deterministic_virtual_time(self):
        def main(comm):
            def serve(bins):
                # a generator: each bin's service time reaches the
                # clock when complete() pulls that bin's values
                for b in bins:
                    comm.compute(float(100 * (comm.rank + 1)))
                    yield np.zeros(b.n)

            mgr = BinManager(comm, capacity=3, dims=3, serve=serve,
                             accumulate=lambda s, v: None)
            comm.compute(50.0 * comm.rank)
            for dst in range(comm.size):
                if dst != comm.rank:
                    mgr.add_requests(dst, *records(8))
            mgr.complete()
            return comm.now

        times = [run(8, main, profile=NCUBE2).values for _ in range(3)]
        assert times[0] == times[1] == times[2]

    def test_self_shipping_rejected(self):
        def main(comm):
            mgr = BinManager(comm, capacity=2, dims=3,
                             serve=zeros, accumulate=lambda s, v: None)
            s, k, c = records(1)
            mgr.add_requests(comm.rank, s, k, c)

        with pytest.raises(RuntimeError, match="not shipped"):
            run(1, main)

    def test_mismatched_arrays_rejected(self):
        def main(comm):
            mgr = BinManager(comm, capacity=2, dims=3,
                             serve=zeros, accumulate=lambda s, v: None)
            mgr.add_requests(1, np.arange(3), np.arange(2), np.zeros((3, 3)))

        with pytest.raises(RuntimeError, match="disagree"):
            run(2, main)

    def test_invalid_capacity(self):
        def main(comm):
            BinManager(comm, capacity=0, dims=3,
                       serve=zeros, accumulate=lambda s, v: None)

        with pytest.raises(RuntimeError, match="capacity"):
            run(1, main)

    def test_empty_add_is_noop(self):
        def main(comm):
            mgr = BinManager(comm, capacity=2, dims=3,
                             serve=zeros, accumulate=lambda s, v: None)
            mgr.add_requests(1, np.zeros(0, dtype=np.int64),
                             np.zeros(0, dtype=np.int64), np.zeros((0, 3)))
            mgr.complete()
            return mgr.stats.request_records_sent

        assert run(2, main).values == [0, 0]

    def test_mixed_keys_in_one_bin_preserved(self):
        """Records for different branch keys share a bin; duplicate slots
        must both round-trip (the np.add.at regression case)."""
        def main(comm):
            seen = {}

            def serve(bins):
                return [b.keys.astype(float) for b in bins]

            def accumulate(slots, vals):
                for s, v in zip(slots, vals):
                    seen.setdefault(int(s), []).append(float(v))

            mgr = BinManager(comm, capacity=100, dims=3, serve=serve,
                             accumulate=accumulate)
            if comm.rank == 0:
                mgr.add_requests(1, *records(3, key=11, start=0))
                mgr.add_requests(1, *records(3, key=22, start=0))
            mgr.complete()
            return seen if comm.rank == 0 else None

        rep = run(2, main)
        assert rep.values[0] == {0: [11.0, 22.0], 1: [11.0, 22.0],
                                 2: [11.0, 22.0]}

    def test_request_bytes_follow_record_size(self):
        def main(comm):
            mgr = BinManager(comm, capacity=10, dims=3,
                             serve=zeros, accumulate=lambda s, v: None)
            if comm.rank == 0:
                mgr.add_requests(1, *records(25))
            mgr.complete()
            return mgr.stats.request_bytes_sent

        rep = run(2, main)
        assert rep.values[0] == 25 * PARTICLE_RECORD_BYTES


P = 3
# what rank ``src`` asks rank ``dst`` for: distinct (slot, key) records
# and where the list is cut into two add_requests calls
_pairs = st.lists(st.tuples(st.integers(0, 19), st.integers(0, 9)),
                  unique=True, max_size=30)
_traffic = st.fixed_dictionaries({
    (src, dst): st.tuples(_pairs, st.integers(0, 30))
    for src in range(P) for dst in range(P) if src != dst
})


class TestBinAccounting:
    """Every record shipped is served once and comes back once, whatever
    the capacity, the record counts and the key mix per pair."""

    @settings(max_examples=30, deadline=None)
    @given(capacity=st.integers(1, 8), traffic=_traffic)
    def test_records_bins_and_stalls_add_up(self, capacity, traffic):
        def main(comm):
            back = []

            def serve(bins):
                for b in bins:
                    comm.compute(float(b.n))      # 1 s per record here
                    yield b.slots * 10.0 + b.keys

            mgr = BinManager(
                comm, capacity=capacity, dims=3, serve=serve,
                accumulate=lambda s, v: back.extend(
                    zip(s.tolist(), v.tolist())))
            comm.compute(float(comm.rank + 1))    # staggered arrivals
            for dst in range(comm.size):
                if dst == comm.rank:
                    continue
                pairs, cut = traffic[comm.rank, dst]
                for part in (pairs[:cut], pairs[cut:]):
                    mgr.add_requests(
                        dst,
                        np.array([s for s, _ in part], dtype=np.int64),
                        np.array([k for _, k in part], dtype=np.int64),
                        np.zeros((len(part), 3)))
            mgr.complete()
            return (back, mgr.stats.request_records_sent,
                    mgr.stats.result_records_returned, mgr.records_served, mgr.stats.request_bins_sent,
                    mgr.stats.flow_control_stalls)

        first, second = run(P, main), run(P, main)
        assert [r.time for r in first.ranks] \
            == [r.time for r in second.ranks]
        assert first.values == second.values
        n = {pair: len(pairs) for pair, (pairs, _) in traffic.items()}
        for rank, (back, sent, received, served, nbins,
                   stalls) in enumerate(first.values):
            others = [r for r in range(P) if r != rank]
            asked = [(s, s * 10.0 + k) for dst in others
                     for s, k in traffic[rank, dst][0]]
            assert Counter(back) == Counter(asked)
            assert sent == received == len(asked)
            assert served == sum(n[src, rank] for src in others)
            bins_to = [-(-n[rank, dst] // capacity) for dst in others]
            assert nbins == sum(bins_to)
            assert stalls == sum(max(b - 1, 0) for b in bins_to)


class TestStallBookkeeping:
    """A bin is outstanding until ``complete()`` accepts its result, and
    that happens only after every bin has shipped: every bin but the
    first to each destination is a flow-control stall, in every product
    run, whatever the owners' drain order."""

    @pytest.mark.parametrize("scheme, p", [
        ("spda", 2), ("spda", 4), ("dpda", 4), ("spda", 16)])
    def test_stalls_are_bins_minus_destinations(self, monkeypatch,
                                                scheme, p):
        seen, complete = [], BinManager.complete

        def spy(mgr):
            complete(mgr)
            seen.append((mgr.stats.request_bins_sent,
                         len(mgr.bins_sent_to),
                         mgr.stats.flow_control_stalls))

        monkeypatch.setattr(BinManager, "complete", spy)
        cfg = SchemeConfig(scheme=scheme, alpha=0.67, mode="force")
        ParallelBarnesHut(plummer(2_000, seed=3), cfg, p=p,
                          profile=NCUBE2).run(steps=2, dt=0.01)
        assert len(seen) == 2 * p
        for bins, destinations, stalls in seen:
            assert stalls == bins - destinations
        bins, destinations, _ = map(sum, zip(*seen))
        assert bins > 2 * destinations > 0      # many bins per pair
