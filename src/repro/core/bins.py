"""Particle bins and the function-shipping wire protocol (Section 3.2).

Remote interaction requests — (particle coordinates, branch key) records —
are collected into per-destination *bins* of ``bin_capacity`` particles
(the paper uses ~100, "selected so that the interprocessor communication
latency and memory latency at remote processor can be amortized over
several particles") and shipped when full.

Flow control: "we do not allow two bins to be outstanding between the
same source-destination pair...  processor i must stop processing local
nodes and process outstanding nodes received from other processors."
Sends are buffered (eager protocol), so the rule is modelled rather than
enforced by blocking: every oversubscribed send is counted as a
flow-control stall, and the round-trip latency of each bin is folded into
the requester's clock when its result is received.  A bin stays
outstanding until :meth:`BinManager.complete` accepts its result, which
happens only after every bin has shipped, so every bin but the first to
each destination is a stall: stalls = bins − destinations that received
a bin, whatever order the owners drain in.  The count says how many bins
a pair exchanges per step, nothing about serialisation.

The bin is the unit of the *wire* and of flow control, not of compute.
A rank has every incoming request bin in hand before it answers the
first, so the owner's ``serve`` callable is handed the whole *drain* —
all request bins in virtual-arrival order — and may evaluate them
together; the virtual machine still sees one receive, that bin's own
service charges and one result send per bin, in arrival order.  The
service and collection loops run in a fixed rank order, which keeps
every virtual clock fully deterministic regardless of real thread
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.machine.comm import Comm
from repro.machine.costmodel import (
    FORCE_RECORD_BYTES,
    PARTICLE_RECORD_BYTES,
    POTENTIAL_RECORD_BYTES,
)

#: Tags for the two directions of function-shipping traffic.
TAG_REQUEST = 7001
TAG_RESULT = 7002


@dataclass
class RequestBin:
    """A bin of remote-interaction requests bound for one processor."""

    slots: np.ndarray    # sender-local particle slots (echoed back)
    keys: np.ndarray     # branch keys, one per record
    coords: np.ndarray   # (n, d) particle coordinates

    @property
    def n(self) -> int:
        return self.slots.size

    @property
    def nbytes(self) -> int:
        return PARTICLE_RECORD_BYTES * self.n


@dataclass
class ResultBin:
    """Computed potentials/forces heading back to the requester."""

    slots: np.ndarray
    values: np.ndarray   # (n,) potentials or (n, d) forces

    @property
    def n(self) -> int:
        return self.slots.size

    @property
    def nbytes(self) -> int:
        per = (POTENTIAL_RECORD_BYTES if self.values.ndim == 1
               else FORCE_RECORD_BYTES)
        return per * self.n


@dataclass
class ShipStats:
    """Per-rank function-shipping counters (for the Section 4.2 benches)."""

    request_bins_sent: int = 0
    request_records_sent: int = 0
    request_bytes_sent: int = 0
    result_records_returned: int = 0
    flow_control_stalls: int = 0


class BinManager:
    """Accumulates, ships, serves and drains function-shipping bins."""

    def __init__(self, comm: Comm, capacity: int, dims: int,
                 serve: Callable[[list[RequestBin]], Iterable[np.ndarray]],
                 accumulate: Callable[[np.ndarray, np.ndarray], None]):
        """
        Parameters
        ----------
        serve:
            Owner-side work for one drain: called once with every
            incoming request bin in virtual-arrival order, returns one
            values array per bin in the same order.  :meth:`complete`
            pulls bin ``i``'s values after charging that bin's receive
            and before sending its result, so a generator that charges
            the clock just before each ``yield`` bills every bin its
            own service time however the values were computed.
        accumulate:
            Called with (slots, values) when a result bin returns.
        """
        if capacity < 1:
            raise ValueError(f"bin capacity must be >= 1, got {capacity}")
        self.comm = comm
        self.capacity = capacity
        self.dims = dims
        self._serve = serve
        self._accumulate = accumulate
        self._pending: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        self._pending_count: dict[int, int] = {}
        self.records_served = 0
        self.stats = ShipStats()
        #: Request bins shipped per destination rank (the sentinels'
        #: counts).
        self.bins_sent_to: dict[int, int] = {}

    # ------------------------------------------------------------- sending
    def add_requests(self, dst: int, slots: np.ndarray, keys: np.ndarray,
                     coords: np.ndarray) -> None:
        """Queue records for ``dst``; ships bins as they fill."""
        if not (slots.size == keys.size == coords.shape[0]):
            raise ValueError("request record arrays disagree in length")
        if slots.size == 0:
            return
        if dst == self.comm.rank:
            raise ValueError("local interactions are not shipped")
        self._pending.setdefault(dst, []).append((slots, keys, coords))
        self._pending_count[dst] = self._pending_count.get(dst, 0) + slots.size
        while self._pending_count.get(dst, 0) >= self.capacity:
            self._ship(dst, self.capacity)

    def flush(self) -> None:
        """Ship every partially filled bin (end of the traversal phase)."""
        for dst in sorted(self._pending):
            while self._pending_count.get(dst, 0) > 0:
                self._ship(dst, self.capacity)

    def _take(self, dst: int, n: int) -> RequestBin:
        slots_parts, keys_parts, coords_parts = [], [], []
        taken = 0
        chunks = self._pending[dst]
        while taken < n and chunks:
            s, k, c = chunks[0]
            room = n - taken
            if s.size <= room:
                slots_parts.append(s)
                keys_parts.append(k)
                coords_parts.append(c)
                taken += s.size
                chunks.pop(0)
            else:
                slots_parts.append(s[:room])
                keys_parts.append(k[:room])
                coords_parts.append(c[:room])
                chunks[0] = (s[room:], k[room:], c[room:])
                taken += room
        self._pending_count[dst] -= taken
        return RequestBin(
            slots=np.concatenate(slots_parts),
            keys=np.concatenate(keys_parts),
            coords=np.concatenate(coords_parts),
        )

    def _ship(self, dst: int, n: int) -> None:
        n = min(n, self._pending_count.get(dst, 0))
        if n == 0:
            return
        if self.bins_sent_to.get(dst, 0) > 0:
            # One-outstanding-bin rule: a real machine would stop local
            # work here and serve remote requests until the previous bin
            # is acknowledged.  With buffered sends the stall is recorded
            # (its round-trip latency still reaches the clock when the
            # result is received).  No result is accepted before every
            # bin has shipped, so an earlier bin to ``dst`` is still
            # outstanding.
            self.stats.flow_control_stalls += 1
        bin_ = self._take(dst, n)
        self.comm.send(bin_, dst, tag=TAG_REQUEST, nbytes=bin_.nbytes)
        self.bins_sent_to[dst] = self.bins_sent_to.get(dst, 0) + 1
        self.stats.request_bins_sent += 1
        self.stats.request_records_sent += bin_.n
        self.stats.request_bytes_sent += bin_.nbytes

    # ------------------------------------------------------------ receiving
    def complete(self) -> None:
        """Finish the exchange: flush, swap bin counts, serve every
        incoming request, collect every result.

        Requests are answered in virtual-arrival order (FIFO by arrival,
        as the paper's polling loop would), which is deterministic
        because sender clocks are; ``serve`` sees the whole drain at
        once, but each bin's receive, service charges and result send
        reach the clock in that order.  Per-pair sentinel markers
        replace a terminating collective, so a rank starts serving from
        its *own* clock — service overlaps other ranks' traversal
        exactly as on the real machine.  Deadlock-free by construction:
        all requests and sentinels are buffered on the wire before any
        rank blocks, and all results are sent during the service pass.
        """
        self.flush()
        comm = self.comm
        # End-of-stream markers: each rank tells every other how many
        # request bins it sent (a tiny control message whose payload is
        # the plain count, an ``int`` no bin can be; the decentralized
        # replacement for a terminating barrier, so service can begin as
        # soon as the first request virtually arrives).
        for dst in range(comm.size):
            if dst != comm.rank:
                comm.send(self.bins_sent_to.get(dst, 0),
                          dst, tag=TAG_REQUEST, nbytes=4)
        def is_sentinel(p) -> bool:
            return isinstance(p, int)

        raw = []
        for src in range(comm.size):
            if src != comm.rank:
                msgs = comm.collect_raw(src, TAG_REQUEST, is_sentinel)
                # The mailbox matches by earliest *virtual arrival*, and a
                # delayed bin can arrive after the sentinel that
                # announces it — so trust the sentinel's
                # count, not the ordering, and keep collecting until every
                # announced bin is in hand.
                expected = next(m.payload for m in msgs
                                if is_sentinel(m.payload))
                got = sum(1 for m in msgs if not is_sentinel(m.payload))
                while got < expected:
                    msgs.extend(comm.collect_raw(
                        src, TAG_REQUEST, lambda p: True,
                    ))
                    got += 1
                raw.extend(msgs)
        raw.sort(key=lambda m: (m.arrival, m.src, m.seq))
        served = iter(self._serve([m.payload for m in raw
                                   if not is_sentinel(m.payload)]))
        for msg in raw:
            comm.charge_recv(msg)
            if is_sentinel(msg.payload):
                continue
            bin_ = msg.payload
            result = ResultBin(slots=bin_.slots, values=next(served))
            comm.send(result, msg.src, tag=TAG_RESULT, nbytes=result.nbytes)
            self.records_served += bin_.n
        for msg in comm.recv_sorted(self.bins_sent_to, TAG_RESULT):
            rbin = msg.payload
            self._accumulate(rbin.slots, rbin.values)
            self.stats.result_records_returned += rbin.n
