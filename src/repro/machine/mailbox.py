"""Tag-matched message queues for the virtual machine.

One :class:`Mailbox` per rank.  A message carries its payload, its wire
size in bytes and its *virtual arrival time* (computed by the sender from
its own clock and the cost model), so receivers can charge their clocks
deterministically regardless of real thread scheduling.

Every receive names its ``(src, tag)`` and takes the earliest
``(arrival, seq)`` message of that stream from the stream's own heap:
one dict lookup and O(log k) in the k messages of the stream, however
many other messages are pending.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any


class SeqCounter:
    """An ``itertools.count`` whose next value can be read and re-seeded.

    The process backend gives each rank worker its own counter (seeded at
    ``rank << SEQ_SHIFT``), and rollback recovery must continue numbering
    exactly where the crashed attempt's checkpoint left off — otherwise
    restored pre-boundary trace events and re-executed post-boundary
    events would collide on ``seq``.  ``itertools.count`` cannot be
    inspected, so workers swap in this class; the iterator protocol is
    all ``Message`` needs.
    """

    __slots__ = ("value",)

    def __init__(self, start: int = 0):
        self.value = start

    def __iter__(self):
        return self

    def __next__(self) -> int:
        v = self.value
        self.value = v + 1
        return v


_seq_counter = itertools.count()


class MailboxClosedError(RuntimeError):
    """Raised for a send or a receive on a thread rank after a peer failed.

    Typed (rather than a bare ``RuntimeError``) so the engine's root-cause
    selection can distinguish the rank that *caused* a failure from the
    ranks that merely got released when the transport closed.
    """


@dataclass(order=True)
class Message:
    """One in-flight message.

    Ordered by ``(arrival, src, seq)``: a receive takes the earliest
    *virtual* arrival of its stream, and ``Comm.recv_sorted`` orders a
    whole drain the same way, which keeps virtual timing independent of
    thread interleaving.
    """

    arrival: float
    src: int
    seq: int = field(default_factory=lambda: next(_seq_counter))
    tag: int = field(compare=False, default=0)
    payload: Any = field(compare=False, default=None)
    nbytes: int = field(compare=False, default=0)
    #: Transmission id (src-local), stamped on every send under a fault
    #: plan; duplicate copies of one logical message share it so the
    #: destination mailbox can suppress all but the first.  ``None`` on
    #: a run without a plan and for local sends.
    xmit_id: int | None = field(compare=False, default=None)


class Mailbox:
    """(src, tag)-matched message store for one rank.

    Queued messages live in one heap per ``(src, tag)``, keyed
    ``(arrival, src, seq)``; a heap is dropped when it empties.  A
    receive of ``(src, tag)`` pops that heap's head.  ``seq`` is unique,
    so the choice never depends on deposit order — nor, therefore, on
    thread interleaving.

    The store never blocks and takes no lock: exactly one thread touches
    it at a time.  A thread rank waits in the scheduler of
    :class:`~repro.machine.transport.LocalTransport`, a process rank in
    its pipe.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self._heaps: dict[tuple[int, int],
                          list[tuple[float, int, int, Message]]] = {}
        self._pending = 0
        self._seen_xmits: set[tuple[int, int]] = set()
        #: Duplicate copies discarded on deposit.
        self.duplicates_suppressed = 0
        #: Queue-depth high-water mark (surfaced as a metrics gauge).
        self.max_pending = 0

    def put(self, msg: Message) -> None:
        """Deposit a message.

        Messages carrying a transmission ``xmit_id`` are
        deduplicated here: the network may deliver several copies of one
        logical message, but only the first reaches the matching queues.
        The receiver pays nothing for a suppressed copy (a header-only
        discard); the sender already paid its channel charge.
        """
        if msg.xmit_id is not None:
            xmit = (msg.src, msg.xmit_id)
            if xmit in self._seen_xmits:
                self.duplicates_suppressed += 1
                return
            self._seen_xmits.add(xmit)
        # The key is spelled out in the entry: heap comparisons then stay
        # on plain tuples and never reach Message.__lt__ (seq is unique).
        entry = (msg.arrival, msg.src, msg.seq, msg)
        key = (msg.src, msg.tag)
        heap = self._heaps.get(key)
        if heap is None:
            self._heaps[key] = [entry]
        else:
            heappush(heap, entry)
        self._pending += 1
        if self._pending > self.max_pending:
            self.max_pending = self._pending

    def get(self, src: int, tag: int) -> Message:
        """Remove and return the earliest queued ``(src, tag)`` message;
        ``KeyError`` when the stream is empty."""
        key = (src, tag)
        heap = self._heaps[key]
        msg = heappop(heap)[3]
        if not heap:
            del self._heaps[key]
        self._pending -= 1
        return msg

    def poll(self, src: int, tag: int) -> Message | None:
        """:meth:`get`, or ``None`` when no ``(src, tag)`` message is
        queued."""
        return self.get(src, tag) if (src, tag) in self._heaps else None

    def pending_summary(self) -> dict[tuple[int, int], int]:
        """``(src, tag) -> count`` of queued messages (deadlock reports)."""
        return {key: len(heap) for key, heap in self._heaps.items()}
