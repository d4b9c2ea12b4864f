"""Tag-matched message queues for the virtual machine.

One :class:`Mailbox` per rank.  A message carries its payload, its wire
size in bytes and its *virtual arrival time* (computed by the sender from
its own clock and the cost model), so receivers can charge their clocks
deterministically regardless of real thread scheduling.

Every receive names its ``(src, tag)`` and takes the earliest
``(arrival, seq)`` message of that stream from the stream's own heap:
one dict lookup and O(log k) in the k messages of the stream, however
many other messages are pending.

A message's ``seq`` is its position in its sender's stream: each
:class:`~repro.machine.comm.Comm` numbers its own sends from 0, and
both transports deliver every message exactly once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any


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
    #: Stamped by the sending ``Comm``.  A message built by hand gets the
    #: next value of one rising count, so its ``seq`` is unique too.
    seq: int = field(default_factory=itertools.count().__next__)
    tag: int = field(compare=False, default=0)
    payload: Any = field(compare=False, default=None)
    nbytes: int = field(compare=False, default=0)


class Mailbox:
    """(src, tag)-matched message store for one rank.

    Queued messages live in one heap per ``(src, tag)``, keyed
    ``(arrival, src, seq)``; a heap is dropped when it empties.  A
    receive of ``(src, tag)`` pops that heap's head.  ``seq`` is unique
    per source, so the choice never depends on deposit order — nor,
    therefore, on thread interleaving.

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
        #: Queue-depth high-water mark (surfaced as a metrics gauge).
        self.max_pending = 0

    def put(self, msg: Message) -> None:
        """Deposit a message."""
        # The key is spelled out in the entry: heap comparisons then stay
        # on plain tuples and never reach Message.__lt__ (a source's seqs
        # are unique).
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
