"""Transport abstraction: how messages move between ranks.

:class:`~repro.machine.comm.Comm` charges virtual time for every send
and receive, but the mechanics of moving a :class:`Message` from one
rank to another are a separate concern — in-process mailboxes for the
thread-per-rank virtual engine, OS pipes plus shared memory for the
process-per-rank runtime (:mod:`repro.runtime`).  This module defines
the seam between the two:

* :class:`Endpoint` — the per-rank interface ``Comm`` talks to: deposit
  a message at a destination, a blocking ``(src, tag)`` receive on the
  own queue, a wait advertisement for deadlock reports, and the mailbox
  counters the engine reads after a run.
* :class:`LocalTransport` — the original in-process backend: one
  :class:`~repro.machine.mailbox.Mailbox` per rank behind each endpoint,
  plus the shared machine-wide "who is blocked on what" board.

Virtual-cost neutrality is the design invariant: a transport only moves
already-priced messages, it never charges any clock.  Two backends fed
the same program therefore produce bitwise-identical virtual times.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod

from repro.machine.mailbox import Mailbox, Message


class Endpoint(ABC):
    """One rank's view of a transport.

    ``Comm`` is written against exactly this surface; any backend that
    implements it (and preserves per-``(src, tag)`` FIFO order between a
    sender and a receiver) can run the rank programs unchanged.
    """

    rank: int
    size: int

    # ------------------------------------------------------------- sending
    @abstractmethod
    def deliver(self, dst: int, msg: Message) -> None:
        """Deposit ``msg`` at rank ``dst`` (called from the sender)."""

    # ----------------------------------------------------------- receiving
    @abstractmethod
    def get(self, src: int, tag: int, timeout: float | None) -> Message:
        """Blocking ``(src, tag)`` receive from the own queue.

        Raises ``TimeoutError`` when ``timeout`` real seconds elapse
        (the deadlock watchdog) and
        :class:`~repro.machine.mailbox.MailboxClosedError` after engine
        teardown.
        """

    # ------------------------------------------------- deadlock diagnostics
    def set_wait(self, wait: tuple[int, int] | None) -> None:
        """Advertise that this rank is blocked on ``(src, tag)`` (or not).

        Backends without a shared board may ignore this.
        """

    def deadlock_snapshot(self):
        """``(waits, summaries)`` for a deadlock report.

        ``waits`` is a per-rank list of blocked ``(src, tag)`` pairs (or
        ``None`` where unknown / not blocked); ``summaries`` maps rank ->
        ``(src, tag) -> count`` of queued messages.  A backend with no
        machine-wide view returns what it knows about its own rank only.
        """
        return None, {}

    # ------------------------------------------------------------ counters
    @property
    @abstractmethod
    def duplicates_suppressed(self) -> int:
        """Reliable-layer duplicate copies discarded on deposit."""

    @property
    @abstractmethod
    def max_pending(self) -> int:
        """Queue-depth high-water mark."""


class LocalTransport:
    """The in-process backend: one shared mailbox array, one waits board.

    This is the transport the thread-per-rank virtual
    :class:`~repro.machine.engine.Engine` runs on; it is exactly the old
    hard-wired ``list[Mailbox]`` plumbing behind the :class:`Endpoint`
    interface.

    Thread ranks *run to block*: a rank's thread holds :attr:`baton`
    while its program runs and gives it up only to wait inside
    ``Mailbox.get``, so exactly one rank executes between blocking
    receives — what the GIL allowed anyway, minus its forced hand-offs.
    Whatever else a rank blocks on must release the baton around the
    wait, or block through the mailbox.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"transport size must be positive, got {size}")
        self.size = size
        self.baton = threading.Lock()
        self.mailboxes = [Mailbox(r, self.baton) for r in range(size)]
        #: per-rank "currently blocked on (src, tag)" board.
        self.waits: list[tuple[int, int] | None] = [None] * size

    def endpoint(self, rank: int) -> "LocalEndpoint":
        return LocalEndpoint(self, rank)

    def close_all(self) -> None:
        """Wake every blocked receiver with an error (engine teardown)."""
        for box in self.mailboxes:
            box.close()


class LocalEndpoint(Endpoint):
    """One rank's handle on a :class:`LocalTransport`."""

    def __init__(self, transport: LocalTransport, rank: int):
        if not 0 <= rank < transport.size:
            raise ValueError(
                f"rank {rank} out of range for size {transport.size}"
            )
        self._transport = transport
        self._box = transport.mailboxes[rank]
        self.rank = rank
        self.size = transport.size

    def deliver(self, dst: int, msg: Message) -> None:
        self._transport.mailboxes[dst].put(msg)

    def get(self, src: int, tag: int, timeout: float | None) -> Message:
        return self._box.get(src, tag, timeout=timeout)

    def set_wait(self, wait: tuple[int, int] | None) -> None:
        self._transport.waits[self.rank] = wait

    def deadlock_snapshot(self):
        t = self._transport
        return (list(t.waits),
                {r: t.mailboxes[r].pending_summary()
                 for r in range(t.size)})

    @property
    def duplicates_suppressed(self) -> int:
        return self._box.duplicates_suppressed

    @property
    def max_pending(self) -> int:
        return self._box.max_pending
