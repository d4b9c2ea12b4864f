"""Transport abstraction: how messages move between ranks.

:class:`~repro.machine.comm.Comm` charges virtual time for every send
and receive, but the mechanics of moving a :class:`Message` from one
rank to another are a separate concern — in-process mailboxes for the
thread-per-rank virtual engine, pickles over OS pipes for the
process-per-rank runtime (:mod:`repro.runtime`).  This module defines
the seam between the two:

* :class:`Endpoint` — the per-rank interface ``Comm`` talks to: deposit
  a message at a destination, a blocking ``(src, tag)`` receive on the
  own queue, and the queue-depth high-water mark the engine reads after
  a run.
* :class:`LocalTransport` — the in-process backend: one
  :class:`~repro.machine.mailbox.Mailbox` per rank, and the scheduler
  that decides which thread rank runs.

Virtual-cost neutrality is the design invariant: a transport only moves
already-priced messages, it never charges any clock.  Two backends fed
the same program therefore produce bitwise-identical virtual times.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from heapq import heappop, heappush

from repro.machine.comm import DeadlockError
from repro.machine.mailbox import Mailbox, MailboxClosedError, Message


class Endpoint(ABC):
    """One rank's view of a transport.

    ``Comm`` is written against exactly this surface; any backend that
    implements it can run the rank programs unchanged, provided it
    deposits each message at its receiver exactly once, and each
    sender's messages in send order, across tags.
    """

    rank: int
    size: int
    #: This rank's own message store.
    _box: Mailbox

    # ------------------------------------------------------------- sending
    @abstractmethod
    def deliver(self, dst: int, msg: Message) -> None:
        """Deposit ``msg`` at rank ``dst`` (called from the sender)."""

    # ----------------------------------------------------------- receiving
    @abstractmethod
    def get(self, src: int, tag: int) -> Message:
        """Blocking ``(src, tag)`` receive from the own queue.

        Raises :class:`~repro.machine.comm.DeadlockError` when the
        receive can never be satisfied and
        :class:`~repro.machine.mailbox.MailboxClosedError` after a peer
        failed.
        """

    # ------------------------------------------------------------ counters
    @property
    def max_pending(self) -> int:
        """Queue-depth high-water mark."""
        return self._box.max_pending


class LocalTransport:
    """The in-process backend: one mailbox per rank, one scheduler.

    This is the transport the thread-per-rank virtual
    :class:`~repro.machine.engine.Engine` runs on.  Thread ranks *run to
    block*, and the scheduler here owns every wait: exactly one rank
    runs, and it runs until its program returns or it receives from an
    empty stream.  Every other rank is parked on the one ``(src, tag)``
    it receives, runnable, or done.

    * A deposit into the stream a rank is parked on makes it runnable —
      one tuple compare; it wakes nobody.
    * A rank that parks or finishes hands the run to the lowest-numbered
      runnable rank, by setting that rank's own :class:`threading.Event`.
    * With no rank runnable and one parked, no rank can ever run again:
      every parked rank is handed the run in turn and raises
      :class:`~repro.machine.comm.DeadlockError` at once, each with the
      same report.
    * After :meth:`close` (a rank failed) every parked rank is handed the
      run in turn to raise :class:`~repro.machine.mailbox.MailboxClosedError`,
      as does every later send or empty receive.

    All scheduler state is touched only by the rank that holds the run,
    so none of it needs a lock.  A rank program that blocks on anything
    else keeps the run and stalls every rank: rendezvous through the
    machine (:func:`repro.machine.collectives.barrier`), never on a bare
    ``threading`` primitive.  ``recv_timeout`` (real seconds, ``None`` =
    never) is the watchdog for that mistake: once no rank has been
    handed the run for that long, the scheduler stops — every waiting
    rank raises instead of running, a receive with a
    :class:`~repro.machine.comm.DeadlockError` — and the stuck rank's
    next send or receive finds the transport closed.
    """

    def __init__(self, size: int, recv_timeout: float | None = None):
        if size <= 0:
            raise ValueError(f"transport size must be positive, got {size}")
        self.size = size
        self.recv_timeout = recv_timeout
        self.mailboxes = [Mailbox(r) for r in range(size)]
        #: Per rank: the ``(src, tag)`` it is parked on, or ``None``.
        self._parked: list[tuple[int, int] | None] = [None] * size
        #: Heap of the ranks waiting for the run; every rank starts here.
        self._runnable = list(range(size))
        self._turn = [threading.Event() for _ in range(size)]
        #: Hand-offs so far: the watchdog's evidence that the run moves.
        self._handoffs = 0
        self._closed = False
        self._stalled = False
        #: ``(parked, summaries)`` once no rank can run.
        self._deadlock: tuple[list, dict] | None = None

    def endpoint(self, rank: int) -> "LocalEndpoint":
        return LocalEndpoint(self, rank)

    # -------------------------------------------------------- the run
    def hand_on(self) -> None:
        """Give the run to the lowest-numbered runnable rank: the first
        run of all, and the run of a rank that parks or finishes."""
        if self._stalled:
            return
        if not self._runnable and any(self._parked):
            self._deadlock = (list(self._parked),
                              {r: box.pending_summary()
                               for r, box in enumerate(self.mailboxes)})
            self._unpark_all()
        if self._runnable:
            self._handoffs += 1
            self._turn[heappop(self._runnable)].set()

    def _unpark_all(self) -> None:
        for r, wait in enumerate(self._parked):
            if wait is not None:
                self._parked[r] = None
                heappush(self._runnable, r)

    def await_turn(self, rank: int) -> None:
        """Block ``rank``'s thread until it is handed the run.

        Raises :class:`~repro.machine.mailbox.MailboxClosedError` when
        the watchdog finds the run stalled (see the class docstring).
        """
        turn = self._turn[rank]
        seen = self._handoffs
        while not turn.wait(self.recv_timeout):
            if self._stalled or self._handoffs == seen:
                self._stalled = self._closed = True
                raise MailboxClosedError(
                    f"rank {rank}: no rank was handed the run for "
                    f"{self.recv_timeout}s — the running rank is blocked "
                    f"outside the machine")
            seen = self._handoffs
        turn.clear()

    def close(self) -> None:
        """A rank failed: release every parked rank with an error."""
        if not self._closed:
            self._closed = True
            self._unpark_all()

    # ----------------------------------------------------- messaging
    def deliver(self, dst: int, msg: Message) -> None:
        if self._closed:
            raise MailboxClosedError(
                f"mailbox of rank {dst} is closed (engine shut down)")
        self.mailboxes[dst].put(msg)
        if self._parked[dst] == (msg.src, msg.tag):
            self._parked[dst] = None
            heappush(self._runnable, dst)

    def receive(self, rank: int, src: int, tag: int) -> Message:
        box = self.mailboxes[rank]
        while (msg := box.poll(src, tag)) is None:
            if self._deadlock is not None:
                raise DeadlockError(rank, src, tag, *self._deadlock)
            if self._closed:
                raise MailboxClosedError(
                    f"rank {rank}: receive on closed mailbox")
            self._parked[rank] = (src, tag)
            self.hand_on()
            try:
                self.await_turn(rank)
            except MailboxClosedError as exc:
                raise DeadlockError(
                    rank, src, tag, timeout=self.recv_timeout,
                    summaries={rank: box.pending_summary()}) from exc
        return msg


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
        self._transport.deliver(dst, msg)

    def get(self, src: int, tag: int) -> Message:
        return self._transport.receive(self.rank, src, tag)
