"""Queue transport between rank processes.

One ``multiprocessing`` queue per rank carries
:class:`~repro.machine.mailbox.Message` records, each pickled whole —
payload included — by its sender at send time.  Each worker drains its
queue into a private in-process
:class:`~repro.machine.mailbox.Mailbox`, which supplies the matched
``(src, tag)`` receive semantics and virtual-arrival ordering — exactly
the structure the in-process
:class:`~repro.machine.transport.LocalTransport` uses, with the pipe in
front.

Determinism: queues are FIFO per producer, so messages from one sender
arrive in send order, across tags — the per-source FIFO guarantee the
local transport gives — and every virtual-time decision was already
priced into the message by the sender.  Which is why the two transports
produce bitwise-identical virtual clocks for the same program.
"""

from __future__ import annotations

import pickle
import queue as _queue
import time
from typing import Any

from repro.machine.comm import DeadlockError
from repro.machine.mailbox import Mailbox, Message
from repro.machine.transport import Endpoint

#: How long one blocking queue read waits before re-checking the
#: watchdog deadline (real seconds; never charges any virtual clock).
_POLL_SECONDS = 0.05


class ProcessTransport:
    """Host-side factory for the per-rank queues of one run.

    Created by the :class:`~repro.runtime.process_engine.ProcessEngine`
    before forking; each worker then builds its own
    :class:`ProcessEndpoint` around the shared queue array.
    """

    def __init__(self, ctx, size: int, recv_timeout: float | None):
        if size <= 0:
            raise ValueError(f"transport size must be positive, got {size}")
        self.size = size
        self.recv_timeout = recv_timeout
        self.queues = [ctx.Queue() for _ in range(size)]

    def endpoint(self, rank: int) -> "ProcessEndpoint":
        """Build rank ``rank``'s endpoint (call inside the worker)."""
        return ProcessEndpoint(rank, self.size, self.queues,
                               self.recv_timeout)

    def close(self) -> None:
        """Retire every queue unread (host teardown, workers gone).

        What is left in a pipe is dropped with it.
        ``cancel_join_thread`` matters on the recovery path: a queue
        whose feeder thread still holds buffered items from a worker
        that was SIGKILL'd must not block host shutdown.
        """
        for q in self.queues:
            try:
                q.close()
                q.cancel_join_thread()
            except (OSError, AttributeError):  # pragma: no cover
                pass


class ProcessEndpoint(Endpoint):
    """One rank process's view of the transport.

    No rank can see that all are blocked, so a receive that outlasts
    ``recv_timeout`` real seconds (``None``: never) raises
    :class:`~repro.machine.comm.DeadlockError` with this rank's mailbox.
    """

    def __init__(self, rank: int, size: int, queues,
                 recv_timeout: float | None):
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} out of range for size {size}")
        self.rank = rank
        self.size = size
        self._recv_timeout = recv_timeout
        self._queues = queues
        #: Decoded-message store: supplies matching and ordering,
        #: identical to the local transport.
        self._box = Mailbox(rank)
        #: The rank's :class:`~repro.machine.trace.RankTrace`, set by the
        #: worker body on a traced run: with wall tracing on, queue puts
        #: and blocking queue reads show up as ``wall:transport`` spans.
        #: Pure wall-side observation — virtual pricing already happened
        #: in Comm before a message reaches the endpoint.
        self.trace = None

    # ------------------------------------------------------------- sending
    def deliver(self, dst: int, msg: Message) -> None:
        if dst == self.rank:
            self._box.put(msg)
            return
        trace = self.trace
        w0 = trace.now() if trace is not None else 0.0
        # Pickle now, not in the queue's feeder thread: the receiver
        # gets the payload as it was at send, whatever the sender does
        # to it next.
        data = pickle.dumps((msg.arrival, msg.seq, msg.tag, msg.nbytes,
                             msg.payload), protocol=pickle.HIGHEST_PROTOCOL)
        self._queues[dst].put((msg.src, data))
        if trace is not None:
            trace.record(f"transport:send dst={dst}", w0, trace.now(),
                         depth=2, cat="wall:transport")

    # ----------------------------------------------------------- receiving
    def _accept(self, item: Any) -> None:
        src, data = item
        arrival, seq, tag, nbytes, payload = pickle.loads(data)
        self._box.put(Message(arrival=arrival, src=src, seq=seq, tag=tag,
                              payload=payload, nbytes=nbytes))

    def _drain_pending(self) -> None:
        """Move everything already sitting in the pipe into the mailbox."""
        q = self._queues[self.rank]
        while True:
            try:
                item = q.get_nowait()
            except _queue.Empty:
                return
            self._accept(item)

    def get(self, src: int, tag: int) -> Message:
        timeout = self._recv_timeout
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        q = self._queues[self.rank]
        trace = self.trace
        w0 = trace.now() if trace is not None else 0.0
        blocked = False
        while True:
            self._drain_pending()
            msg = self._box.poll(src, tag)
            if msg is not None:
                if blocked and trace is not None:
                    # Only record genuinely blocking receives — a hit in
                    # the local mailbox is not a transport wait.
                    trace.record(f"transport:recv-wait src={src}",
                                 w0, trace.now(), depth=2,
                                 cat="wall:transport")
                return msg
            blocked = True
            wait = _POLL_SECONDS
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlockError(
                        self.rank, src, tag, timeout=timeout,
                        summaries={self.rank: self._box.pending_summary()})
                wait = min(wait, remaining)
            try:
                item = q.get(timeout=wait)
            except _queue.Empty:
                continue
            self._accept(item)
