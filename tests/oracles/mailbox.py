"""The list-and-scan ``Mailbox`` the per-``(src, tag)`` heaps replaced,
kept (renamed ``ScanMailbox``, and without the wildcards, requeue and
probe the machine no longer offers) as the oracle of message
selection: every queued message in one list, every ``get`` / ``poll``
a scan for the earliest ``(arrival, src, seq)`` of its ``(src, tag)``.

Install in a whole run with ``monkeypatch.setattr(
repro.machine.transport, "Mailbox", ScanMailbox)``: ``LocalTransport``
then builds one per rank."""

from __future__ import annotations

import threading

from repro.machine.mailbox import MailboxClosedError, Message


class ScanMailbox:
    """Blocking, (src, tag)-matched FIFO message store for one rank."""

    def __init__(self, rank: int, baton: threading.Lock | None = None):
        self.rank = rank
        #: The run-to-block lock of ``LocalTransport`` (or none: the box
        #: only queues); not held exactly while parked in :meth:`get`.
        self._baton = baton
        self.holds_baton = baton is not None
        self._messages: list[Message] = []
        self._cond = threading.Condition()
        self._closed = False
        self._seen_xmits: set[tuple[int, int]] = set()
        #: Duplicate copies discarded on deposit (reliable layer).
        self.duplicates_suppressed = 0
        #: Queue-depth high-water mark (surfaced as a metrics gauge).
        self.max_pending = 0

    def put(self, msg: Message) -> None:
        """Deposit a message (called from the sender's thread).

        Messages carrying a reliable-delivery ``xmit_id`` are
        deduplicated here: the network may deliver several copies of one
        logical message, but only the first reaches the matching queues.
        The receiver pays nothing for a suppressed copy (a header-only
        discard); the sender already paid its channel charge.
        """
        with self._cond:
            if self._closed:
                raise MailboxClosedError(
                    f"mailbox of rank {self.rank} is closed (engine shut down)"
                )
            if msg.xmit_id is not None:
                key = (msg.src, msg.xmit_id)
                if key in self._seen_xmits:
                    self.duplicates_suppressed += 1
                    return
                self._seen_xmits.add(key)
            self._messages.append(msg)
            if len(self._messages) > self.max_pending:
                self.max_pending = len(self._messages)
            self._cond.notify_all()

    def _match_index(self, src: int, tag: int) -> int | None:
        # Message.__lt__ spelled out on locals: the dataclass builds two
        # tuples per comparison, and this scan is the mailbox's hot loop.
        best: int | None = None
        arrival = source = seq = 0
        for i, m in enumerate(self._messages):
            if m.src != src or m.tag != tag:
                continue
            if best is None or m.arrival < arrival or (
                    m.arrival == arrival and (m.src < source or (
                        m.src == source and m.seq < seq))):
                best, arrival, source, seq = i, m.arrival, m.src, m.seq
        return best

    def get(self, src: int, tag: int,
            timeout: float | None = None) -> Message:
        """Block until a matching message is available and remove it.

        Raises
        ------
        TimeoutError
            When ``timeout`` (real seconds) elapses first — the engine uses
            this as a deadlock watchdog — or when the baton cannot be
            retaken within it (its holder is blocked outside ``get``).
        """
        try:
            with self._cond:
                while True:
                    i = self._match_index(src, tag)
                    if i is not None:
                        return self._messages.pop(i)
                    if self._closed:
                        raise MailboxClosedError(
                            f"rank {self.rank}: receive on closed mailbox"
                        )
                    if self.holds_baton:
                        self.holds_baton = False
                        self._baton.release()
                    if not self._cond.wait(timeout=timeout):
                        raise self._late(src, tag, timeout)
        finally:
            # Retaken outside the mailbox lock: the baton's holder may be
            # depositing here, waiting for that very lock.
            if self._baton is not None and not self.holds_baton:
                self.holds_baton = self._baton.acquire(
                    timeout=-1 if timeout is None else timeout)
                if not self.holds_baton:
                    raise self._late(src, tag, timeout, ": could not resume, "
                                     "the running rank is blocked elsewhere")

    def _late(self, src, tag, timeout, why="") -> TimeoutError:
        return TimeoutError(
            f"rank {self.rank}: recv(src={src}, tag={tag}) timed out after "
            f"{timeout}s — likely deadlock{why}")

    def poll(self, src: int, tag: int) -> Message | None:
        """Non-blocking matched receive; ``None`` when nothing matches."""
        with self._cond:
            i = self._match_index(src, tag)
            return self._messages.pop(i) if i is not None else None

    def pending_summary(self) -> dict[tuple[int, int], int]:
        """``(src, tag) -> count`` of queued messages (deadlock reports)."""
        with self._cond:
            out: dict[tuple[int, int], int] = {}
            for m in self._messages:
                key = (m.src, m.tag)
                out[key] = out.get(key, 0) + 1
            return out

    def close(self) -> None:
        """Wake all blocked receivers with an error (engine teardown)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
