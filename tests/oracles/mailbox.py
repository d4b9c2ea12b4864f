"""The list-and-scan ``Mailbox`` the per-``(src, tag)`` heaps replaced,
kept (renamed ``ScanMailbox``, and without the wildcards, requeue,
probe and the blocking wait the machine no longer offers) as the oracle
of message selection: every queued message in one list, every ``get`` /
``poll`` a scan for the earliest ``(arrival, src, seq)`` of its
``(src, tag)``.

Install in a whole run with ``monkeypatch.setattr(
repro.machine.transport, "Mailbox", ScanMailbox)``: ``LocalTransport``
then builds one per rank."""

from __future__ import annotations

from repro.machine.mailbox import Message


class ScanMailbox:
    """(src, tag)-matched FIFO message store for one rank."""

    def __init__(self, rank: int):
        self.rank = rank
        self._messages: list[Message] = []
        #: Queue-depth high-water mark (surfaced as a metrics gauge).
        self.max_pending = 0

    def put(self, msg: Message) -> None:
        """Deposit a message."""
        self._messages.append(msg)
        if len(self._messages) > self.max_pending:
            self.max_pending = len(self._messages)

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

    def get(self, src: int, tag: int) -> Message:
        """Remove and return the earliest queued match; ``KeyError``
        when nothing matches."""
        i = self._match_index(src, tag)
        if i is None:
            raise KeyError((src, tag))
        return self._messages.pop(i)

    def poll(self, src: int, tag: int) -> Message | None:
        """Non-blocking matched receive; ``None`` when nothing matches."""
        i = self._match_index(src, tag)
        return self._messages.pop(i) if i is not None else None

    def pending_summary(self) -> dict[tuple[int, int], int]:
        """``(src, tag) -> count`` of queued messages (deadlock reports)."""
        out: dict[tuple[int, int], int] = {}
        for m in self._messages:
            key = (m.src, m.tag)
            out[key] = out.get(key, 0) + 1
        return out
