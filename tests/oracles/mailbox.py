"""``Mailbox._match_index`` as it stood while ``Message`` was an
``order=True`` dataclass, kept verbatim as the oracle of the scan that
compares ``(arrival, src, seq)`` inline: the earliest matching message
by the dataclass ``<``.  Install with ``monkeypatch.setattr(Mailbox,
"_match_index", match_index_reference)``."""

from __future__ import annotations

from repro.machine.mailbox import ANY_SOURCE, ANY_TAG, Mailbox


def match_index_reference(self: Mailbox, src: int, tag: int) -> int | None:
    best: int | None = None
    for i, m in enumerate(self._messages):
        if src != ANY_SOURCE and m.src != src:
            continue
        if tag != ANY_TAG and m.tag != tag:
            continue
        if best is None or m < self._messages[best]:
            best = i
    return best
