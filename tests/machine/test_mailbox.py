"""Tests for the matched message queues."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.mailbox import Mailbox, Message
from tests.oracles.mailbox import ScanMailbox


def msg(src=0, tag=0, payload=None, arrival=0.0, nbytes=0):
    return Message(arrival=arrival, src=src, tag=tag,
                   payload=payload, nbytes=nbytes)


class TestMatching:
    def test_fifo_per_source_tag(self):
        box = Mailbox(0)
        box.put(msg(src=1, tag=7, payload="a", arrival=1.0))
        box.put(msg(src=1, tag=7, payload="b", arrival=2.0))
        assert box.get(src=1, tag=7).payload == "a"
        assert box.get(src=1, tag=7).payload == "b"

    def test_tag_filtering(self):
        box = Mailbox(0)
        box.put(msg(src=1, tag=1, payload="x"))
        box.put(msg(src=1, tag=2, payload="y"))
        assert box.get(src=1, tag=2).payload == "y"
        assert box.get(src=1, tag=1).payload == "x"

    def test_source_filtering(self):
        box = Mailbox(0)
        box.put(msg(src=2, payload="from2"))
        box.put(msg(src=3, payload="from3"))
        assert box.get(src=3, tag=0).payload == "from3"

    def test_poll_returns_none_when_empty(self):
        assert Mailbox(0).poll(0, 0) is None

    def test_poll_respects_filter(self):
        box = Mailbox(0)
        box.put(msg(src=1, tag=4))
        assert box.poll(src=2, tag=4) is None
        assert box.poll(src=1, tag=0) is None
        assert box.poll(src=1, tag=4) is not None


class TestBlockingAndTimeout:
    def test_get_blocks_until_put(self):
        box = Mailbox(0)
        got = []

        def receiver():
            got.append(box.get(src=1, tag=0).payload)

        t = threading.Thread(target=receiver)
        t.start()
        box.put(msg(src=1, payload=42))
        t.join(timeout=5)
        assert got == [42]

    def test_timeout_raises(self):
        box = Mailbox(0)
        with pytest.raises(TimeoutError, match="deadlock"):
            box.get(src=1, tag=0, timeout=0.05)

    def test_close_wakes_blocked_receiver(self):
        box = Mailbox(3)
        errors = []

        def receiver():
            try:
                box.get(src=1, tag=0, timeout=5)
            except RuntimeError as e:
                errors.append(str(e))

        t = threading.Thread(target=receiver)
        t.start()
        box.close()
        t.join(timeout=5)
        assert errors and "closed" in errors[0]

    def test_put_after_close_rejected(self):
        box = Mailbox(0)
        box.close()
        with pytest.raises(RuntimeError):
            box.put(msg())


_SOURCES, _TAGS = 8, 4
_OPS = st.one_of(
    # put: source, tag, arrival (few values, so ties are common) and a
    # reliable-layer xmit id (repeats are duplicates the box suppresses)
    st.tuples(st.just("put"), st.integers(0, _SOURCES - 1),
              st.integers(0, _TAGS - 1),
              st.sampled_from([0.0, 0.5, 1.0, 2.5]),
              st.one_of(st.none(), st.integers(0, 3))),
    st.tuples(st.sampled_from(["get", "poll"]),
              st.integers(0, _SOURCES - 1), st.integers(0, _TAGS - 1)),
)


def _play(box, ops, seqs):
    """Run a script, returning everything it observed.  ``get`` is only
    issued when its ``(src, tag)`` is queued (it would block otherwise).
    After the script the box is drained stream by stream, and its
    counters are read before and after."""
    seen = []
    for k, op in enumerate(ops):
        if op[0] == "put":
            box.put(Message(arrival=op[3], src=op[1], seq=seqs[k],
                            tag=op[2], payload=k, xmit_id=op[4]))
        else:
            blocking = op[0] == "get" and \
                (op[1], op[2]) in box.pending_summary()
            got = (box.get(op[1], op[2], timeout=5) if blocking
                   else box.poll(op[1], op[2]))
            seen.append(None if got is None else got.payload)
    left = box.pending_summary()
    drained = []
    for src, tag in sorted(left):
        while (m := box.poll(src, tag)) is not None:
            drained.append(m.payload)
    return (seen, left, drained, box.pending_summary(), box.max_pending,
            box.duplicates_suppressed)


class TestScanEqualsOracle:
    """The per-``(src, tag)`` heaps select what the list scan of
    ``ScanMailbox`` selected: same message for every get / poll, same
    queue left behind and drained in the same order, same high-water
    mark and duplicate suppressions — arrival ties and reliable
    duplicates included."""

    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(_OPS, max_size=80), data=st.data())
    def test_random_scripts(self, ops, data):
        # distinct sequence numbers in arbitrary order: ties in arrival
        # and source are broken by seq, not by queue position
        seqs = data.draw(st.permutations(range(len(ops))))
        expected = _play(ScanMailbox(0), ops, seqs)
        assert _play(Mailbox(0), ops, seqs) == expected
