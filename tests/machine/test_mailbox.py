"""Tests for the matched message queues."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.engine import Engine
from repro.machine.mailbox import Mailbox, Message
from repro.machine.transport import LocalTransport
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

    def test_get_of_an_empty_stream_raises(self):
        box = Mailbox(0)
        box.put(msg(src=1, tag=4))
        with pytest.raises(KeyError):
            box.get(src=1, tag=0)

    def test_poll_respects_filter(self):
        box = Mailbox(0)
        box.put(msg(src=1, tag=4))
        assert box.poll(src=2, tag=4) is None
        assert box.poll(src=1, tag=0) is None
        assert box.poll(src=1, tag=4) is not None


class TestBlockingAndTimeout:
    """The mailbox only stores: a thread rank's receive waits in the
    scheduler of ``LocalTransport``, which owns every wait, so these run
    through it.  A receive that can never complete is a deadlock the
    scheduler reports at once, and ``recv_timeout`` is only the watchdog
    for a rank stuck outside the machine (``TestRunToBlock`` in
    ``tests/machine/test_engine.py``)."""

    def test_get_blocks_until_put(self):
        log = []

        def main(comm):
            if comm.rank == 0:              # runs first and parks
                log.append("recv")
                log.append(comm.recv(src=1, tag=0))
            else:
                log.append("put")
                comm.send(42, dst=0, tag=0)

        Engine(2).run(main)
        assert log == ["recv", "put", 42]

    def test_close_wakes_blocked_receiver(self):
        def main(comm):
            if comm.rank == 1:
                raise KeyError("peer failed")
            comm.recv(src=1, tag=0)         # parked before rank 1 runs

        with pytest.raises(RuntimeError, match="peer failed") as info:
            Engine(2).run(main)
        error = info.value.partial_report.ranks[0].error
        assert error.startswith("MailboxClosedError") and "closed" in error

    def test_put_after_close_rejected(self):
        transport = LocalTransport(2)
        transport.close()
        with pytest.raises(RuntimeError):
            transport.endpoint(1).deliver(0, msg(src=1))


_SOURCES, _TAGS = 8, 4
_OPS = st.one_of(
    # put: source, tag, arrival (few values, so ties are common) and the
    # step to the source's next seq (its sends to other ranks fall in
    # the gaps)
    st.tuples(st.just("put"), st.integers(0, _SOURCES - 1),
              st.integers(0, _TAGS - 1),
              st.sampled_from([0.0, 0.5, 1.0, 2.5]),
              st.integers(1, 3)),
    st.tuples(st.sampled_from(["get", "poll"]),
              st.integers(0, _SOURCES - 1), st.integers(0, _TAGS - 1)),
)


def _play(box, ops):
    """Run a script, returning everything it observed.  Each source's
    seqs rise in put order, as a sender's do on either transport.
    ``get`` is only issued when its ``(src, tag)`` is queued (it raises
    otherwise).  After the script the box is drained stream by stream,
    and its high-water mark is read."""
    seen = []
    last_seq: dict[int, int] = {}
    for k, op in enumerate(ops):
        if op[0] == "put":
            src = op[1]
            last_seq[src] = last_seq.get(src, -1) + op[4]
            box.put(Message(arrival=op[3], src=src, seq=last_seq[src],
                            tag=op[2], payload=k))
        else:
            queued = op[0] == "get" and \
                (op[1], op[2]) in box.pending_summary()
            got = (box.get(op[1], op[2]) if queued
                   else box.poll(op[1], op[2]))
            seen.append(None if got is None else got.payload)
    left = box.pending_summary()
    drained = []
    for src, tag in sorted(left):
        while (m := box.poll(src, tag)) is not None:
            drained.append(m.payload)
    return (seen, left, drained, box.pending_summary(), box.max_pending)


class TestScanEqualsOracle:
    """The per-``(src, tag)`` heaps select what the list scan of
    ``ScanMailbox`` selected: same message for every get / poll, same
    queue left behind and drained in the same order, same high-water
    mark — arrival ties included."""

    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(_OPS, max_size=80))
    def test_random_scripts(self, ops):
        # arrivals are drawn apart from seqs: ties in arrival and source
        # are broken by seq, not by queue position
        expected = _play(ScanMailbox(0), ops)
        assert _play(Mailbox(0), ops) == expected
