"""Tests for the structured deadlock diagnostics and typed mailbox errors."""

import pytest

from repro.machine.comm import DeadlockError
from repro.machine.engine import Engine
from repro.machine.mailbox import Mailbox, MailboxClosedError, Message
from repro.machine.profiles import ZERO_COST


class TestDeadlockError:
    def test_deadlocked_program_raises_not_hangs(self):
        """A 2-rank cross-wait must raise and name the blocked (src, tag)."""
        def main(comm):
            if comm.rank == 0:
                comm.recv(src=1, tag=5)
            else:
                comm.recv(src=0, tag=6)

        with pytest.raises(DeadlockError) as ei:
            Engine(2, ZERO_COST, recv_timeout=0.3).run(main)
        err = ei.value
        assert "deadlock" in str(err)
        # The raising rank names its own blocked receive...
        assert (err.src, err.tag) in {(1, 5), (0, 6)}
        # ...and the report covers both ranks' waits.
        assert "recv(src=1, tag=5)" in str(err)
        assert "recv(src=0, tag=6)" in str(err)

    def test_report_includes_mailbox_holdings(self):
        """An unmatched queued message shows up in the deadlock report."""
        def main(comm):
            if comm.rank == 0:
                comm.send("stray", dst=1, tag=99)
                comm.recv(src=1, tag=5)
            else:
                comm.recv(src=0, tag=6)  # tag 99 sits unmatched

        with pytest.raises(DeadlockError) as ei:
            Engine(2, ZERO_COST, recv_timeout=0.3).run(main)
        assert "tag=99" in str(ei.value)

    def test_blocked_attribute_is_structured(self):
        def main(comm):
            comm.recv(src=(comm.rank + 1) % 2, tag=7)

        with pytest.raises(DeadlockError) as ei:
            Engine(2, ZERO_COST, recv_timeout=0.3).run(main)
        blocked = ei.value.blocked
        assert blocked is not None and len(blocked) == 2
        # The raising rank recorded its wait; every non-None entry is a
        # (src, tag) pair of this cross-wait.
        assert any(w is not None for w in blocked)
        for r, w in enumerate(blocked):
            if w is not None:
                assert w == ((r + 1) % 2, 7)

    def test_deadlock_error_is_runtime_error(self):
        """Old callers catching RuntimeError keep working."""
        assert issubclass(DeadlockError, RuntimeError)


class TestMailboxClosedError:
    def test_typed_error_on_closed_put_and_get(self):
        box = Mailbox(0)
        box.close()
        with pytest.raises(MailboxClosedError):
            box.put(Message(arrival=0.0, src=1))
        with pytest.raises(MailboxClosedError):
            box.get(src=1, tag=0, timeout=1.0)

    def test_root_cause_selection_is_not_string_matched(self):
        """A user error whose message contains "mailbox" must still be
        chosen as the primary failure over secondary closed-mailbox
        releases (the old string match was defeated by this)."""
        def main(comm):
            if comm.rank == 0:
                raise ValueError("the mailbox gods are angry")
            comm.recv(src=0, tag=1)

        with pytest.raises(RuntimeError,
                           match="rank 0.*mailbox gods are angry"):
            Engine(2, ZERO_COST, recv_timeout=30.0).run(main)

    def test_pending_summary_counts_by_src_and_tag(self):
        box = Mailbox(0)
        box.put(Message(arrival=0.0, src=1, tag=4))
        box.put(Message(arrival=1.0, src=1, tag=4))
        box.put(Message(arrival=0.5, src=2, tag=9))
        assert box.pending_summary() == {(1, 4): 2, (2, 9): 1}
