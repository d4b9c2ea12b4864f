"""Tests for the virtual clock and phase accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.machine.clock import PhaseTimings, VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_accumulates(self):
        c = VirtualClock()
        c.advance(1.5)
        c.advance(2.5)
        assert c.now == pytest.approx(4.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_wait_until_future(self):
        c = VirtualClock()
        c.wait_until(3.0)
        assert c.now == 3.0

    def test_wait_until_past_is_noop(self):
        c = VirtualClock()
        c.advance(5.0)
        c.wait_until(3.0)
        assert c.now == 5.0

    def test_default_phase_attribution(self):
        c = VirtualClock()
        c.advance(2.0)
        assert c.timings.get("other") == pytest.approx(2.0)

    def test_phase_context(self):
        c = VirtualClock()
        with c.phase("force"):
            c.advance(1.0)
            with c.phase("comm"):
                c.advance(0.5)
            c.advance(0.25)
        c.advance(1.0)
        assert c.timings.get("force") == pytest.approx(1.25)
        assert c.timings.get("comm") == pytest.approx(0.5)
        assert c.timings.get("other") == pytest.approx(1.0)
        assert c.current_phase == "other"

    def test_phase_stack_restored_on_exception(self):
        c = VirtualClock()
        with pytest.raises(RuntimeError):
            with c.phase("bad"):
                raise RuntimeError("boom")
        assert c.current_phase == "other"

    def test_explicit_phase_override(self):
        """The innermost phase block takes the time."""
        c = VirtualClock()
        with c.phase("force"), c.phase("io"):
            c.advance(1.0)
        assert c.timings.get("io") == pytest.approx(1.0)
        assert c.timings.get("force") == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), max_size=50))
    def test_total_equals_now(self, steps):
        c = VirtualClock()
        for i, dt in enumerate(steps):
            with c.phase(f"p{i % 3}"):
                c.advance(dt)
        assert c.timings.total() == pytest.approx(c.now)


class TestPhaseTimings:
    def test_add_and_get(self):
        t = PhaseTimings()
        t.add("a", 1.0)
        t.add("a", 2.0)
        assert t.get("a") == pytest.approx(3.0)
        assert t.get("missing") == 0.0

    def test_total(self):
        assert PhaseTimings({"a": 1.0, "b": 2.5}).total() == pytest.approx(3.5)
