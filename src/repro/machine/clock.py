"""Per-rank virtual clocks with named-phase accounting.

Every rank owns one :class:`VirtualClock`.  The clock only moves when the
algorithm charges it (compute flops, message start-ups, waits until a
message's virtual arrival).  Phase accounting attributes elapsed virtual
time to named phases ("tree build", "force", ...) so the engine can emit
the per-phase breakdown of the paper's Table 3.  A traced rank's clock
also hands every phase block to the rank's
:class:`~repro.machine.trace.RankTrace` — one call per block, which
records it on the virtual clock and, when wall tracing is on, on the
wall clock.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class PhaseTimings:
    """Accumulated virtual seconds per named phase for one rank."""

    seconds: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, dt: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + dt

    def get(self, phase: str) -> float:
        return self.seconds.get(phase, 0.0)

    def total(self) -> float:
        return sum(self.seconds.values())


class VirtualClock:
    """Deterministic virtual clock for one rank.

    The clock starts at 0.  ``advance`` moves it forward by a duration;
    ``wait_until`` moves it forward to an absolute time (no-op if already
    past).  Each movement is attributed to the innermost active phase
    (default phase: ``"other"``).
    """

    DEFAULT_PHASE = "other"

    def __init__(self):
        self.now = 0.0
        self.timings = PhaseTimings()
        self._phase_stack: list[str] = []
        self._deadline: float | None = None
        self._deadline_exc: "Callable[[], BaseException] | None" = None
        #: Optional :class:`~repro.machine.trace.RankTrace` (set by
        #: Comm): records every phase block.  Never charges the clock.
        self._trace = None
        #: Optional ``listener(name_or_None)`` called on phase entry and
        #: exit (``None`` = back to the enclosing phase); used by the
        #: telemetry board.  Never charges the clock.
        self._phase_listener = None

    def set_deadline(self, t: float, exc_factory) -> None:
        """Arm a one-shot deadline: the first charge that moves the clock
        to or past virtual time ``t`` stops exactly there and raises
        ``exc_factory()`` (used to model a rank crash at time ``t``)."""
        if t < self.now:
            raise ValueError(
                f"deadline {t} is already in the past (now={self.now})"
            )
        self._deadline = t
        self._deadline_exc = exc_factory

    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else self.DEFAULT_PHASE

    def advance(self, dt: float) -> None:
        """Move the clock forward by ``dt`` virtual seconds."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt {dt}")
        self.now += dt
        name = self.current_phase
        if self._deadline is not None and self.now >= self._deadline:
            # The rank dies mid-charge: clamp the clock to the deadline so
            # the reported crash time is exact, drop the overshoot from
            # the phase accounting, and disarm (one-shot).
            dt -= self.now - self._deadline
            self.now = self._deadline
            factory = self._deadline_exc
            self._deadline = self._deadline_exc = None
            self.timings.add(name, dt)
            raise factory()
        self.timings.add(name, dt)

    def wait_until(self, t: float) -> None:
        """Move the clock to absolute virtual time ``t`` if it is behind."""
        if t > self.now:
            self.advance(t - self.now)

    @contextmanager
    def phase(self, name: str):
        """Attribute clock movement inside the block to phase ``name``.

        With a trace attached, the block is also recorded as a
        :class:`~repro.machine.trace.PhaseSpan` from the virtual time at
        entry to the virtual time at exit, and on the wall clock when
        the trace has an epoch (exceptional exits included, so a crashed
        rank's last phase still shows in the trace).
        """
        self._phase_stack.append(name)
        trace = self._trace
        listener = self._phase_listener
        t0 = self.now
        w0 = trace.now() if trace is not None else 0.0
        depth = len(self._phase_stack)
        if listener is not None:
            listener(name)
        try:
            yield self
        finally:
            self._phase_stack.pop()
            if trace is not None:
                trace.span(name, t0, self.now, w0, depth)
            if listener is not None:
                listener(self.current_phase)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualClock(now={self.now:.6f})"
