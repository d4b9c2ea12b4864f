"""Span tracing for the virtual machine, on the virtual timebase.

A :class:`Tracer` attached to an :class:`~repro.machine.engine.Engine`
turns every phase interval and every message into a structured event:

* :class:`PhaseSpan` — one ``clock.phase(...)`` block on one rank, from
  the virtual time at entry to the virtual time at exit (nested blocks
  produce nested spans; ``cat="step"`` spans mark whole time-steps).
* :class:`SendEvent` — one ``Comm.send``: channel-charge begin/end on
  the sender's clock, the message's virtual arrival at the destination,
  and its fault disposition (drops eaten by the network, retransmission
  count, duplication, extra delay, or outright loss).
* :class:`RecvEvent` — one matched receive: the receiver's clock before
  the arrival wait, the arrival itself, the clock after the copy-out
  charge, and whether the receive actually *waited* (i.e. the arrival
  bound the receiver's clock rather than the other way round).

A message is identified by ``(src, seq)``: each rank numbers its own
sends, and the send and receive events of one message carry its
``seq``, so the event graph can be stitched across ranks — that is what
:mod:`repro.analysis.critical_path` walks.  The numbering is a function
of each rank's program alone, so identical runs, either backend and a
recovered run number every message alike.

Overhead neutrality: tracing never charges any virtual clock.  The
default is no tracer at all (``tracer=None`` throughout the machine);
every hook is behind an ``is not None`` check, so an untraced run
executes the exact same sequence of clock charges as before the tracer
existed and its virtual times are bitwise identical.

Each rank's thread appends only to its own per-rank event lists, so the
tracer needs no locking and adds no cross-thread synchronisation.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any


@dataclass
class PhaseSpan:
    """One phase block on one rank's virtual timeline."""

    rank: int
    name: str
    t0: float
    t1: float
    depth: int = 1          # nesting depth (1 = outermost)
    cat: str = "phase"      # "phase" | "step"

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class SendEvent:
    """One ``Comm.send`` as seen from the sender."""

    seq: int                # Message.seq (a duplicate copy shares it)
    src: int
    dst: int
    tag: int
    nbytes: int
    t_begin: float          # sender clock before the channel charge(s)
    t_end: float            # sender clock after the charge(s)
    arrival: float          # virtual arrival at dst (== t_end for local)
    drops: int = 0          # transmissions the network ate before success
    retries: int = 0        # retransmissions performed
    duplicate: bool = False  # this event IS the extra network copy
    extra_delay: float = 0.0


@dataclass
class RecvEvent:
    """One matched receive as seen from the receiver."""

    seq: int
    rank: int               # receiving rank
    src: int
    tag: int
    nbytes: int
    t_begin: float          # receiver clock before the arrival wait
    arrival: float
    t_end: float            # receiver clock after the copy-out charge
    waited: bool            # arrival > t_begin: the message bound the clock


class WallRecorder:
    """Collects wall-clock :class:`PhaseSpan` events for one rank.

    The second half of the dual-clock trace: where the virtual tracer
    records what the *cost model* says a phase took, a wall recorder
    records what the *hardware* said.  Spans are measured on
    ``time.monotonic()`` relative to a run epoch the host fixes before
    spawning workers — ``CLOCK_MONOTONIC`` is system-wide on Linux, so
    every rank process shares one timeline and the per-rank wall tracks
    line up in the exported trace.

    Wall recording never touches a virtual clock; an instrumented run's
    virtual accounting is bitwise identical to an uninstrumented one.
    """

    __slots__ = ("rank", "epoch", "spans")

    def __init__(self, rank: int, epoch: float | None = None):
        self.rank = rank
        self.epoch = time.monotonic() if epoch is None else epoch
        self.spans: list[PhaseSpan] = []

    def now(self) -> float:
        """Wall seconds since the run epoch."""
        return time.monotonic() - self.epoch

    def record(self, name: str, t0: float, t1: float, depth: int = 1,
               cat: str = "wall:phase") -> None:
        self.spans.append(PhaseSpan(rank=self.rank, name=name, t0=t0,
                                    t1=t1, depth=depth, cat=cat))

    def mark(self, name: str, cat: str = "wall:phase") -> None:
        """Record a zero-duration marker span at the current wall time."""
        t = self.now()
        self.record(name, t, t, cat=cat)

    @contextmanager
    def timed(self, name: str, depth: int = 1, cat: str = "wall:phase"):
        """Record the block as one wall span (exceptional exits too)."""
        t0 = self.now()
        try:
            yield self
        finally:
            self.record(name, t0, self.now(), depth=depth, cat=cat)


@dataclass
class Trace:
    """The finished event record of one engine run.

    ``phases``/``sends``/``recvs`` live on the virtual timebase;
    ``wall_phases`` (empty unless wall recording was enabled) holds each
    rank's measured wall-clock spans on the run-epoch timebase.
    """

    size: int
    phases: list[list[PhaseSpan]]
    sends: list[list[SendEvent]]
    recvs: list[list[RecvEvent]]
    final_times: list[float] = field(default_factory=list)
    wall_phases: list[list[PhaseSpan]] = field(default_factory=list)

    # ------------------------------------------------------------ queries
    def all_phases(self) -> list[PhaseSpan]:
        return [s for per_rank in self.phases for s in per_rank]

    def all_sends(self) -> list[SendEvent]:
        return [s for per_rank in self.sends for s in per_rank]

    def all_recvs(self) -> list[RecvEvent]:
        return [r for per_rank in self.recvs for r in per_rank]

    def all_wall_phases(self) -> list[PhaseSpan]:
        return [s for per_rank in self.wall_phases for s in per_rank]

    @property
    def has_wall(self) -> bool:
        return any(self.wall_phases)

    def sends_by_seq(self) -> dict[tuple[int, int], SendEvent]:
        """Delivered-copy send events keyed by ``(src, seq)``."""
        return {(ev.src, ev.seq): ev for ev in self.all_sends()
                if not ev.duplicate}

    def step_spans(self) -> dict[int, list[PhaseSpan]]:
        """``step index -> spans`` for the ``cat="step"`` markers."""
        out: dict[int, list[PhaseSpan]] = {}
        for span in self.all_phases():
            if span.cat == "step":
                out.setdefault(int(span.name.split()[-1]), []).append(span)
        return out

    @property
    def parallel_time(self) -> float:
        return max(self.final_times) if self.final_times else 0.0

    # ------------------------------------------------------------- export
    def to_chrome(self) -> dict[str, Any]:
        """Chrome trace-event JSON (Perfetto / chrome://tracing loadable).

        One thread track per rank; phase blocks as complete ("X") slices,
        messages as flow arrows ("s"/"f", id ``seq * size + src``)
        anchored on instant events, and fault dispositions as instant
        events.  Timestamps are the virtual
        times in microseconds.

        When wall spans were recorded, a second process (pid 1, "wall
        clock") carries one wall track per rank on the run-epoch
        timebase, so the cost model and the hardware sit side by side in
        one Perfetto view.
        """
        us = 1e6
        events: list[dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 0,
             "args": {"name": "virtual machine"}},
        ]
        for r in range(self.size):
            events.append({"name": "thread_name", "ph": "M", "pid": 0,
                           "tid": r, "args": {"name": f"rank {r}"}})
            events.append({"name": "thread_sort_index", "ph": "M",
                           "pid": 0, "tid": r, "args": {"sort_index": r}})
        for span in self.all_phases():
            events.append({
                "name": span.name, "cat": span.cat, "ph": "X",
                "ts": span.t0 * us, "dur": span.duration * us,
                "pid": 0, "tid": span.rank,
                "args": {"depth": span.depth},
            })
        for ev in self.all_sends():
            name = f"send tag={ev.tag}"
            args = {"dst": ev.dst, "nbytes": ev.nbytes,
                    "drops": ev.drops, "retries": ev.retries}
            events.append({"name": name, "cat": "msg", "ph": "i", "s": "t",
                           "ts": ev.t_end * us, "pid": 0, "tid": ev.src,
                           "args": args})
            if not ev.duplicate:
                events.append({"name": f"msg tag={ev.tag}", "cat": "msg",
                               "ph": "s", "id": ev.seq * self.size + ev.src,
                               "ts": ev.t_end * us,
                               "pid": 0, "tid": ev.src, "args": args})
        for ev in self.all_recvs():
            events.append({"name": f"recv tag={ev.tag}", "cat": "msg",
                           "ph": "i", "s": "t", "ts": ev.t_end * us,
                           "pid": 0, "tid": ev.rank,
                           "args": {"src": ev.src, "nbytes": ev.nbytes,
                                    "waited": ev.waited}})
            events.append({"name": f"msg tag={ev.tag}", "cat": "msg",
                           "ph": "f", "bp": "e",
                           "id": ev.seq * self.size + ev.src,
                           "ts": ev.arrival * us, "pid": 0,
                           "tid": ev.rank, "args": {}})
        if self.has_wall:
            events.append({"name": "process_name", "ph": "M", "pid": 1,
                           "args": {"name": "wall clock"}})
            events.append({"name": "process_sort_index", "ph": "M",
                           "pid": 1, "args": {"sort_index": 1}})
            for r in range(self.size):
                events.append({"name": "thread_name", "ph": "M", "pid": 1,
                               "tid": r,
                               "args": {"name": f"rank {r} (wall)"}})
                events.append({"name": "thread_sort_index", "ph": "M",
                               "pid": 1, "tid": r,
                               "args": {"sort_index": r}})
            for span in self.all_wall_phases():
                events.append({
                    "name": span.name, "cat": span.cat, "ph": "X",
                    "ts": span.t0 * us, "dur": span.duration * us,
                    "pid": 1, "tid": span.rank,
                    "args": {"depth": span.depth},
                })
        events.sort(key=lambda e: (e.get("ts", -1.0), e.get("pid", -1),
                                   e.get("tid", -1)))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "timebase": "virtual seconds (x 1e6 -> trace us)",
                "wall_timebase": ("wall seconds since run epoch "
                                  "(x 1e6 -> trace us)"
                                  if self.has_wall else None),
                "ranks": self.size,
                "parallel_time": self.parallel_time,
            },
        }

    def write_chrome(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)


class Tracer:
    """Collects events during a run; :meth:`finish` yields the Trace.

    One instance serves all ranks of one engine run.  Per-rank lists are
    only ever appended to by that rank's own thread (a send is recorded
    by the *sender*), so no locking is needed.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"tracer size must be positive, got {size}")
        self.size = size
        self.phases: list[list[PhaseSpan]] = [[] for _ in range(size)]
        self.sends: list[list[SendEvent]] = [[] for _ in range(size)]
        self.recvs: list[list[RecvEvent]] = [[] for _ in range(size)]
        self.wall_phases: list[list[PhaseSpan]] = [[] for _ in range(size)]
        self.final_times: list[float] = [0.0] * size

    # Hooks — called from the machine layer, never charging any clock.
    def phase_span(self, rank: int, name: str, t0: float, t1: float,
                   depth: int = 1, cat: str = "phase") -> None:
        self.phases[rank].append(
            PhaseSpan(rank=rank, name=name, t0=t0, t1=t1,
                      depth=depth, cat=cat)
        )

    def send_event(self, ev: SendEvent) -> None:
        self.sends[ev.src].append(ev)

    def recv_event(self, ev: RecvEvent) -> None:
        self.recvs[ev.rank].append(ev)

    def adopt_wall_spans(self, rank: int,
                         spans: list[PhaseSpan]) -> None:
        """Install one rank's wall spans (shipped home by a worker)."""
        self.wall_phases[rank] = list(spans)

    def finish(self) -> Trace:
        return Trace(size=self.size, phases=self.phases, sends=self.sends,
                     recvs=self.recvs, final_times=list(self.final_times),
                     wall_phases=self.wall_phases)
