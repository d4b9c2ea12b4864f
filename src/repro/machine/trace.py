"""Span tracing for the virtual machine: one recorder per rank.

Each traced rank owns a :class:`RankTrace`, which turns every phase
interval and every message of that rank into a structured event:

* :class:`PhaseSpan` — one ``clock.phase(...)`` block, from the virtual
  time at entry to the virtual time at exit (nested blocks produce
  nested spans; ``cat="step"`` spans mark whole time-steps).
* :class:`SendEvent` — one ``Comm.send``: channel-charge begin/end on
  the sender's clock, the message's virtual arrival at the destination,
  and the extra delay a fault plan added to it.
* :class:`RecvEvent` — one matched receive: the receiver's clock before
  the arrival wait, the arrival itself, the clock after the copy-out
  charge, and whether the receive actually *waited* (i.e. the arrival
  bound the receiver's clock rather than the other way round).

With a wall epoch the same recorder also measures each block on the
wall clock (``wall:`` categories), plus wall-only spans for transport
operations, checkpoint writes and recovery markers.  When the run ends,
the engine assembles the ranks' recorders into one :class:`Trace`
(:meth:`Trace.from_ranks`), the artifact the analyses read.

A message is identified by ``(src, seq)``: each rank numbers its own
sends, and the send and receive events of one message carry its
``seq``, so the event graph can be stitched across ranks — that is what
:mod:`repro.analysis.critical_path` walks.  The numbering is a function
of each rank's program alone, so identical runs, either backend and a
recovered run number every message alike.

Overhead neutrality: tracing never charges any virtual clock.  An
untraced rank has no recorder at all; every hook is behind an
``is not None`` check, so an untraced run executes the exact same
sequence of clock charges as a traced one and its virtual times are
bitwise identical.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any


@dataclass
class PhaseSpan:
    """One block on one rank's virtual (or, ``wall:`` cats, wall) timeline."""

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

    seq: int                # Message.seq
    src: int
    dst: int
    tag: int
    nbytes: int
    t_begin: float          # sender clock before the channel charge
    t_end: float            # sender clock after the charge
    arrival: float          # virtual arrival at dst (== t_end for local)
    extra_delay: float = 0.0  # injected by a fault plan


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


class RankTrace:
    """One rank's recorder: its virtual spans and messages and, given a
    wall ``epoch``, its measured wall spans.

    ``phases``/``sends``/``recvs`` are the virtual events; they ride the
    rank's checkpoints, so a restored rank continues its lists.  ``wall``
    holds this attempt's wall spans, measured on ``time.monotonic()``
    relative to an epoch the host fixes before starting the ranks —
    ``CLOCK_MONOTONIC`` is system-wide on Linux, so thread and process
    ranks share one timeline.  Without an epoch nothing wall-side is
    recorded.  Only the rank's own thread appends, so no locking.
    """

    __slots__ = ("rank", "epoch", "phases", "sends", "recvs", "wall")

    def __init__(self, rank: int, epoch: float | None = None):
        self.rank = rank
        self.epoch = epoch
        self.phases: list[PhaseSpan] = []
        self.sends: list[SendEvent] = []
        self.recvs: list[RecvEvent] = []
        self.wall: list[PhaseSpan] = []

    def now(self) -> float:
        """Wall seconds since the run epoch (0.0 without one)."""
        return 0.0 if self.epoch is None else time.monotonic() - self.epoch

    def span(self, name: str, t0: float, t1: float, w0: float,
             depth: int = 1, cat: str = "phase") -> None:
        """One block on both clocks: ``[t0, t1]`` virtual as ``cat``, and
        ``[w0, now()]`` wall as ``"wall:" + cat``."""
        self.phases.append(PhaseSpan(self.rank, name, t0, t1, depth, cat))
        self.record(name, w0, self.now(), depth, "wall:" + cat)

    def record(self, name: str, t0: float, t1: float, depth: int = 1,
               cat: str = "wall:phase") -> None:
        """One wall-only span."""
        if self.epoch is not None:
            self.wall.append(PhaseSpan(self.rank, name, t0, t1, depth, cat))

    def mark(self, name: str, cat: str) -> None:
        """A zero-duration wall span at the current wall time."""
        t = self.now()
        self.record(name, t, t, cat=cat)

    @contextmanager
    def timed(self, name: str, cat: str):
        """Record the block as one wall span (exceptional exits too)."""
        t0 = self.now()
        try:
            yield self
        finally:
            self.record(name, t0, self.now(), cat=cat)


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

    @classmethod
    def from_ranks(cls, traces: list[RankTrace],
                   final_times: list[float]) -> "Trace":
        """Assemble the run's trace from every rank's recorder."""
        return cls(size=len(traces), phases=[t.phases for t in traces],
                   sends=[t.sends for t in traces],
                   recvs=[t.recvs for t in traces],
                   final_times=list(final_times),
                   wall_phases=[t.wall for t in traces])

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
        """Send events keyed by ``(src, seq)``."""
        return {(ev.src, ev.seq): ev for ev in self.all_sends()}

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
        anchored on instant events.  Timestamps are the virtual times in
        microseconds.

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
            args = {"dst": ev.dst, "nbytes": ev.nbytes}
            events.append({"name": name, "cat": "msg", "ph": "i", "s": "t",
                           "ts": ev.t_end * us, "pid": 0, "tid": ev.src,
                           "args": args})
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
