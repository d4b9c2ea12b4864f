"""Host-side live telemetry for the process backend.

The worker side of telemetry lives in :mod:`repro.runtime.supervision`:
each rank's phase hook and heartbeat thread publish current phase,
wall-in-phase, cumulative bytes, and peak RSS into the shared
:class:`~repro.runtime.supervision.HeartbeatBoard`.  This module is the
consumer: the host samples the board into :class:`RankTelemetry` rows,
renders them as a ``--live`` progress line, and appends structured
events to an :class:`EventLog` through :class:`RunTelemetry`, the one
writer of a run's stream.

Event stream schema (``--events-out``, JSON lines, one object per
line).  Every event carries:

* ``"t"`` — wall seconds since the run started (float),
* ``"event"`` — the event type.

Event types and their extra fields:

===============  ==========================================================
``run_start``    ``scheme, p, n, steps, backend``
``step``         ``step`` (newest step every rank has started) and
                 ``ranks``: a list of per-rank objects ``{rank, step,
                 phase, wall_in_phase, bytes_sent, bytes_recv, peak_rss,
                 steps_per_s, ckpt_step}``
``checkpoint``   ``step`` — newest step durably checkpointed by every rank
``worker_lost``  ``rank, kind, detail`` (detail = supervisor diagnostics)
``recovery``     ``restart`` (1-based attempt), ``resume_step``,
                 ``rollback_steps``
``run_end``      ``ok, steps, parallel_time, recoveries, wall_seconds``
===============  ==========================================================

Unknown extra fields may appear in future versions; consumers should
ignore fields they do not know.  All telemetry is pure observation on
the real timebase — it never touches virtual accounting.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass

from repro.runtime.supervision import HeartbeatBoard

__all__ = ["EventLog", "LiveDisplay", "RankTelemetry", "RunTelemetry",
           "TelemetrySampler"]

#: Real seconds between the process host's samples of the board while a
#: run with live telemetry executes.
TELEMETRY_INTERVAL = 0.5


@dataclass
class RankTelemetry:
    """One rank's board state at one host sampling instant."""

    rank: int
    step: int               # last step the rank reported (-1 = none yet)
    phase: str | None       # current phase name (None = none reported)
    wall_in_phase: float    # wall seconds since the phase was entered
    bytes_sent: int
    bytes_recv: int
    peak_rss: int           # bytes (ru_maxrss)
    steps_per_s: float      # rate since the previous sample (0 if unknown)
    ckpt_step: int = -1     # newest durably checkpointed step (-1 = none)


class TelemetrySampler:
    """Samples a telemetry board into :class:`RankTelemetry` rows.

    Tracks the previous sample per rank so ``steps_per_s`` is a real
    rate, not a lifetime average.
    """

    def __init__(self, board: HeartbeatBoard, size: int):
        self.board = board
        self.size = size
        self._prev: list[tuple[float, int]] = [(time.monotonic(), -1)
                                               for _ in range(size)]

    def sample(self) -> list[RankTelemetry]:
        now = time.monotonic()
        rows = []
        for r in range(self.size):
            step = self.board.last_step(r)
            t_prev, s_prev = self._prev[r]
            rate = 0.0
            if step > s_prev >= 0 and now > t_prev:
                rate = (step - s_prev) / (now - t_prev)
            if step != s_prev:
                self._prev[r] = (now, step)
            rows.append(RankTelemetry(
                rank=r,
                step=step,
                phase=self.board.current_phase(r),
                wall_in_phase=self.board.wall_in_phase(r),
                bytes_sent=self.board.bytes_sent(r),
                bytes_recv=self.board.bytes_received(r),
                peak_rss=self.board.peak_rss(r),
                steps_per_s=rate,
                ckpt_step=self.board.last_checkpoint_step(r),
            ))
        return rows


class EventLog:
    """Append-only JSON-lines event stream (the ``--events-out`` file).

    One :class:`EventLog` covers one run; ``t`` is wall seconds since
    construction.  Lines are written with sorted keys and flushed per
    event so a crash loses at most the event being written and the
    stream diffs cleanly across runs.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "a")
        self._t0 = time.monotonic()

    def emit(self, event: str, **fields) -> None:
        rec = {"t": round(time.monotonic() - self._t0, 6), "event": event}
        rec.update(fields)
        json.dump(rec, self._fh, sort_keys=True)
        self._fh.write("\n")
        self._fh.flush()

    def emit_step(self, step: int, rows: list[RankTelemetry]) -> None:
        self.emit("step", step=step,
                  ranks=[asdict(row) for row in rows])

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _human_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}GiB"  # pragma: no cover - unreachable


def format_live_line(rows: list[RankTelemetry], total_steps: int) -> str:
    """One-line live summary of a sampled board."""
    if not rows:
        return "no ranks"
    lead = min(row.step for row in rows)
    rates = [row.steps_per_s for row in rows if row.steps_per_s > 0]
    rate = f"{min(rates):.2f} steps/s" if rates else "- steps/s"
    sent = _human_bytes(sum(row.bytes_sent for row in rows))
    rss = _human_bytes(max(row.peak_rss for row in rows))
    phases = []
    for row in rows:
        tag = row.phase if row.phase is not None else "-"
        phases.append(f"r{row.rank}:{tag}")
    return (f"step {max(lead, 0)}/{total_steps} | {rate} | "
            f"sent {sent} | peak rss {rss} | " + " ".join(phases))


class LiveDisplay:
    """Renders the ``--live`` progress line (carriage-return updates)."""

    def __init__(self, total_steps: int, stream=None):
        self.total_steps = total_steps
        self.stream = stream if stream is not None else sys.stderr
        self._last_len = 0

    def update(self, rows: list[RankTelemetry]) -> None:
        line = format_live_line(rows, self.total_steps)
        pad = max(self._last_len - len(line), 0)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()
        self._last_len = len(line)

    def finish(self) -> None:
        if self._last_len:
            self.stream.write("\n")
            self.stream.flush()
            self._last_len = 0


class RunTelemetry:
    """One run's event stream (the schema above) and live line:
    ``run_start`` on construction, ``run_end`` on :meth:`close`, and
    ``on_rows`` as the engine's board-sample callback."""

    def __init__(self, events_out: str | None, live: bool, steps: int,
                 **run_start):
        self.log = EventLog(events_out) if events_out is not None else None
        self.display = LiveDisplay(steps) if live else None
        self.steps = steps
        self._step = self._ckpt = -1
        self._t0 = time.monotonic()
        if self.log is not None:
            self.log.emit("run_start", steps=steps, **run_start)

    def on_rows(self, rows: list[RankTelemetry]) -> None:
        if self.display is not None:
            self.display.update(rows)
        if self.log is None:
            return
        lead = min(r.step for r in rows)
        if lead > self._step:
            self._step = lead
            self.log.emit_step(lead, rows)
        ck = min(r.ckpt_step for r in rows)
        if ck > self._ckpt:
            self._ckpt = ck
            self.log.emit("checkpoint", step=ck)

    def worker_lost(self, failure: BaseException) -> None:
        if (self.log is not None
                and getattr(failure, "kind", None) is not None):
            self.log.emit("worker_lost", rank=failure.rank,
                          kind=failure.kind,
                          detail=[d.describe() for d in failure.diagnostics])

    def recovery(self, restart: int, resume_step: int,
                 rollback_steps: int) -> None:
        if self.log is not None:
            self.log.emit("recovery", restart=restart,
                          resume_step=resume_step,
                          rollback_steps=rollback_steps)

    def close(self, parallel_time: float | None, recoveries: int) -> None:
        if self.display is not None:
            self.display.finish()
        if self.log is not None:
            self.log.emit("run_end", ok=parallel_time is not None,
                          steps=self.steps, parallel_time=parallel_time,
                          recoveries=recoveries,
                          wall_seconds=round(time.monotonic() - self._t0, 6))
            self.log.close()
