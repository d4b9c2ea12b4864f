"""Worker supervision primitives for the process backend.

The host cannot trust a worker process to *say* it died — an OOM kill,
a segfault in native code, or a livelocked loop all end a rank's useful
life without a result envelope.  Supervision rests on two signals:

* **exit codes** — ``multiprocessing`` surfaces ``-signum`` for
  signal deaths; :func:`classify_exit` turns that into a human verdict
  ("killed by SIGKILL").
* **heartbeats** — every worker runs a daemon thread that stamps a
  shared :class:`HeartbeatBoard` slot with ``time.monotonic()`` every
  ``interval`` seconds (CLOCK_MONOTONIC is system-wide on Linux, so
  host and workers read the same clock).  A slot older than the
  supervisor's timeout convicts a rank that is technically alive but
  no longer making progress.

The board also records the last *step* each rank reported
(:func:`notify_step`), which serves double duty: it makes watchdog
diagnostics say where each rank was when it died, and it is the hook
through which the deterministic process-fault plan acts — a worker
whose plan says ``kill={rank: k}`` SIGKILLs itself at the top of step
``k``, and one with ``stall_heartbeat={rank: k}`` silences its
heartbeat and hangs, exactly reproducing the two failure modes the
supervisor must distinguish.  What the host does about a lost worker —
roll back and respawn, within a budget — is
:class:`~repro.core.checkpoint.RestartPolicy`'s business.
"""

from __future__ import annotations

import os
import resource
import signal
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.faults import FaultPlan

#: Seconds between worker heartbeat stamps (read when a
#: :class:`~repro.runtime.ProcessEngine` is built).
HEARTBEAT_INTERVAL = 0.2

#: Phase-name table shared by the telemetry board.  Workers publish the
#: current phase as an index into this tuple (shared arrays cannot carry
#: strings); names outside the table map to ``"other"`` (index 0), and
#: index ``-1`` means "no phase reported yet".
PHASE_NAMES: tuple[str, ...] = (
    "other",
    "setup",
    "load balancing",
    "local tree construction",
    "tree merging",
    "all-to-all broadcast",
    "force computation",
    "particle advance",
    "tree repair",
)

_PHASE_IDS = {name: i for i, name in enumerate(PHASE_NAMES)}


def phase_id(name: str | None) -> int:
    """Board index of a phase name (unknown names fold into "other")."""
    if name is None:
        return -1
    return _PHASE_IDS.get(name, 0)


def phase_name(pid: int) -> str | None:
    """Inverse of :func:`phase_id` (``None`` for the -1 sentinel)."""
    if 0 <= pid < len(PHASE_NAMES):
        return PHASE_NAMES[pid]
    return None

#: Host-side liveness verdict: a rank whose newest stamp is older than
#: this is considered lost even if its process object reads alive.
#: Generous relative to the interval so GC pauses and page-cache storms
#: do not convict a healthy worker.
HEARTBEAT_TIMEOUT = 15.0


class HeartbeatBoard:
    """Shared-memory telemetry board: per-rank liveness + live state.

    Built by the host from a ``multiprocessing`` context *before*
    forking; both sides access the raw arrays lock-free (an 8-byte
    aligned store is atomic on every platform CPython runs on, and a
    torn read would only mis-age one probe by one interval).

    Layout (one slot per rank in each array):

    ======================  ====  ==============================================
    slot                    type  meaning
    ======================  ====  ==============================================
    beat                    f64   ``time.monotonic()`` of the newest heartbeat
    step                    i64   last step the rank reported (-1 = none)
    phase                   i64   :data:`PHASE_NAMES` index (-1 = none)
    phase_t0                f64   monotonic time the current phase was entered
    bytes_sent/bytes_recv   i64   cumulative payload bytes through Comm
    peak_rss                i64   ``ru_maxrss`` in bytes
    ckpt_step               i64   newest step checkpointed to disk (-1 = none)
    ======================  ====  ==============================================

    Everything beyond beat+step is best-effort telemetry: written by the
    worker's phase hook and heartbeat thread, read racily by the host's
    sampler.  None of it ever charges a virtual clock.
    """

    def __init__(self, ctx, size: int):
        self.size = size
        now = time.monotonic()
        # Slots start "fresh" so a slow-to-start worker isn't convicted
        # before its first beat.
        self._beats = ctx.Array("d", [now] * size, lock=False)
        self._steps = ctx.Array("q", [-1] * size, lock=False)
        self._phases = ctx.Array("q", [-1] * size, lock=False)
        self._phase_t0 = ctx.Array("d", [now] * size, lock=False)
        self._bytes_sent = ctx.Array("q", [0] * size, lock=False)
        self._bytes_recv = ctx.Array("q", [0] * size, lock=False)
        self._peak_rss = ctx.Array("q", [0] * size, lock=False)
        self._ckpt_steps = ctx.Array("q", [-1] * size, lock=False)

    # ------------------------------------------------------------ worker
    def beat(self, rank: int) -> None:
        self._beats[rank] = time.monotonic()

    def note_step(self, rank: int, step: int) -> None:
        self._steps[rank] = step

    def note_phase(self, rank: int, name: str | None) -> None:
        self._phases[rank] = phase_id(name)
        self._phase_t0[rank] = time.monotonic()

    def note_bytes(self, rank: int, sent: int, received: int) -> None:
        self._bytes_sent[rank] = sent
        self._bytes_recv[rank] = received

    def note_rss(self, rank: int, rss_bytes: int) -> None:
        self._peak_rss[rank] = rss_bytes

    def note_checkpoint(self, rank: int, step: int) -> None:
        self._ckpt_steps[rank] = step

    # -------------------------------------------------------------- host
    def age(self, rank: int) -> float:
        return time.monotonic() - self._beats[rank]

    def last_step(self, rank: int) -> int:
        return int(self._steps[rank])

    def current_phase(self, rank: int) -> str | None:
        return phase_name(int(self._phases[rank]))

    def wall_in_phase(self, rank: int) -> float:
        return time.monotonic() - self._phase_t0[rank]

    def bytes_sent(self, rank: int) -> int:
        return int(self._bytes_sent[rank])

    def bytes_received(self, rank: int) -> int:
        return int(self._bytes_recv[rank])

    def peak_rss(self, rank: int) -> int:
        return int(self._peak_rss[rank])

    def last_checkpoint_step(self, rank: int) -> int:
        return int(self._ckpt_steps[rank])


def classify_exit(exitcode: int | None) -> str:
    """Human verdict for one ``Process.exitcode``."""
    if exitcode is None:
        return "still running"
    if exitcode == 0:
        return "exited cleanly"
    if exitcode < 0:
        signum = -exitcode
        try:
            name = signal.Signals(signum).name
        except ValueError:  # pragma: no cover - unknown signal number
            name = f"signal {signum}"
        return f"killed by {name} (exit {exitcode})"
    return f"exited with status {exitcode}"


@dataclass
class RankDiagnostics:
    """Everything the supervisor knows about one rank at failure time."""

    rank: int
    alive: bool
    exitcode: int | None
    heartbeat_age: float
    last_step: int
    #: What the rank was doing when convicted, from the telemetry board:
    #: current phase name (None if it never reported one) and wall
    #: seconds spent in it.
    phase: str | None = None
    wall_in_phase: float = 0.0

    def describe(self) -> str:
        step = (f"last reported step {self.last_step}"
                if self.last_step >= 0 else "no step reported yet")
        doing = (f"; in phase {self.phase!r} for {self.wall_in_phase:.1f}s"
                 if self.phase is not None else "")
        return (f"rank {self.rank}: {classify_exit(self.exitcode)}; "
                f"last heartbeat {self.heartbeat_age:.1f}s ago; "
                f"{step}{doing}")


# --------------------------------------------------------------- worker side

class _WorkerContext:
    def __init__(self, rank: int, board: HeartbeatBoard,
                 plan: "FaultPlan | None", interval: float):
        self.rank = rank
        self.board = board
        self.kill_at = dict(plan.kill) if plan is not None else {}
        self.stall_at = (dict(plan.stall_heartbeat)
                         if plan is not None else {})
        #: Comm whose stats the pulse thread samples (set by attach_comm).
        self.comm = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._pulse, args=(interval,),
            name=f"heartbeat-{rank}", daemon=True)
        self._thread.start()

    def _pulse(self, interval: float) -> None:
        while not self._stop.is_set():
            self.board.beat(self.rank)
            comm = self.comm
            if comm is not None:
                # Racy reads of live counters from another thread —
                # fine for telemetry, never fed back into accounting.
                stats = comm.stats
                self.board.note_bytes(self.rank, stats.bytes_sent,
                                      stats.bytes_received)
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self.board.note_rss(self.rank, rss_kib * 1024)
            self._stop.wait(interval)

    def on_step(self, step: int) -> None:
        self.board.note_step(self.rank, step)
        if self.kill_at.get(self.rank) == step:
            # Die the way an OOM-killed node dies: no cleanup, no word.
            os.kill(os.getpid(), signal.SIGKILL)
        if self.stall_at.get(self.rank) == step:
            # Livelock impersonation: heartbeat goes quiet, the process
            # stays alive and never makes progress again.
            self._stop.set()
            while True:  # pragma: no cover - killed by the supervisor
                time.sleep(3600.0)


_worker_ctx: _WorkerContext | None = None


def activate_worker(rank: int, board: HeartbeatBoard,
                    plan: "FaultPlan | None", interval: float) -> None:
    """Install this process's supervision context and start its heartbeat.

    Called first thing in the worker body.  Idempotent per process: a
    second activation replaces the context (only reachable in tests).
    """
    global _worker_ctx
    _worker_ctx = _WorkerContext(rank, board, plan, interval)


def notify_step(step: int) -> None:
    """Rank program hook: 'I am starting real step ``step``'.

    No-op outside an activated worker (virtual backend, host process),
    so simulation code can call it unconditionally.
    """
    if _worker_ctx is not None:
        _worker_ctx.on_step(step)


def notify_checkpoint(step: int) -> None:
    """Rank program hook: 'step ``step`` is durably checkpointed'.

    No-op outside an activated worker, like :func:`notify_step`.
    """
    ctx = _worker_ctx
    if ctx is not None:
        ctx.board.note_checkpoint(ctx.rank, step)


def attach_comm(comm) -> None:
    """Wire a rank's Comm into the telemetry board.

    Installs a phase listener on the rank's virtual clock (phase entry
    and exit update the board's phase slot) and hands the Comm to the
    heartbeat thread so the bytes/RSS slots track the live counters.
    No-op outside an activated worker.  Pure observation: the listener
    never charges the clock, and the sampler only *reads* stats.
    """
    ctx = _worker_ctx
    if ctx is None:
        return
    board, rank = ctx.board, ctx.rank
    comm.clock._phase_listener = lambda name: board.note_phase(rank, name)
    ctx.comm = comm


def reset_worker_state() -> None:
    """Forget any context inherited through ``fork`` (fresh workers
    must not reuse the parent's board slot or fault actions)."""
    global _worker_ctx
    if _worker_ctx is not None:
        _worker_ctx._stop.set()
    _worker_ctx = None
