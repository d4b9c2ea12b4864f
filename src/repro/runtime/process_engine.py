"""Process-per-rank SPMD runner with the virtual engine's contract.

``ProcessEngine(p, profile).run(main, args...)`` starts ``p`` OS
processes, each executing ``main(comm, *args)`` against its own
:class:`~repro.machine.comm.Comm` — the *same* rank programs, cost
model, fault injector and collectives as the thread-per-rank
:class:`~repro.machine.engine.Engine` — and returns the same
:class:`~repro.machine.engine.RunReport`.  All reported times are still
virtual; what the processes add is real multi-core wall-clock speed.
A worker lives the thread rank's lifecycle: the engines share their
constructor and ``run()`` checks (:class:`~repro.machine.engine.SPMDEngine`),
the :class:`~repro.machine.comm.Comm` bootstrap
(:func:`~repro.machine.engine.rank_comm`) and the end-of-run report row
(:func:`~repro.machine.engine.rank_result`), which the host builds from
the :meth:`~repro.machine.comm.Comm.machine_state` a worker ships home.
Each rank numbers its own messages, so a worker's ``seq`` stream is the
thread rank's, and traces stitch the same way on both backends.  A
traced worker records into its own
:class:`~repro.machine.trace.RankTrace` — clock phases, messages and,
with wall tracing, its transport operations — and ships it home; the
host assembles the ranks' recorders into the report's
:class:`~repro.machine.trace.Trace` as the thread engine does.

Determinism guarantee (the cross-validation tests pin it down): every
virtual-time decision is a pure function of the sender's clock and the
cost model, every receive in the simulation names its source explicitly,
and per-source message order is FIFO on both transports — so particle
states, virtual clocks and interaction counters are bitwise identical
across backends.

Failure handling mirrors the virtual engine: a worker ships its
exception home with a rank-tagged traceback; the host terminates the
survivors, reconstructs typed errors (``RankCrashedError``,
``DeadlockError``) where recovery logic depends on the type, wraps
everything else in :class:`RemoteRankError`, and routes the lot through
the shared :func:`~repro.machine.engine.raise_primary_error` root-cause
selection with a well-formed partial report attached.

Supervision covers the failure modes threads cannot have: every worker
heartbeats into a shared :class:`~repro.runtime.supervision.HeartbeatBoard`
and the host's supervisor loop convicts a rank that (a) exited without
reporting (exit-code classified: SIGKILL, segfault, plain exit) or
(b) is alive but has not heartbeat within
:data:`~repro.runtime.supervision.HEARTBEAT_TIMEOUT` — both
raise :class:`WorkerLostError`, the typed, rank-tagged signal the
host's attempt loop catches and :class:`~repro.core.checkpoint.Rollback`
acts on: respawn workers and restart from the latest durable checkpoint.  A
wall-clock watchdog (:class:`ProcessWatchdogError`) is the backstop for
a run that stops making progress: it fires when no unreported rank has
advanced its board step (:func:`~repro.runtime.supervision.notify_step`)
for ``wall_timeout`` real seconds — it bounds a stall, not the length
of a run — and carries per-rank diagnostics (exit codes, heartbeat
ages, last reported steps) so an unrecoverable failure is debuggable
from the exception alone.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as _queue
import time
import traceback
from typing import Any, Callable, Sequence

from repro.machine.comm import DeadlockError
from repro.machine.costmodel import CostModel, MachineProfile
from repro.machine.engine import (
    RankResult,
    RunReport,
    SPMDEngine,
    raise_primary_error,
    rank_comm,
    rank_result,
)
from repro.machine.faults import FaultPlan, RankCrashedError
from repro.machine.profiles import ZERO_COST
from repro.machine.trace import Trace
from repro.runtime import supervision as _sup
from repro.runtime import telemetry as _tel
from repro.runtime.process_transport import ProcessTransport
from repro.runtime.supervision import HeartbeatBoard, RankDiagnostics


class RemoteRankError(RuntimeError):
    """A rank process raised; carries the remote traceback, rank-tagged."""

    #: Already names its rank: root-cause selection raises it unwrapped.
    rank_tagged = True

    def __init__(self, rank: int, summary: str, remote_traceback: str):
        self.rank = rank
        self.remote_traceback = remote_traceback
        super().__init__(
            f"rank {rank} (process backend) failed: {summary}\n"
            f"--- traceback from rank {rank} ---\n{remote_traceback}"
        )


class ProcessWatchdogError(RuntimeError):
    """The host gave up waiting for step progress (wall-clock timeout).

    The process analogue of :class:`~repro.machine.comm.DeadlockError`:
    it fires when a worker can no longer report anything — killed by the
    OS, wedged outside a receive, or stuck in native code.  Carries the
    ranks that never reported, which of them were still alive, and (when
    the supervisor gathered them) per-rank :class:`RankDiagnostics`
    with exit codes, heartbeat ages and last reported steps.
    """

    def __init__(self, missing: list[int], alive: list[int],
                 timeout: float,
                 diagnostics: list[RankDiagnostics] | None = None,
                 header: str | None = None):
        self.missing = list(missing)
        self.alive = list(alive)
        self.timeout = timeout
        self.diagnostics = list(diagnostics) if diagnostics else []
        #: Real seconds the host spent quiescing the run (terminating
        #: workers, retiring queues); filled in by the engine's teardown
        #: so recovery can report it.
        self.quiesce_seconds: float | None = None
        if header is None:
            header = (
                f"process backend: gave up after {timeout}s without "
                f"step progress; {len(self.missing)} rank(s) unreported "
                f"— likely deadlock or killed worker"
            )
        lines = [header]
        if self.diagnostics:
            lines.extend("  " + d.describe() for d in self.diagnostics)
        else:
            for r in self.missing:
                state = ("still running" if r in self.alive
                         else "process exited")
                lines.append(f"  rank {r}: no result; {state}")
        super().__init__("\n".join(lines))


class WorkerLostError(ProcessWatchdogError):
    """A specific worker process was lost mid-run.

    Raised by the supervisor loop when a rank's process exited without
    reporting (``kind`` ``"killed"``/``"exited"``, from its exit code)
    or went silent past the heartbeat timeout while still alive
    (``kind`` ``"stalled-heartbeat"``).  Subclasses
    :class:`ProcessWatchdogError` (a lost worker is the most common way
    the old watchdog fired) but names the rank, so checkpoint/rollback
    recovery can treat it as a restartable event rather than a fatal
    hang.
    """

    #: Names its rank: root-cause selection raises it unwrapped.
    rank_tagged = True

    def __init__(self, rank: int, kind: str, missing: list[int],
                 alive: list[int], timeout: float,
                 diagnostics: list[RankDiagnostics] | None = None,
                 exitcode: int | None = None):
        self.rank = rank
        self.kind = kind
        self.exitcode = exitcode
        header = (
            f"process backend: worker for rank {rank} lost "
            f"({kind}); {len(missing)} rank(s) unreported"
        )
        super().__init__(missing, alive, timeout,
                         diagnostics=diagnostics, header=header)


def _worker_main(rank: int, size: int, transport: ProcessTransport,
                 result_q, main: Callable[..., Any], args: tuple,
                 extra: tuple, cost: CostModel,
                 fault_plan: FaultPlan | None, trace: bool,
                 board: HeartbeatBoard,
                 heartbeat_interval: float,
                 wall_epoch: float | None) -> None:
    """Body of one rank process (module-level so ``spawn`` can pickle it)."""
    _sup.reset_worker_state()
    _sup.activate_worker(rank, board, fault_plan, heartbeat_interval)
    envelope: dict[str, Any] = {"rank": rank}
    comm = None
    try:
        endpoint = transport.endpoint(rank)
        comm = rank_comm(rank, size, cost, endpoint, fault_plan, trace,
                         wall_epoch)
        # Queue puts and blocking reads on the wall track.
        endpoint.trace = comm.trace
        _sup.attach_comm(comm)
        envelope["kind"] = "ok"
        envelope["value"] = main(comm, *args, *extra)
    except BaseException as exc:
        envelope["kind"] = "error"
        envelope["value"] = None
        envelope["error_type"] = type(exc).__name__
        envelope["error_msg"] = str(exc)
        envelope["traceback"] = traceback.format_exc()
        if isinstance(exc, RankCrashedError):
            envelope["crash_at"] = exc.at_time
        elif isinstance(exc, DeadlockError):
            envelope["deadlock"] = {
                "src": exc.src, "tag": exc.tag,
                "summaries": exc.summaries,
                "timeout": exc.timeout,
            }
    if comm is not None:
        envelope["machine"] = comm.machine_state()
        envelope["trace"] = comm.trace
    try:
        data = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        # The value did not survive pickling (an unpicklable return).
        # Ship a minimal error envelope instead of dying silently.
        data = pickle.dumps({
            "rank": rank, "kind": "error", "value": None,
            "error_type": "RuntimeError",
            "error_msg": "rank result could not be pickled",
            "traceback": traceback.format_exc(),
            "machine": envelope.get("machine"),
        }, protocol=pickle.HIGHEST_PROTOCOL)
    result_q.put((rank, data))


class ProcessEngine(SPMDEngine):
    """Runs SPMD programs on real ``multiprocessing`` workers, started
    with the platform's default method.

    Parameters are :class:`~repro.machine.engine.SPMDEngine`'s (size,
    profile, ``recv_timeout``, ``fault_plan``), plus:

    wall_timeout:
        Real seconds the host waits for step progress — a rank still
        running advancing its board step — before it terminates the
        workers and raises :class:`ProcessWatchdogError`; each advance
        restarts the budget.  Defaults
        to ``recv_timeout + 60`` so the in-worker deadlock watchdog
        (which produces the far more informative
        :class:`~repro.machine.comm.DeadlockError`) always gets to fire
        first; ``recv_timeout=None`` leaves the run unbounded.
    on_telemetry:
        Live telemetry: ``on_telemetry(rows)`` is called from the host's
        result loop at most every
        :data:`~repro.runtime.telemetry.TELEMETRY_INTERVAL` real seconds
        with the sampled board state (a list of
        :class:`~repro.runtime.telemetry.RankTelemetry`).  Exceptions in
        the callback are swallowed — telemetry must never kill a run.

    Worker liveness runs on two constants of
    :mod:`~repro.runtime.supervision`, read when the engine is built:
    each worker stamps the shared board every ``HEARTBEAT_INTERVAL``
    real seconds, and the supervisor convicts an unreported rank whose
    stamp is older than ``HEARTBEAT_TIMEOUT`` (:class:`WorkerLostError`,
    kind ``"stalled-heartbeat"``).
    """

    recoverable = (RankCrashedError, WorkerLostError)

    def __init__(self, size: int, profile: MachineProfile = ZERO_COST,
                 recv_timeout: float | None = 120.0,
                 fault_plan: FaultPlan | None = None,
                 wall_timeout: float | None = None,
                 on_telemetry: Callable[[list], None] | None = None):
        super().__init__(size, profile, recv_timeout, fault_plan)
        if wall_timeout is None and recv_timeout is not None:
            wall_timeout = recv_timeout + 60.0
        self.wall_timeout = wall_timeout
        self.heartbeat_interval = _sup.HEARTBEAT_INTERVAL
        self.heartbeat_timeout = _sup.HEARTBEAT_TIMEOUT
        self.on_telemetry = on_telemetry
        self.telemetry_interval = _tel.TELEMETRY_INTERVAL

    def run(self, main: Callable[..., Any], *args: Any,
            rank_args: Sequence[Sequence[Any]] | None = None,
            trace: bool = False,
            wall_trace: bool = False) -> RunReport:
        """Execute ``main(comm, *args)`` on every rank, one process each.

        Same signature and report as
        :meth:`repro.machine.engine.Engine.run`.  With ``trace=True``
        each worker records into its own
        :class:`~repro.machine.trace.RankTrace` and ships it home with
        its result; the host assembles them into one
        :class:`~repro.machine.trace.Trace` on the report.
        ``wall_trace=True`` additionally records measured wall-clock
        spans (phases, transport operations, checkpoint writes) against
        a host-fixed epoch, one wall track per rank on the same Trace.
        Requires ``trace``.
        """
        extras, wall_epoch = self._start(rank_args, trace, wall_trace)
        ctx = mp.get_context()
        transport = ProcessTransport(ctx, self.size, self.recv_timeout)
        board = HeartbeatBoard(ctx, self.size)
        result_q = ctx.Queue()
        workers = [
            ctx.Process(
                target=_worker_main,
                args=(r, self.size, transport, result_q, main,
                      tuple(args), extras[r], self.cost, self.fault_plan,
                      trace, board,
                      self.heartbeat_interval, wall_epoch),
                name=f"prank-{r}", daemon=True)
            for r in range(self.size)
        ]
        envelopes: dict[int, dict[str, Any]] = {}
        failure: BaseException | None = None
        sampler = (_tel.TelemetrySampler(board, self.size)
                   if self.on_telemetry is not None else None)
        next_sample = time.monotonic()
        try:
            for w in workers:
                w.start()
            deadline = (time.monotonic() + self.wall_timeout
                        if self.wall_timeout is not None else None)
            progress = [-1] * self.size
            while len(envelopes) < self.size:
                if sampler is not None \
                        and time.monotonic() >= next_sample:
                    try:
                        self.on_telemetry(sampler.sample())
                    except Exception:  # telemetry must never kill a run
                        pass
                    next_sample = (time.monotonic()
                                   + self.telemetry_interval)
                wait: float | None = 1.0
                if sampler is not None:
                    wait = min(wait, self.telemetry_interval)
                if deadline is not None:
                    for r in range(self.size):
                        step = board.last_step(r)
                        if r not in envelopes and step > progress[r]:
                            progress[r] = step
                            deadline = time.monotonic() + self.wall_timeout
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        missing = [r for r in range(self.size)
                                   if r not in envelopes]
                        alive = [r for r in missing
                                 if workers[r].is_alive()]
                        raise ProcessWatchdogError(
                            missing, alive, self.wall_timeout,
                            diagnostics=self._diagnose(
                                missing, workers, board))
                    wait = min(wait, remaining)
                try:
                    rank, data = result_q.get(timeout=wait)
                except _queue.Empty:
                    if result_q.empty():
                        # No result racing up the pipe: safe to convict.
                        self._check_liveness(envelopes, workers, board)
                    continue
                envelopes[rank] = pickle.loads(data)
                if envelopes[rank]["kind"] == "error":
                    break
            if sampler is not None:
                # Final sample: a short run can finish between periodic
                # samples, so guarantee the host observes the board's
                # terminal state (last step, last checkpoint) before the
                # run ends.
                try:
                    self.on_telemetry(sampler.sample())
                except Exception:  # telemetry must never kill a run
                    pass
        except BaseException as exc:
            failure = exc
            raise
        finally:
            # Quiesce: the first error or watchdog ends the run.  Terminate
            # the survivors (the process analogue of the thread engine's
            # mailbox close) and retire every queue unread.  Nothing is
            # read after a terminate: a worker killed inside a put leaves
            # a partial frame in the pipe, and a read would wait for the
            # rest of it forever.  On a clean run every worker has
            # already exited.
            t_quiesce = time.monotonic()
            for w in workers:
                if w.is_alive():
                    w.terminate()
            for w in workers:
                if w.pid is not None:
                    w.join(timeout=10.0)
            for w in workers:
                if w.is_alive():  # pragma: no cover - last resort
                    w.kill()
                    w.join(timeout=5.0)
            transport.close()
            result_q.close()
            result_q.cancel_join_thread()
            self.last_quiesce_seconds = time.monotonic() - t_quiesce
            if isinstance(failure, ProcessWatchdogError):
                failure.quiesce_seconds = self.last_quiesce_seconds

        return self._build_report(envelopes, trace)

    def _diagnose(self, missing: list[int], workers,
                  board: HeartbeatBoard) -> list[RankDiagnostics]:
        return [
            RankDiagnostics(
                rank=r, alive=workers[r].is_alive(),
                exitcode=workers[r].exitcode,
                heartbeat_age=board.age(r),
                last_step=board.last_step(r),
                phase=board.current_phase(r),
                wall_in_phase=board.wall_in_phase(r),
            )
            for r in missing
        ]

    def _check_liveness(self, envelopes: dict, workers,
                        board: HeartbeatBoard) -> None:
        """Convict lost workers: exited-unreported or stalled heartbeat."""
        missing = [r for r in range(self.size) if r not in envelopes]
        dead = [r for r in missing if not workers[r].is_alive()]
        if dead:
            # A worker exited without reporting (killed / crashed
            # interpreter): waiting longer is useless.  Results already
            # in the pipe still land first (the loop drains before the
            # next liveness probe reaches here with an empty queue).
            r = dead[0]
            exitcode = workers[r].exitcode
            kind = ("killed" if exitcode is not None and exitcode < 0
                    else "exited")
            raise WorkerLostError(
                r, kind, missing, [x for x in missing if x not in dead],
                self.wall_timeout or 0.0,
                diagnostics=self._diagnose(missing, workers, board),
                exitcode=exitcode)
        stalled = [r for r in missing
                   if board.age(r) > self.heartbeat_timeout]
        if stalled:
            r = stalled[0]
            raise WorkerLostError(
                r, "stalled-heartbeat", missing, missing,
                self.wall_timeout or 0.0,
                diagnostics=self._diagnose(missing, workers, board),
                exitcode=None)

    def _build_report(self, envelopes: dict[int, dict[str, Any]],
                      trace: bool) -> RunReport:
        ranks: list[RankResult] = []
        errors: list[tuple[int, BaseException]] = []
        for r in range(self.size):
            env = envelopes.get(r)
            if env is None:
                # Terminated before reporting (another rank failed
                # first); still yields a well-formed result row.
                ranks.append(rank_result(
                    r, None, None, "RuntimeError: worker terminated "
                                   "before reporting a result"))
                continue
            error = None
            if env["kind"] == "error":
                error = f"{env['error_type']}: {env['error_msg']}"
                errors.append((r, self._rebuild_error(env)))
            ranks.append(rank_result(r, env.get("value"),
                                     env.get("machine"), error))
        if errors:
            raise_primary_error(errors, partial_report=RunReport(ranks))
        if not trace:
            return RunReport(ranks)
        # No error: the result loop only ends with every rank in.
        return RunReport(ranks, trace=Trace.from_ranks(
            [envelopes[r]["trace"] for r in range(self.size)],
            [res.time for res in ranks]))

    @staticmethod
    def _rebuild_error(env: dict[str, Any]) -> BaseException:
        """Reconstruct a typed exception from a worker's error envelope."""
        rank = env["rank"]
        if "crash_at" in env:
            return RankCrashedError(rank, env["crash_at"])
        dl = env.get("deadlock")
        if dl is not None:
            return DeadlockError(rank, dl["src"], dl["tag"],
                                 summaries=dl["summaries"],
                                 timeout=dl["timeout"])
        return RemoteRankError(
            rank, f"{env['error_type']}: {env['error_msg']}",
            env.get("traceback", "<no traceback captured>"))
