"""Thread-per-rank SPMD runner, and the rank lifecycle both engines run.

``Engine(p, profile).run(main, args...)`` spawns ``p`` threads, each
executing ``main(comm, *args)`` against its own :class:`Comm`, and returns
a :class:`RunReport` with every rank's return value, virtual clock and
communication counters.  Real wall-clock time is irrelevant to the report;
all timings are virtual and deterministic (see :mod:`repro.machine.comm`).

A rank lives the same life on either engine — this thread engine or
:class:`~repro.runtime.ProcessEngine`, one OS process per rank: its
:class:`Comm` is born in :func:`rank_comm`, its end-of-run row is
:func:`rank_result` over :meth:`Comm.machine_state`, and the engine's
constructor and ``run()`` argument checks are :class:`SPMDEngine`'s.
A traced rank records into its own
:class:`~repro.machine.trace.RankTrace`; when the run ends, the engine
assembles the ranks' recorders into the report's
:class:`~repro.machine.trace.Trace`.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.machine.clock import PhaseTimings
from repro.machine.comm import Comm, CommStats, DeadlockError
from repro.machine.costmodel import CostModel, MachineProfile
from repro.machine.faults import FaultInjector, FaultPlan, RankCrashedError
from repro.machine.mailbox import MailboxClosedError
from repro.machine.metrics import MetricsRegistry
from repro.machine.profiles import ZERO_COST
from repro.machine.trace import RankTrace, Trace
from repro.machine.transport import Endpoint, LocalTransport


@dataclass
class RankResult:
    """What one rank produced: return value, clock, comm counters.

    A rank that failed still yields a well-formed result: ``value`` is
    ``None``, ``error`` carries ``"ExcType: message"``, and the clock /
    counters hold whatever the rank accumulated before dying (a rank
    that raises before its first clock tick reports time 0.0 and empty
    timings rather than being dropped from the report).
    """

    rank: int
    value: Any
    time: float
    timings: PhaseTimings
    stats: CommStats
    metrics: MetricsRegistry | None = None
    error: str | None = None


@dataclass
class RunReport:
    """Aggregate of one SPMD run."""

    ranks: list[RankResult]
    #: Structured event record when the engine ran traced.
    trace: Trace | None = None

    @property
    def size(self) -> int:
        return len(self.ranks)

    @property
    def values(self) -> list[Any]:
        return [r.value for r in self.ranks]

    @property
    def parallel_time(self) -> float:
        """Virtual makespan: the last rank to finish defines it."""
        return max(r.time for r in self.ranks)

    def phase_max(self) -> dict[str, float]:
        """Per-phase time as the paper reports it: max over ranks."""
        out: dict[str, float] = {}
        for r in self.ranks:
            for phase, dt in r.timings.seconds.items():
                out[phase] = max(out.get(phase, 0.0), dt)
        return out

    @property
    def total_messages(self) -> int:
        return sum(r.stats.messages_sent for r in self.ranks)

    @property
    def total_bytes(self) -> int:
        return sum(r.stats.bytes_sent for r in self.ranks)

    def metrics_summary(self) -> MetricsRegistry:
        """Machine-wide metrics: per-rank registries merged (counters and
        histograms summed, gauges max-merged)."""
        return MetricsRegistry.merged(
            [r.metrics for r in self.ranks if r.metrics is not None]
        )

    def load_imbalance(self, phase: str | None = None) -> float:
        """max/mean virtual time ratio (1.0 = perfectly balanced)."""
        if phase is None:
            times = [r.time for r in self.ranks]
        else:
            times = [r.timings.get(phase) for r in self.ranks]
        mean = sum(times) / len(times)
        return max(times) / mean if mean > 0 else 1.0

    def fault_summary(self) -> dict[str, int]:
        """Machine-wide fault counters (all zero when clean)."""
        return {"delays_injected": sum(r.stats.delays_injected
                                       for r in self.ranks)}


@dataclass
class _RankState:
    value: Any = None
    error: BaseException | None = None


def raise_primary_error(errors: Sequence[tuple[int, BaseException]],
                        partial_report: RunReport | None = None):
    """Root-cause selection shared by the virtual and process engines.

    Secondary ``MailboxClosedError`` failures are just other ranks being
    released after the first rank died, so they lose to any other error.
    Planned crashes and deadlock reports keep their type so callers can
    drive recovery (checkpoint restart) from them, as does any error
    declaring itself ``rank_tagged`` (the process backend's remote
    errors); everything else is wrapped in a ``RuntimeError`` naming the
    failing rank.  When given,
    ``partial_report`` (a :class:`RunReport` covering every rank, failed
    ones included) is attached to the raised exception as
    ``partial_report``.
    """
    primary = [e for e in errors
               if not isinstance(e[1], MailboxClosedError)]
    chosen: BaseException | None = None
    for selection in (primary, errors):
        crashes = [e for e in selection
                   if isinstance(e[1], RankCrashedError)]
        if crashes:
            chosen = crashes[0][1]
            break
        if selection:
            break
    cause: BaseException | None = None
    if chosen is None:
        rank, err = (primary or list(errors))[0]
        if isinstance(err, DeadlockError) or getattr(err, "rank_tagged",
                                                     False):
            chosen = err
        else:
            chosen = RuntimeError(
                f"virtual rank {rank} failed: {type(err).__name__}: {err}"
            )
            cause = err
    chosen.partial_report = partial_report
    if cause is not None:
        raise chosen from cause
    raise chosen


def rank_comm(rank: int, size: int, cost: CostModel, endpoint: Endpoint,
              fault_plan: FaultPlan | None, trace: bool,
              wall_epoch: float | None) -> Comm:
    """Build rank ``rank``'s :class:`Comm`: the one bootstrap of a rank.

    The rank gets its own :class:`FaultInjector` over ``fault_plan``
    (channel counters are keyed by sender, so a per-rank injector decides
    exactly what a machine-wide one would) and, when the plan crashes
    it, the clock deadline that raises :class:`RankCrashedError`.
    With ``trace`` the rank records into a :class:`RankTrace`, which
    also measures wall spans on the shared ``wall_epoch`` (``None`` =
    off).
    """
    injector = (FaultInjector(fault_plan, size)
                if fault_plan is not None else None)
    comm = Comm(rank, size, cost, endpoint, injector=injector,
                trace=RankTrace(rank, wall_epoch) if trace else None)
    t = injector.crash_time(rank) if injector is not None else None
    if t is not None:
        comm.clock.set_deadline(t, lambda: RankCrashedError(rank, t))
    return comm


def rank_result(rank: int, value: Any, state: dict[str, Any] | None,
                error: str | None = None) -> RankResult:
    """One rank's report row from its :meth:`Comm.machine_state`
    (``None``: the rank never reported, so its row is empty)."""
    if state is None:
        return RankResult(rank=rank, value=value, time=0.0,
                          timings=PhaseTimings(), stats=CommStats(),
                          error=error)
    return RankResult(rank=rank, value=value, time=state["clock_now"],
                      timings=PhaseTimings(state["phase_seconds"]),
                      stats=state["comm_stats"], metrics=state["metrics"],
                      error=error)


class SPMDEngine:
    """What both engines share: the constructor and ``run()``'s checks.

    Parameters
    ----------
    size:
        Number of virtual processors.
    profile:
        Machine profile; defaults to the free :data:`ZERO_COST` machine.
    recv_timeout:
        Real-seconds watchdog (``None``: none) that turns a hang into a
        structured :class:`~repro.machine.comm.DeadlockError`.  It bounds
        a process rank's blocking receive; thread ranks report a deadlock
        at once, so for them it bounds a rank stuck outside the machine.
    fault_plan:
        Optional :class:`~repro.machine.faults.FaultPlan` injecting
        deterministic message delays, rank crashes and rank slowdowns
        into the run.
    """

    #: Failures a host driver recovers from by rolling every rank back
    #: to a checkpoint.
    recoverable: tuple[type[BaseException], ...] = (RankCrashedError,)
    #: Real seconds the most recent run spent tearing its ranks down;
    #: threads need none.
    last_quiesce_seconds: float = 0.0

    def __init__(self, size: int, profile: MachineProfile = ZERO_COST,
                 recv_timeout: float | None = 120.0,
                 fault_plan: FaultPlan | None = None):
        if size <= 0:
            raise ValueError(f"engine size must be positive, got {size}")
        self.size = size
        self.profile = profile
        self.cost = CostModel(profile, size)
        self.recv_timeout = recv_timeout
        self.fault_plan = fault_plan

    def _start(self, rank_args: Sequence[Sequence[Any]] | None,
               trace: bool, wall_trace: bool
               ) -> tuple[list[tuple], float | None]:
        """``run()``'s argument checks.  Returns every rank's extra
        arguments and the wall-clock epoch (``None`` without
        ``wall_trace``)."""
        if rank_args is not None and len(rank_args) != self.size:
            raise ValueError(
                f"rank_args must have {self.size} entries, got {len(rank_args)}"
            )
        if wall_trace and not trace:
            raise ValueError("wall_trace requires tracing to be enabled")
        extras = ([tuple(a) for a in rank_args] if rank_args is not None
                  else [()] * self.size)
        return extras, (_time.monotonic() if wall_trace else None)


class Engine(SPMDEngine):
    """Runs SPMD programs on the virtual machine, one thread per rank.

    Parameters are :class:`SPMDEngine`'s.  A fault plan that demands
    real process actions (kill / stall_heartbeat) is refused: a thread
    cannot execute them.
    """

    def __init__(self, size: int, profile: MachineProfile = ZERO_COST,
                 recv_timeout: float | None = 120.0,
                 fault_plan: FaultPlan | None = None):
        super().__init__(size, profile, recv_timeout, fault_plan)
        if fault_plan is not None and fault_plan.any_process_faults:
            raise ValueError(
                "fault plan demands real process actions (kill / "
                "stall_heartbeat); only backend='process' can execute them"
            )

    def run(self, main: Callable[..., Any], *args: Any,
            rank_args: Sequence[Sequence[Any]] | None = None,
            trace: bool = False,
            wall_trace: bool = False) -> RunReport:
        """Execute ``main(comm, *args)`` on every rank.

        ``rank_args`` optionally provides per-rank extra positional
        arguments appended after the shared ``args``.  ``trace=True``
        gives every rank a :class:`~repro.machine.trace.RankTrace`; the
        finished :class:`~repro.machine.trace.Trace` lands on the report.
        Tracing never charges any virtual clock, so traced and untraced
        runs have bitwise-identical virtual times.  ``wall_trace=True``
        additionally records each rank thread's measured wall-clock
        phase spans (a shared epoch, one wall track per rank on the
        trace); requires ``trace``.
        """
        extras, wall_epoch = self._start(rank_args, trace, wall_trace)
        transport = LocalTransport(self.size, self.recv_timeout)
        comms = [rank_comm(r, self.size, self.cost, transport.endpoint(r),
                           self.fault_plan, trace, wall_epoch)
                 for r in range(self.size)]
        states = [_RankState() for _ in range(self.size)]

        def runner(rank: int) -> None:
            try:
                transport.await_turn(rank)  # run to block, see LocalTransport
                states[rank].value = main(comms[rank], *args, *extras[rank])
            except BaseException as exc:  # propagate to the caller
                states[rank].error = exc
                transport.close()
            finally:
                transport.hand_on()

        threads = [
            threading.Thread(target=runner, args=(r,),
                             name=f"vrank-{r}", daemon=True)
            for r in range(self.size)
        ]
        for t in threads:
            t.start()
        transport.hand_on()
        for t in threads:
            t.join()

        ranks = [
            rank_result(r, states[r].value, comms[r].machine_state(),
                        None if states[r].error is None else
                        f"{type(states[r].error).__name__}: "
                        f"{states[r].error}")
            for r in range(self.size)
        ]
        errors = [(r, s.error) for r, s in enumerate(states) if s.error]
        if errors:
            # Even a failed run yields a well-formed report — every rank
            # appears, including ranks that died before their first clock
            # tick — attached to the raised error for diagnostics.
            raise_primary_error(errors, partial_report=RunReport(ranks))
        if not trace:
            return RunReport(ranks)
        return RunReport(ranks, trace=Trace.from_ranks(
            [c.trace for c in comms], [c.clock.now for c in comms]))
