"""Real-parallel process runtime: the second execution substrate.

The virtual machine (:mod:`repro.machine`) runs every rank as a thread
in one interpreter and reports *virtual* time; no scheme can ever beat
one host core.  This package executes the exact same rank programs on
real ``multiprocessing`` workers — one OS process per rank, every
message pickled whole by its sender and sent over a pipe — while
charging the same virtual costs through the same
:class:`~repro.machine.comm.Comm`, so the two backends are bitwise
cross-validatable and the process backend adds real multi-core
host-time speedup on top.

* :class:`~repro.runtime.process_engine.ProcessEngine` — drop-in
  engine with the :class:`~repro.machine.engine.Engine` ``RunReport``
  contract and the same rank lifecycle, supervising its workers
  through heartbeats and exit codes.
* :class:`~repro.runtime.process_transport.ProcessTransport` — the
  per-rank queue message transport.
* :mod:`~repro.runtime.supervision` — telemetry board (heartbeats,
  current phase, bytes, RSS) and exit-code classification behind the
  worker-loss verdicts that crash recovery acts on; the respawn budget
  and backoff it acts with are
  :class:`~repro.core.checkpoint.RestartPolicy`, applied by
  :class:`~repro.core.checkpoint.Rollback`.
* :mod:`~repro.runtime.telemetry` — host-side board sampler, live
  progress display and the ``--events-out`` JSON-lines event stream.
"""

from repro.runtime.process_engine import (
    ProcessEngine,
    ProcessWatchdogError,
    RemoteRankError,
    WorkerLostError,
)
from repro.runtime.process_transport import ProcessTransport
from repro.runtime.supervision import (
    HeartbeatBoard,
    RankDiagnostics,
    classify_exit,
)
from repro.runtime.telemetry import (
    EventLog,
    LiveDisplay,
    RankTelemetry,
    TelemetrySampler,
)

__all__ = [
    "EventLog",
    "HeartbeatBoard",
    "LiveDisplay",
    "ProcessEngine",
    "ProcessTransport",
    "ProcessWatchdogError",
    "RankDiagnostics",
    "RankTelemetry",
    "RemoteRankError",
    "TelemetrySampler",
    "WorkerLostError",
    "classify_exit",
]
