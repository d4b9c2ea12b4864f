"""Virtual message-passing machine.

This subpackage simulates the message-passing multicomputers the paper ran
on (a 256-processor nCUBE2 hypercube and a 256-processor CM5 fat-tree).
Ranks execute real Python code, one thread per rank, and communicate through
an MPI-like :class:`~repro.machine.comm.Comm`.  Wall-clock time is *not*
what is reported; instead every rank carries a deterministic virtual clock
(:mod:`repro.machine.clock`) charged with

* compute time, via per-flop charges using the paper's own instruction
  counts, and
* communication time, via a LogGP-style model (start-up ``t_s``, per-hop
  ``t_h``, per-byte ``t_w``) parameterised by a
  :class:`~repro.machine.costmodel.MachineProfile`.

Collective operations are implemented *on top of* point-to-point messages
with the textbook hypercube algorithms, so their virtual cost reflects the
underlying topology, exactly as on the paper's machines.
"""

from repro.machine.topology import (
    Topology,
    HypercubeTopology,
    MeshTopology,
    FatTreeTopology,
    gray_code,
)
from repro.machine.costmodel import CostModel, MachineProfile
from repro.machine.profiles import NCUBE2, CM5, T3E, ZERO_COST, get_profile
from repro.machine.clock import VirtualClock, PhaseTimings
from repro.machine.comm import Comm, DeadlockError
from repro.machine.engine import Engine, RankResult, RunReport
from repro.machine.faults import (
    FaultInjector,
    FaultPlan,
    RankCrashedError,
)
from repro.machine.mailbox import MailboxClosedError
from repro.machine.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.machine.trace import (
    PhaseSpan,
    RankTrace,
    RecvEvent,
    SendEvent,
    Trace,
)

__all__ = [
    "Topology",
    "HypercubeTopology",
    "MeshTopology",
    "FatTreeTopology",
    "gray_code",
    "CostModel",
    "MachineProfile",
    "NCUBE2",
    "CM5",
    "T3E",
    "ZERO_COST",
    "get_profile",
    "VirtualClock",
    "PhaseTimings",
    "Comm",
    "DeadlockError",
    "Engine",
    "RankResult",
    "RunReport",
    "FaultInjector",
    "FaultPlan",
    "RankCrashedError",
    "MailboxClosedError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseSpan",
    "RankTrace",
    "RecvEvent",
    "SendEvent",
    "Trace",
]
