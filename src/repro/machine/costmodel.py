"""Communication and computation cost model for the virtual machine.

The model is LogGP-flavoured and matches the one used throughout
Kumar, Grama, Gupta & Karypis, *Introduction to Parallel Computing* (the
paper's reference [20]): a point-to-point message of ``m`` bytes travelling
``l`` hops costs

    t_s + l * t_h + m * t_w            (seconds of virtual time)

on both the sending and receiving rank's clock (the sender is released
after the start-up; the message *arrives* at
``send_clock + t_s + l*t_h + m*t_w``).  Computation is charged explicitly
by the algorithm in floating-point operations; one flop costs
``1 / flops_per_second``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.topology import Topology, make_topology


@dataclass(frozen=True)
class MachineProfile:
    """Calibrated parameters of a target machine.

    Parameters
    ----------
    name:
        Human-readable machine name (``"nCUBE2"``, ``"CM5"``...).
    topology_kind:
        ``"hypercube"``, ``"mesh"`` or ``"fattree"``.
    t_s:
        Message start-up latency in seconds.
    t_h:
        Per-hop latency in seconds.
    t_w:
        Per-byte transfer time in seconds.
    flops_per_second:
        Sustained scalar floating-point rate of one processing element on
        treecode-like (branchy, non-vectorizable) inner loops.  This is
        deliberately far below peak: the paper's own measured force rates
        imply a sustained rate well under 1 MFLOPS on the nCUBE2.
    memory_bytes:
        Per-node memory (the nCUBE2 nodes had only 4 MB, which limited the
        paper's problem sizes).
    topology_kwargs:
        Extra arguments forwarded to the topology factory (e.g. fat-tree
        arity).
    """

    name: str
    topology_kind: str
    t_s: float
    t_h: float
    t_w: float
    flops_per_second: float
    memory_bytes: int = 4 * 1024 * 1024
    topology_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.t_s < 0 or self.t_h < 0 or self.t_w < 0:
            raise ValueError("cost parameters must be non-negative")
        if self.flops_per_second <= 0:
            raise ValueError("flops_per_second must be positive")

    def make_topology(self, size: int) -> Topology:
        return make_topology(self.topology_kind, size, **self.topology_kwargs)

    @property
    def flop_time(self) -> float:
        """Seconds of virtual time per floating-point operation."""
        return 1.0 / self.flops_per_second


class CostModel:
    """Binds a :class:`MachineProfile` to a concrete machine size."""

    def __init__(self, profile: MachineProfile, size: int):
        self.profile = profile
        self.topology = profile.make_topology(size)
        self.size = size

    def compute_time(self, flops: float, slowdown: float = 1.0) -> float:
        """Virtual seconds for ``flops`` floating-point operations.

        ``slowdown >= 1`` models a degraded node whose effective
        ``flops_per_second`` is the profile's rate divided by the factor
        (fault injection: thermal throttling, an oversubscribed core...).
        """
        if flops < 0:
            raise ValueError(f"negative flop count {flops}")
        if slowdown < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {slowdown}")
        return flops * self.profile.flop_time * slowdown

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostModel({self.profile.name}, p={self.size})"


#: Bytes occupied by one particle coordinate record in a function-shipping
#: bin: three 32-bit coordinates plus a 32-bit branch-node key, as in the
#: paper ("the particle coordinates and the key").
PARTICLE_RECORD_BYTES = 16

#: Bytes occupied by one returned potential (a float) or force (3 floats).
POTENTIAL_RECORD_BYTES = 4
FORCE_RECORD_BYTES = 12


def multipole_series_bytes(degree: int, dims: int = 3) -> int:
    """Wire size of one multipole expansion plus its origin.

    The paper (Section 4.2.1): in 2-D the series has ``O(k)`` terms, in 3-D
    ``O(k^2)`` -- "a 6 degree multipole expansion consists of 36 complex
    numbers or 72 floating point numbers".  We count ``k^2`` complex terms
    (i.e. ``2 k^2`` floats) plus a 3-float origin and a 1-float total mass,
    using 32-bit floats as on the paper's machines.
    """
    if degree < 0:
        raise ValueError(f"negative multipole degree {degree}")
    if dims == 2:
        nterms = max(degree, 1)
        return 4 * (2 * nterms + 3)
    nterms = max(degree * degree, 1)
    return 4 * (2 * nterms + 4)
