"""The paper's contribution: parallel Barnes-Hut formulations.

Three schemes, all *function-shipping* (computation moves to the data):

* **SPSA** (:mod:`~repro.core.assignment`) — static partition into ``r``
  grid clusters, static Gray-code modular assignment to processors.
* **SPDA** (:mod:`~repro.core.morton_assign`) — same static clusters,
  dynamically re-assigned along the Morton order by measured load.
* **DPDA** (:mod:`~repro.core.costzones`) — message-passing Costzones:
  particle-granularity load boundaries located in the
  interaction-counting tree, one all-to-all personalized communication to
  move particles.

Shared machinery: the particle exchange (:mod:`~repro.core.exchange`),
distributed tree construction (:mod:`~repro.core.tree_build`), branch-node
exchange and replicated top-tree merge (:mod:`~repro.core.tree_merge`),
a rank's forest (:mod:`~repro.core.forest`) and advance
(:mod:`~repro.core.stepping`), branch-key lookup
(:mod:`~repro.core.branch_nodes`), particle bins with one-outstanding-bin
flow control (:mod:`~repro.core.bins`), the function-shipping force
engine (:mod:`~repro.core.function_shipping`), and a Warren-Salmon-style
data-shipping comparator (:mod:`~repro.core.data_shipping`).

Entry point: :class:`~repro.core.simulation.ParallelBarnesHut`.
"""

from repro.core.config import SchemeConfig
from repro.core.partition import (
    cluster_keys,
    cover_cells,
    Cell,
)
from repro.core.assignment import spsa_assignment
from repro.core.morton_assign import balance_clusters
from repro.core.costzones import costzones_owners
from repro.core.branch_nodes import (
    BranchInfo,
    HashedBranchIndex,
    SortedBranchIndex,
    branch_key,
)
from repro.core.checkpoint import DiskCheckpointStore, RankCheckpoint
from repro.core.simulation import (
    ParallelBarnesHut,
    SimulationResult,
    StepResult,
)

__all__ = [
    "SchemeConfig",
    "cluster_keys",
    "cover_cells",
    "Cell",
    "spsa_assignment",
    "balance_clusters",
    "costzones_owners",
    "BranchInfo",
    "HashedBranchIndex",
    "SortedBranchIndex",
    "branch_key",
    "ParallelBarnesHut",
    "SimulationResult",
    "StepResult",
    "DiskCheckpointStore",
    "RankCheckpoint",
]
