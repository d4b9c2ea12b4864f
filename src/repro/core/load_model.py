"""Load accounting for the function-shipping schemes (Section 3.3).

"For function-shipping schemes [tracking per-particle work] will not work
since the load is associated with the tree nodes and not the particles...
each node in the tree keeps track of the number of particles it interacts
with."  The traversal already increments those per-node counters; this
module turns them into the units each balancer consumes:

* per-*cluster* loads for SPDA (one number per owned grid cell), and
* per-*particle* loads for DPDA (node counts attributed down the tree).
"""

from __future__ import annotations

import numpy as np

from repro.core.costzones import particle_loads_from_tree
from repro.core.tree_build import LocalSubtree


def cluster_loads(subtrees: list[LocalSubtree]) -> dict[int, float]:
    """Measured load per owned cluster: the sum of interaction counters
    over the cluster's subtree (includes work served for other ranks —
    the defining property of function-shipping load)."""
    return {
        st.cell.path_key: float(st.tree.interactions.sum())
        for st in subtrees
    }


def particle_loads(subtrees: list[LocalSubtree],
                   n_local: int) -> np.ndarray:
    """Per-local-particle loads for DPDA, aligned with the rank's
    particle arrays."""
    loads = np.zeros(n_local)
    for st in subtrees:
        loads[st.local_idx] = particle_loads_from_tree(st.tree)
    return loads

