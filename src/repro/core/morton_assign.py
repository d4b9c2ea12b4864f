"""SPDA: Morton-ordered, load-driven cluster assignment.

Paper, Section 3.3.2: clusters keep their static grid partition but are
assigned to processors as *contiguous runs of the Morton ordering*, sized
by the load each cluster incurred in the previous iteration.  The paper
phrases the rebalance incrementally (import from / export to the Morton
neighbour); :func:`balance_clusters` computes the equivalent prefix-sum
split directly — the costzones midpoint rule of
:func:`~repro.core.costzones.costzones_owners` over cluster loads — and
reports how many clusters changed owner (the "cluster data movement"
cost).
"""

from __future__ import annotations

import numpy as np

from repro.core.costzones import costzones_owners


def balance_clusters(loads: np.ndarray, current_owners: np.ndarray | None,
                     p: int) -> tuple[np.ndarray, int]:
    """One SPDA rebalance step.

    Returns ``(new_owners, moved)`` where ``moved`` is the number of
    clusters whose owner changed (each costs a cluster-data transfer;
    the paper argues this is small because "cluster loads are not
    expected to change drastically after each iteration").
    """
    new_owners = costzones_owners(loads, p)
    if current_owners is None:
        moved = int(new_owners.size)
    else:
        current_owners = np.asarray(current_owners)
        if current_owners.shape != new_owners.shape:
            raise ValueError("current_owners has the wrong length")
        moved = int((current_owners != new_owners).sum())
    return new_owners, moved
