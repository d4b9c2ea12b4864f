"""DPDA: message-passing Costzones over the interaction-counting tree.

Paper, Section 3.3.3: every tree node counts the particles it interacted
with; counts are summed up the tree; the root then holds the total work
W; processors locate the load boundaries ``i W / p`` by in-order (Morton
order) traversal and ship the particles between boundaries to processor
``i`` with one all-to-all personalized communication.

Because every tree node's particles form a contiguous slice of the
Morton order (a build invariant), "in-order traversal of the tree" is
equivalent to a prefix scan along the Morton-sorted particle sequence
once node loads are attributed to the particles below them
(:func:`particle_loads_from_tree`).  :func:`costzones_boundaries` is the
distributed search a DPDA step runs; :func:`costzones_owners` is the
serial midpoint-rule split, which SPDA's cluster balancer uses.
"""

from __future__ import annotations

import numpy as np

from repro.bh.tree import Tree
from repro.machine.comm import Comm


def particle_loads_from_tree(tree: Tree) -> np.ndarray:
    """Per-particle load, in *original particle index* order.

    Each node's interaction count is spread evenly over the particles in
    its Morton slice; summing over all ancestors gives every particle the
    share of tree work its position is responsible for.  (Function
    shipping attributes work to tree nodes, not particles — this is the
    translation back to movable units.)
    """
    loads_sorted = np.zeros(tree.n_particles)
    for node in range(tree.nnodes):
        if tree.is_remote(node):
            continue
        cnt = int(tree.interactions[node])
        if cnt == 0:
            continue
        lo, hi = int(tree.start[node]), int(tree.end[node])
        if hi > lo:
            loads_sorted[lo:hi] += cnt / (hi - lo)
    loads = np.zeros(tree.n_particles)
    loads[tree.order] = loads_sorted
    return loads


def costzones_owners(sorted_loads: np.ndarray, p: int) -> np.ndarray:
    """Owner of each Morton-ordered particle: costzones boundaries.

    ``sorted_loads`` must already be in global Morton order; the result
    assigns contiguous runs to processors 0..p-1 with boundaries at the
    prefix loads ``i W / p`` (midpoint rule)."""
    loads = np.asarray(sorted_loads, dtype=np.float64)
    if loads.ndim != 1:
        raise ValueError("sorted_loads must be 1-D")
    if np.any(loads < 0):
        raise ValueError("loads must be non-negative")
    if p <= 0:
        raise ValueError(f"processor count must be positive, got {p}")
    if loads.size == 0:
        return np.zeros(0, dtype=np.int64)
    total = loads.sum()
    if total == 0.0:
        return (np.arange(loads.size) * p // loads.size).astype(np.int64)
    prefix = np.cumsum(loads)
    midpoints = prefix - 0.5 * loads
    owners = np.floor(midpoints * p / total).astype(np.int64)
    return np.clip(owners, 0, p - 1)


def costzones_boundaries(comm: Comm, keys: np.ndarray,
                         loads: np.ndarray | None, span: int) -> np.ndarray:
    """The ``p - 1`` Morton key boundaries of a load-balanced split of
    this rank's ``keys`` with ``loads`` (``None`` or stale: one each).

    Every rank holds a contiguous key range (the host deals
    Morton-contiguous chunks), so boundary ``i W / p`` is reported by
    the one rank whose prefix-load range contains it: the key of its
    first particle reaching the target.  Collective: two allgathers.
    """
    if keys.size and bool(np.all(keys[1:] >= keys[:-1])):
        # Already Morton-ascending (the usual cross-step case: the
        # balancing exchange concatenates sorted runs and slow particle
        # motion rarely reorders them).  A stable argsort of a sorted
        # array is the identity permutation, so this shortcut is
        # bitwise free.
        order = np.arange(keys.size)
    else:
        order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    loads = (loads[order] if loads is not None and loads.size == keys.size
             else np.ones(keys.size))
    totals = comm.allgather(float(loads.sum()))
    W = sum(totals)
    cum_before = sum(totals[:comm.rank])
    cum_incl = cum_before + totals[comm.rank]
    mine = []
    if W > 0:
        prefix = cum_before + np.cumsum(loads)
        for i in range(1, comm.size):
            t = i * W / comm.size
            if cum_before < t <= cum_incl and keys.size:
                j = int(np.searchsorted(prefix, t, side="left"))
                mine.append(int(keys_sorted[min(j, keys.size - 1)]))
    flat = sorted(b for reported in comm.allgather(mine) for b in reported)
    # Degenerate cases (W == 0, or a boundary target landing in a
    # zero-load gap) leave fewer than p-1 reports; missing boundaries
    # collapse to the end of key space (empty ranges).
    flat += [span] * (comm.size - 1 - len(flat))
    return np.asarray(flat[:comm.size - 1], dtype=np.int64)


def split_by_key_boundaries(keys: np.ndarray, owners: np.ndarray,
                            p: int) -> np.ndarray:
    """Snap a per-particle owner array to Morton *key* boundaries.

    Particles with identical keys cannot be separated into different
    subtrees (they occupy the same smallest cell), so runs of equal keys
    are given to the owner of the run's first particle.  Input arrays are
    in Morton-sorted order.
    """
    keys = np.asarray(keys)
    owners = np.asarray(owners).copy()
    if keys.shape != owners.shape:
        raise ValueError("keys and owners must have equal length")
    if keys.size == 0:
        return owners
    if np.any(np.diff(keys) < 0):
        raise ValueError("keys must be sorted")
    run_starts = np.flatnonzero(np.concatenate(([True], np.diff(keys) > 0)))
    run_ids = np.cumsum(np.concatenate(([True], np.diff(keys) > 0))) - 1
    return owners[run_starts][run_ids]
