"""Particle advance and the load record the next balancer reads.

:func:`euler_advance` kicks and drifts every particle after one force
evaluation; :func:`block_schedule` runs one KDK macro step over the
block-timestep rungs, evaluating forces on every substep itself.
Functions take the rank's state as :mod:`repro.core.forest` does, and
also use its owner map, exchange and bin state (``rungs``, ``accel``).
"""

from __future__ import annotations

import numpy as np

from repro.bh import blockstep
from repro.bh.morton import morton_keys
from repro.core.exchange import PHASE_BALANCE
from repro.core.forest import Forest, build_forest, refresh_forest
from repro.core.function_shipping import ForceResult
from repro.core.load_model import cluster_loads, particle_loads
from repro.core.partition import Cell
from repro.core.tree_build import LocalSubtree

PHASE_ADVANCE = "particle advance"


def euler_advance(rank, dt: float, accel: np.ndarray) -> None:
    """Kick then drift every particle by ``dt`` under ``accel``."""
    p, comm = rank.particles, rank.comm
    if not p.n:
        return
    with comm.clock.phase(PHASE_ADVANCE):
        p.velocities += dt * accel
        p.positions += dt * p.velocities
        np.clip(p.positions, rank.root.lo,
                rank.root.hi - 1e-9 * rank.root.side, out=p.positions)
        comm.compute(6.0 * rank.dims * p.n)
    rank.keys = None        # positions moved: keys are stale


def block_schedule(rank, forest: Forest, cells: list[Cell], dt: float
                   ) -> tuple[ForceResult, Forest, np.ndarray]:
    """One KDK macro step of ``dt`` over the block-timestep rung
    hierarchy (``timestep="fixed"`` runs it with a single rung), from a
    freshly built ``forest``.  Returns the aggregated
    :class:`ForceResult`, the final forest and the requester-side cost
    per particle accumulated over the substeps (reset on a mid-macro
    exchange — a lossy but safe approximation of a rare event).

    Every substep is collective on every rank — the R allreduce, the
    stray allreduce, the branch merge and the function-shipping bin
    protocol all run even on ranks with no starters/finishers — so the
    virtual machine's collectives stay aligned.
    """
    comm, cfg = rank.comm, rank.config
    max_rungs = 1 if cfg.timestep == "fixed" else cfg.max_rungs
    agg = ForceResult(values=np.zeros(0))
    requester = np.zeros(rank.particles.n)

    def run_forces(targets_idx):
        res = forest.fs.run(targets_idx=targets_idx)
        agg.merge(res)
        if requester.size == forest.fs.requester_flops.size:
            requester[:] += forest.fs.requester_flops
        return res.values

    if rank.rungs is None or rank.rungs.size != rank.particles.n:
        # First macro step (or a pre-block checkpoint): bootstrap the
        # bin state with one full force evaluation.  All ranks enter
        # this branch together — rungs are None everywhere before the
        # first macro step and ride every exchange and checkpoint
        # afterwards — so the extra collective is aligned.
        rank.accel = run_forces(None)
        rank.rungs = blockstep.assign_rungs(
            rank.accel, dt, cfg.dt_eta, cfg.softening, max_rungs)
        comm.metrics.counter("timestep.bootstraps").inc()
    R_local = (int(rank.rungs.max()) + 1 if rank.rungs.size else 1)
    R = int(comm.allreduce(R_local, max))
    hi_clip = rank.root.hi - 1e-9 * rank.root.side

    for j in range(1 << (R - 1)):
        rungs = rank.rungs
        starters = blockstep.starters(rungs, R, j)
        with comm.clock.phase(PHASE_ADVANCE):
            if starters.size:
                p = rank.particles
                blockstep.open_steps(p, rank.accel, rungs, starters, dt,
                                     rank.root.lo, hi_clip)
                comm.compute(6.0 * rank.dims * starters.size)
                if rank.keys is not None:
                    # Incremental re-key: only movers re-quantize.
                    rank.keys[starters] = morton_keys(
                        p.positions[starters], rank.root.lo,
                        rank.root.side, rank.bits)
                comm.metrics.counter("timestep.drifted").inc(
                    int(starters.size))
        keys = rank.current_keys()
        owners = rank.owners(keys)
        stray = bool(np.any(owners != comm.rank))
        if comm.allreduce(stray, lambda a, b: a or b):
            # A drift crossed a domain boundary mid-macro: move the
            # strays (bin state rides the shards) and rebuild the
            # forest.  Requester-side load attribution resets — it is
            # observability, not state.
            with comm.clock.phase(PHASE_BALANCE):
                rank.exchange(owners, keys)
            comm.metrics.counter("timestep.midmacro_exchanges").inc()
            forest = build_forest(rank, cells)
            requester = np.zeros(rank.particles.n)
        else:
            forest = refresh_forest(rank, forest, cells, starters)
        rungs = rank.rungs          # exchange may have permuted them
        finishers = blockstep.finishers(rungs, R, j)
        vals = run_forces(finishers)
        if finishers.size:
            a_new = vals[finishers]
            blockstep.close_steps(rank.particles, rank.accel, rungs,
                                  finishers, dt, a_new)
            want = blockstep.assign_rungs(a_new, dt, cfg.dt_eta,
                                          cfg.softening, max_rungs)
            rungs[finishers] = blockstep.next_rungs(
                want, rungs[finishers], R, j)
            with comm.clock.phase(PHASE_ADVANCE):
                comm.compute((3.0 * rank.dims + 10.0) * finishers.size)
        comm.metrics.counter("timestep.substeps").inc()
        comm.metrics.counter("timestep.force_targets").inc(
            int(finishers.size))

    comm.metrics.counter("timestep.macro_steps").inc()
    for r in range(max_rungs):
        comm.metrics.counter(f"timestep.bin_{r}").inc(
            int((rank.rungs == r).sum()))
    agg.values = rank.accel.copy()
    return agg, forest, requester


def record_loads(rank, subtrees: list[LocalSubtree],
                 requester_flops: np.ndarray) -> None:
    """Measured loads feed the *next* step's balancer (SPDA's cluster
    loads, DPDA's per-particle costzones loads): subtree interaction
    counters (owner-side work, in model flops) plus the requester-side
    top-tree cost of each local particle (binned by the particles'
    *current* cluster keys, so it must run before an advance)."""
    from repro.analysis.flops import interaction_flops
    comm, cfg = rank.comm, rank.config
    per_int = interaction_flops(cfg.degree)
    # Loads are scaled by this rank's measured effective slowdown so
    # they are expressed in *time*, not flops: a degraded rank reports
    # its work as proportionally heavier and the next step's balancer
    # sheds load off it (the paper's own dynamic-assignment machinery
    # doubles as the graceful-degradation mechanism).
    slow = comm.slowdown
    if cfg.scheme == "spda":
        r = cfg.clusters(rank.dims)
        arr = np.zeros(r)
        for key, load in cluster_loads(subtrees).items():
            arr[key] = load * per_int
        if rank.particles.n:
            ckeys = rank.cluster_of(rank.current_keys())
            np.add.at(arr, ckeys, requester_flops)
        rank.cluster_load = arr * slow
    elif cfg.scheme == "dpda":
        rank.my_particle_loads = (
            particle_loads(subtrees, rank.particles.n) * per_int
            + requester_flops
        ) * slow
