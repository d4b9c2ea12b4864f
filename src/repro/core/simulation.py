"""The parallel Barnes-Hut simulation orchestrator.

``ParallelBarnesHut`` runs the paper's full per-time-step pipeline on the
virtual machine:

    decompose / balance -> exchange particles -> build local trees ->
    exchange branch nodes, merge top tree -> function-shipping force
    computation -> advance particles

with every phase attributed to the virtual clock under the paper's phase
names (Table 3): "local tree construction", "tree merging", "all-to-all
broadcast", "force computation", "load balancing".

Scheme-specific decomposition:

* SPSA — static Gray-code assignment of grid clusters; the particle
  placement is charged to setup, never to load balancing ("the SPSA
  scheme spends no time in balancing load since load balance is
  implicit").
* SPDA — grid clusters re-assigned each step along the Morton order by
  the loads measured in the previous step.
* DPDA — Costzones: global load boundaries located in the
  interaction-counting trees; Morton key-space ranges per processor,
  turned into branch cells by canonical cover; one all-to-all
  personalized communication moves the particles.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro.bh import morton as _morton
from repro.bh import blockstep
from repro.bh.morton import morton_keys
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree_repair import repair_tree
from repro.core.assignment import clusters_of_rank, spsa_assignment
from repro.core.branch_nodes import branch_key
from repro.core.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    DiskCheckpointStore,
    RankCheckpoint,
    RestartPolicy,
)
from repro.core.config import SchemeConfig
from repro.core.function_shipping import ForceResult, FunctionShippingEngine
from repro.core.load_model import cluster_loads, particle_loads
from repro.core.morton_assign import balance_clusters
from repro.core.partition import Cell, cover_cells
from repro.core.tree_build import LocalSubtree, assign_to_cells, \
    build_local_trees, build_subtrees, group_by_cell, local_branch_infos, \
    subtree_budgets, subtree_keys, tree_build_flops
from repro.core.tree_merge import merge_broadcast, merge_nonreplicated
from repro.machine.comm import Comm
from repro.machine.costmodel import MachineProfile
from repro.machine.engine import Engine, RunReport
from repro.machine.faults import FaultPlan, RankCrashedError
from repro.machine.metrics import MetricsRegistry
from repro.machine.profiles import NCUBE2
from repro.machine.trace import Trace, Tracer

PHASE_SETUP = "setup"
PHASE_BALANCE = "load balancing"
PHASE_TREE = "local tree construction"
PHASE_ADVANCE = "particle advance"
PHASE_REPAIR = "tree repair"

#: flops charged per particle for balance bookkeeping / binning.
BALANCE_FLOPS_PER_PARTICLE = 5.0


@dataclass
class StepResult:
    """Per-rank record of one time-step (returned to the host)."""

    n_local: int
    force: ForceResult
    moved_in: int = 0      # net particles gained in the balancing exchange
    virtual_seconds: float = 0.0   # this rank's clock time for the step


@dataclass
class SimulationResult:
    """Host-side aggregate of a parallel run."""

    run: RunReport
    config: SchemeConfig
    values: np.ndarray         # final-step potentials (n,) or forces (n, d)
    positions: np.ndarray      # final particle positions, original order
    velocities: np.ndarray
    steps: list[list[StepResult]]   # [step][rank]
    recoveries: int = 0        # crash-recovery rollbacks performed
    #: Step boundary this run resumed from (``--resume``), else None.
    resumed_from: int | None = None
    #: Host-side registry (``recovery.*``): restarts, rollback steps
    #: lost, recovery wall/quiesce seconds.  None when checkpointing
    #: was off.
    host_metrics: MetricsRegistry | None = None

    @property
    def parallel_time(self) -> float:
        return self.run.parallel_time

    @property
    def trace(self) -> Trace | None:
        """Event trace of the (final) run, when traced."""
        return self.run.trace

    def metrics_summary(self) -> MetricsRegistry:
        """Machine-wide merged metrics registry of the (final) run,
        host-side recovery metrics included."""
        merged = self.run.metrics_summary()
        if self.host_metrics is not None:
            merged.merge_from(self.host_metrics)
        return merged

    def fault_summary(self) -> dict[str, int]:
        """Injected-fault / recovery counters of the (final) run."""
        return self.run.fault_summary()

    def phase_breakdown(self) -> dict[str, float]:
        return self.run.phase_max()

    def force_computations(self) -> int:
        """Total interactions F, the quantity the paper annotates its
        problem instances with (cluster + particle-particle)."""
        return sum(
            sr.force.cluster_interactions + sr.force.p2p_interactions
            for step in self.steps for sr in step
        )

    def total_flops(self, degree: int) -> float:
        from repro.analysis.flops import traversal_flops
        return sum(
            traversal_flops(sr.force.mac_tests,
                            sr.force.cluster_interactions,
                            sr.force.p2p_interactions, degree)
            for step in self.steps for sr in step
        )

    def walk_reuse(self) -> tuple[int, int]:
        """Interaction-list traffic: total (walks_built, walks_reused)
        across all steps and ranks.  The second is always 0: the force
        phase streams its lists and drops them, so no walk is reused;
        the pair shape stays for callers that read both."""
        return sum(sr.force.walks_built
                   for step in self.steps for sr in step), 0

    def load_imbalance(self) -> float:
        return self.run.load_imbalance("force computation")

    def step_time(self, step: int) -> float:
        """Virtual time of one step: max over ranks (the paper times a
        single iteration after a few warm-up steps)."""
        return max(sr.virtual_seconds for sr in self.steps[step])

    @property
    def last_step_time(self) -> float:
        return self.step_time(len(self.steps) - 1)


class _Shard:
    """One outgoing particle chunk plus its precomputed Morton keys.

    The keys ride along so the receiver can skip re-quantization; they
    are pure derived data — bitwise recomputable from the chunk's
    positions against the fixed root grid — so ``nbytes`` charges only
    the particle payload and the virtual communication cost of the
    exchange is identical to shipping bare :class:`ParticleSet` chunks.

    Block-timestep runs additionally carry per-particle ``rungs`` and
    stored ``accel`` (the half-kick state of the KDK hierarchy).  Unlike
    keys these are *state*, not derived data — they cannot be recomputed
    from positions — so their bytes ARE charged to the exchange.
    """

    __slots__ = ("particles", "keys", "rungs", "accel")

    def __init__(self, particles: ParticleSet, keys: np.ndarray,
                 rungs: np.ndarray | None = None,
                 accel: np.ndarray | None = None):
        self.particles = particles
        self.keys = keys
        self.rungs = rungs
        self.accel = accel

    @property
    def nbytes(self) -> int:
        extra = 0
        if self.rungs is not None:
            extra += self.rungs.nbytes
        if self.accel is not None:
            extra += self.accel.nbytes
        return self.particles.nbytes + extra


def _exchange(comm: Comm, particles: ParticleSet, owners: np.ndarray,
              keys: np.ndarray, rungs: np.ndarray | None = None,
              accel: np.ndarray | None = None):
    """All-to-all personalized particle movement to new owners.

    Every chunk carries its particles' Morton ``keys``; with
    ``rungs``/``accel`` given (block timesteps), the per-particle bin
    state rides the same shards — their bytes charged.  Returns the
    received ``(particles, keys, rungs, accel)``, the last two ``None``
    when no bin state was sent.
    """
    extras = rungs is not None
    outgoing = []
    shipped = 0
    for dst in range(comm.size):
        idx = np.flatnonzero(owners == dst)
        if dst != comm.rank:
            shipped += idx.size
        if idx.size == 0:
            outgoing.append(None)
        else:
            outgoing.append(_Shard(
                particles.subset(idx), keys[idx],
                rungs[idx] if extras else None,
                accel[idx] if extras else None))
    comm.metrics.counter("sim.particles_shipped").inc(shipped)
    comm.compute(BALANCE_FLOPS_PER_PARTICLE * particles.n)
    incoming = comm.alltoall(outgoing)
    shards = [sh for sh in incoming if sh is not None and sh.particles.n]
    d = particles.dims
    if not shards:
        return (ParticleSet.empty(d), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64) if extras else None,
                np.zeros((0, d)) if extras else None)
    return (ParticleSet.concatenate([sh.particles for sh in shards]),
            np.concatenate([sh.keys for sh in shards]),
            np.concatenate([sh.rungs for sh in shards]) if extras else None,
            np.concatenate([sh.accel for sh in shards], axis=0)
            if extras else None)


@dataclass
class _Forest:
    """One rank's forest of owned-cell subtrees plus the force engine
    over them; a block-timestep macro step refreshes it every substep,
    reusing or repairing the trees.  ``keys`` snapshots the depth-``bits``
    Morton keys the trees were built from (the next repair's ``old_keys``).
    """

    subtrees: list[LocalSubtree]
    fs: FunctionShippingEngine
    keys: np.ndarray


class _RankState:
    """Everything a rank carries across time-steps."""

    def __init__(self, comm: Comm, config: SchemeConfig, root: Box,
                 bits: int, particles: ParticleSet):
        self.comm = comm
        self.config = config
        self.root = root
        self.bits = bits
        self.particles = particles
        self.dims = root.dims
        self._last_values: np.ndarray | None = None
        # Depth-``bits`` Morton keys aligned with ``self.particles``,
        # carried across phases and through the balancing exchange;
        # None whenever positions may have changed since they were
        # computed (advance, restore).
        self._keys: np.ndarray | None = None
        # SPSA/SPDA cluster state
        self.cluster_owners: np.ndarray | None = None
        self.cluster_load: np.ndarray | None = None
        # DPDA state
        self.key_boundaries: np.ndarray | None = None
        self.my_particle_loads: np.ndarray | None = None
        # Block-timestep state (KDK integrator): per-particle rung bins
        # and the stored accelerations that source opening half-kicks.
        # None until the first macro step bootstraps them; ride the
        # balancing exchange and the checkpoint so recovery is bitwise.
        self.rungs: np.ndarray | None = None
        self.accel: np.ndarray | None = None

    # ---------------------------------------------- checkpoint / restore
    def snapshot(self, next_step: int,
                 results: list[StepResult]) -> RankCheckpoint:
        """Everything carried across steps (quiescent point): this
        rank's simulation state and its comm's machine state.

        The checkpoint shares this rank's live arrays: the store pickles
        it before the rank moves on.
        """
        return RankCheckpoint(
            rank=self.comm.rank, step=next_step,
            particles=self.particles,
            cluster_owners=self.cluster_owners,
            cluster_load=self.cluster_load,
            key_boundaries=self.key_boundaries,
            my_particle_loads=self.my_particle_loads,
            last_values=self._last_values,
            results=results,
            rungs=self.rungs,
            accel=self.accel,
            **self.comm.machine_state(),
        )

    def restore(self, ckpt: RankCheckpoint) -> None:
        """Adopt a checkpoint's state, the comm's included (global
        rollback).

        ``ckpt`` is this rank's own, freshly read from the store: its
        arrays are adopted, not copied.
        """
        self.particles = ckpt.particles
        self.cluster_owners = ckpt.cluster_owners
        self.cluster_load = ckpt.cluster_load
        self.key_boundaries = ckpt.key_boundaries
        self.my_particle_loads = ckpt.my_particle_loads
        self._last_values = ckpt.last_values
        # A pickle without these keys reads the class defaults (None).
        self.rungs = ckpt.rungs
        self.accel = ckpt.accel
        self._keys = None
        self.comm.restore_machine_state(ckpt)

    # ------------------------------------------------------- exchange
    def _do_exchange(self, owners: np.ndarray, keys: np.ndarray) -> None:
        """Run the balancing exchange; block-timestep bin state (rungs /
        stored accelerations) rides the shards whenever it exists."""
        self.particles, self._keys, self.rungs, self.accel = _exchange(
            self.comm, self.particles, owners, keys, self.rungs,
            self.accel)

    # ------------------------------------------------------ morton keys
    def _rank_keys(self) -> np.ndarray:
        """Morton keys (depth ``self.bits``) of the current particles.

        Cache hits are bitwise equal to recomputation — keys depend only
        on positions and the fixed root grid, and the cache is dropped
        whenever positions change.
        """
        if self._keys is None or self._keys.size != self.particles.n:
            self._keys = morton_keys(self.particles.positions,
                                     self.root.lo, self.root.side,
                                     self.bits)
        return self._keys

    def _cluster_keys_from(self, keys: np.ndarray) -> np.ndarray:
        """Static-grid cluster keys derived from full-depth Morton keys.

        Truncating a depth-``bits`` key to its top ``dims * grid_level``
        bits is *exactly* the grid-level quantization: both floor the
        same power-of-two scaling of the same coordinates, and Morton
        interleaving keeps the coarse bits on top.
        """
        g = self.config.grid_level
        if g == 0:
            return np.zeros(keys.size, dtype=np.int64)
        return keys >> (self.dims * (self.bits - g))

    # -------------------------------------------------- decomposition
    def decompose(self, step: int) -> list[Cell]:
        cfg, comm = self.config, self.comm
        phase = PHASE_SETUP if step == 0 else PHASE_BALANCE
        if cfg.scheme == "spsa":
            # Assignment is static; placement cost is setup, always.
            with comm.clock.phase(PHASE_SETUP):
                if self.cluster_owners is None:
                    self.cluster_owners = spsa_assignment(
                        cfg.grid_level, comm.size, self.dims
                    )
                keys = self._rank_keys()
                owners = self.cluster_owners[self._cluster_keys_from(keys)]
                self._do_exchange(owners, keys)
            return [Cell(cfg.grid_level, int(k)) for k in
                    clusters_of_rank(self.cluster_owners, comm.rank)]

        if cfg.scheme == "spda":
            with comm.clock.phase(phase):
                r = cfg.clusters(self.dims)
                keys = self._rank_keys()
                ckeys = self._cluster_keys_from(keys)
                if self.cluster_load is None:
                    # First iteration: particle counts stand in for load.
                    local = np.zeros(r)
                    np.add.at(local, ckeys, 1.0)
                else:
                    local = self.cluster_load
                loads = comm.allreduce(local, lambda a, b: a + b)
                self.cluster_owners, _ = balance_clusters(
                    loads, self.cluster_owners, comm.size
                )
                comm.compute(2.0 * r)  # prefix scan over the sorted list
                owners = self.cluster_owners[ckeys]
                self._do_exchange(owners, keys)
            return [Cell(cfg.grid_level, int(k)) for k in
                    clusters_of_rank(self.cluster_owners, comm.rank)]

        # DPDA
        with comm.clock.phase(phase):
            keys = self._rank_keys()
            if keys.size and bool(np.all(keys[1:] >= keys[:-1])):
                # Already Morton-ascending (the usual cross-step case:
                # the balancing exchange concatenates sorted runs and
                # slow particle motion rarely reorders them).  A stable
                # argsort of a sorted array is the identity permutation,
                # so this shortcut is bitwise free.
                order = np.arange(keys.size)
            else:
                order = np.argsort(keys, kind="stable")
            keys_sorted = keys[order]
            loads = (self.my_particle_loads[order]
                     if self.my_particle_loads is not None
                     and self.my_particle_loads.size == keys.size
                     else np.ones(keys.size))
            # Global prefix structure: every rank owns a contiguous key
            # range (invariant after step 0; before it, ranks were dealt
            # Morton-contiguous chunks by the host).
            totals = comm.allgather(float(loads.sum()))
            W = sum(totals)
            cum_before = sum(totals[:comm.rank])
            cum_incl = cum_before + totals[comm.rank]
            boundaries_local = []
            span = 1 << (self.dims * self.bits)
            if W > 0:
                # Boundary target i W / p is located by exactly one rank:
                # the one whose cumulative load range (cum_before,
                # cum_incl] contains it.  That rank reports the key of the
                # first local particle reaching the target.
                prefix = cum_before + np.cumsum(loads)
                for i in range(1, comm.size):
                    t = i * W / comm.size
                    if cum_before < t <= cum_incl and keys.size:
                        j = int(np.searchsorted(prefix, t, side="left"))
                        j = min(j, keys.size - 1)
                        boundaries_local.append(int(keys_sorted[j]))
            all_bnd = comm.allgather(boundaries_local)
            flat = sorted(b for lst in all_bnd for b in lst)
            # Degenerate cases (W == 0, or a boundary target landing in a
            # zero-load gap) leave fewer than p-1 reports; missing
            # boundaries collapse to the end of key space (empty ranges).
            while len(flat) < comm.size - 1:
                flat.append(span)
            self.key_boundaries = np.asarray(flat[:comm.size - 1],
                                             dtype=np.int64)
            owners = np.searchsorted(self.key_boundaries, keys,
                                     side="right")
            comm.compute(BALANCE_FLOPS_PER_PARTICLE * keys.size)
            self._do_exchange(owners, keys)
        bounds = np.concatenate(([0], self.key_boundaries, [span]))
        lo, hi = int(bounds[comm.rank]), int(bounds[comm.rank + 1])
        return cover_cells(lo, hi, self.bits, self.dims)

    # ------------------------------------- block timesteps (KDK macro)
    def _owners_from_keys(self, keys: np.ndarray) -> np.ndarray:
        """Owning rank of every key under the *current* decomposition
        (cluster map for SPSA/SPDA, key ranges for DPDA) — used by the
        mid-macro stray check without re-running the balancer."""
        if self.config.scheme in ("spsa", "spda"):
            return self.cluster_owners[self._cluster_keys_from(keys)]
        return np.searchsorted(self.key_boundaries, keys, side="right")

    def _merge_top(self, branches):
        cfg = self.config
        if cfg.merge == "broadcast":
            return merge_broadcast(self.comm, branches, self.root,
                                   cfg.degree, cfg.branch_lookup)
        return merge_nonreplicated(self.comm, branches, self.root,
                                   cfg.degree, cfg.branch_lookup)

    def _merged_forest(self, subtrees, branches, keys) -> _Forest:
        """Branch exchange + top-tree merge, and the force engine over
        the result."""
        fs = FunctionShippingEngine(self.comm, self.config,
                                    self._merge_top(branches), subtrees,
                                    self.particles)
        return _Forest(subtrees=subtrees, fs=fs, keys=keys.copy())

    def _build_forest(self, cells: list[Cell]) -> _Forest:
        """Full forest (re)build: trees, branch exchange, merge, fresh
        engines.  Collective (the merge) — every rank must call it."""
        comm, cfg = self.comm, self.config
        keys = self._rank_keys()
        with comm.clock.phase(PHASE_TREE):
            subtrees = build_local_trees(self.particles, cells, self.root,
                                         cfg, self.bits, keys=keys)
            depth = max((st.tree.node_depth_max() for st in subtrees),
                        default=1)
            comm.compute(tree_build_flops(self.particles.n, depth))
            branches = local_branch_infos(subtrees, comm.rank, self.root,
                                          cfg.degree)
        return self._merged_forest(subtrees, branches, keys)

    def _refresh_forest(self, forest: _Forest, cells: list[Cell],
                        starters: np.ndarray) -> _Forest:
        """Per-substep forest update after ``starters`` drifted (and no
        particle left the rank): reuse untouched subtrees verbatim,
        incrementally repair subtrees whose membership is unchanged,
        rebuild the rest.  Repaired trees are bitwise identical to full
        rebuilds (the :func:`repair_tree` contract), so tree_mode never
        changes results — only the virtual cost.  Collective (merge)."""
        comm, cfg = self.comm, self.config
        n = self.particles.n
        keys = self._rank_keys()
        metrics = comm.metrics
        with comm.clock.phase(PHASE_REPAIR):
            old_map = {st.key: st for st in forest.subtrees}
            slots = assign_to_cells(self.particles.positions, cells,
                                    self.root, self.bits, keys=keys)
            by_cell, bounds = group_by_cell(slots, len(cells))
            starter_mask = np.zeros(n, dtype=bool)
            starter_mask[starters] = True
            cell_depth = np.array([c.depth for c in cells], dtype=np.int64)
            budget, keyed = subtree_budgets(cell_depth, cfg, self.bits)
            # Triage every non-empty cell; rebuilds are collected and
            # built together, landing in their cell-order positions.
            subtrees: list[LocalSubtree | None] = []
            rebuild: list[int] = []         # cell indices ...
            rebuild_at: list[int] = []      # ... and their slots above
            touched = 0
            depth = 1
            for i, cell in enumerate(cells):
                idx = by_cell[bounds[i]:bounds[i + 1]]
                if idx.size == 0:
                    continue
                old = old_map.get(branch_key(cell, self.dims))
                same_members = (old is not None
                                and old.local_idx.size == idx.size
                                and bool(np.array_equal(old.local_idx,
                                                        idx)))
                movers = np.flatnonzero(starter_mask[idx])
                if same_members and movers.size == 0:
                    # Untouched: positions of every member are frozen
                    # this substep — tree and monopoles stay valid.
                    subtrees.append(old)
                    metrics.counter("repair.nodes_reused").inc(
                        old.tree.nnodes)
                elif same_members and keyed[i]:
                    sub = self.particles.subset(idx)
                    res = repair_tree(
                        old.tree, sub,
                        subtree_keys(cell.depth, budget[i],
                                     forest.keys[idx], self.bits, self.dims),
                        subtree_keys(cell.depth, budget[i], keys[idx],
                                     self.bits, self.dims),
                        movers)
                    subtrees.append(LocalSubtree(
                        cell=cell, key=old.key, particles=sub,
                        local_idx=idx, tree=res.tree))
                    if res.rebuilt:
                        metrics.counter("repair.full_rebuilds").inc()
                    else:
                        metrics.counter("repair.repairs").inc()
                    metrics.counter("repair.nodes_reused").inc(
                        res.nodes_reused)
                    metrics.counter("repair.nodes_rebuilt").inc(
                        res.nodes_rebuilt)
                    metrics.counter("repair.changed_keys").inc(
                        res.n_changed_keys)
                    touched += int(movers.size)
                    depth = max(depth, res.tree.node_depth_max())
                else:
                    # Membership changed (or the cell has no key
                    # budget): rebuild this subtree from scratch.
                    rebuild.append(i)
                    rebuild_at.append(len(subtrees))
                    subtrees.append(None)
            built = build_subtrees(
                self.particles, [cells[i] for i in rebuild],
                [by_cell[bounds[i]:bounds[i + 1]] for i in rebuild],
                keys, self.root, cfg, self.bits)
            for at, st in zip(rebuild_at, built):
                subtrees[at] = st
                metrics.counter("repair.full_rebuilds").inc()
                metrics.counter("repair.nodes_rebuilt").inc(st.tree.nnodes)
                touched += st.count
                depth = max(depth, st.tree.node_depth_max())
            comm.compute(tree_build_flops(touched, depth))
            branches = local_branch_infos(subtrees, comm.rank, self.root,
                                          cfg.degree)
        return self._merged_forest(subtrees, branches, keys)

    @staticmethod
    def _merge_force(agg: ForceResult, res: ForceResult) -> None:
        agg.mac_tests += res.mac_tests
        agg.cluster_interactions += res.cluster_interactions
        agg.p2p_interactions += res.p2p_interactions
        agg.records_shipped += res.records_shipped
        agg.records_served += res.records_served
        agg.walks_built += res.walks_built
        s, t = agg.ship, res.ship
        s.request_bins_sent += t.request_bins_sent
        s.request_records_sent += t.request_records_sent
        s.request_bytes_sent += t.request_bytes_sent
        s.result_records_returned += t.result_records_returned
        s.flow_control_stalls += t.flow_control_stalls

    def _block_schedule(self, forest: _Forest, cells: list[Cell],
                        dt: float):
        """One KDK macro step of ``dt`` over the block-timestep rung
        hierarchy (``timestep="fixed"`` runs it with a single rung),
        from a freshly built ``forest``.  Returns the aggregated
        :class:`ForceResult`, the final forest's subtrees and the
        requester-side cost per particle accumulated over the substeps
        (reset on a mid-macro exchange — a lossy but safe approximation
        of a rare event).

        Every substep is collective on every rank — the R allreduce,
        the stray allreduce, the branch merge and the function-shipping
        bin protocol all run even on ranks with no starters/finishers —
        so the virtual machine's collectives stay aligned.
        """
        comm, cfg = self.comm, self.config
        max_rungs = 1 if cfg.timestep == "fixed" else cfg.max_rungs
        agg = ForceResult(values=np.zeros(0))
        requester = np.zeros(self.particles.n)

        def run_forces(targets_idx):
            res = forest.fs.run(targets_idx=targets_idx)
            self._merge_force(agg, res)
            if requester.size == forest.fs.requester_flops.size:
                requester[:] += forest.fs.requester_flops
            return res.values

        if self.rungs is None or self.rungs.size != self.particles.n:
            # First macro step (or a pre-block checkpoint): bootstrap
            # the bin state with one full force evaluation.  All ranks
            # enter this branch together — rungs are None everywhere
            # before the first macro step and ride every exchange and
            # checkpoint afterwards — so the extra collective is aligned.
            self.accel = run_forces(None)
            self.rungs = blockstep.assign_rungs(
                self.accel, dt, cfg.dt_eta, cfg.softening, max_rungs)
            comm.metrics.counter("timestep.bootstraps").inc()
        R_local = (int(self.rungs.max()) + 1 if self.rungs.size else 1)
        R = int(comm.allreduce(R_local, max))
        hi_clip = self.root.hi - 1e-9 * self.root.side

        for j in range(1 << (R - 1)):
            rungs = self.rungs
            starters = blockstep.starters(rungs, R, j)
            with comm.clock.phase(PHASE_ADVANCE):
                if starters.size:
                    p = self.particles
                    blockstep.open_steps(p, self.accel, rungs, starters,
                                         dt, self.root.lo, hi_clip)
                    comm.compute(6.0 * self.dims * starters.size)
                    if self._keys is not None:
                        # Incremental re-key: only movers re-quantize.
                        self._keys[starters] = morton_keys(
                            p.positions[starters], self.root.lo,
                            self.root.side, self.bits)
                    comm.metrics.counter("timestep.drifted").inc(
                        int(starters.size))
            keys = self._rank_keys()
            owners = (self._owners_from_keys(keys) if keys.size
                      else np.zeros(0, dtype=np.int64))
            stray = bool(keys.size) and bool(np.any(owners != comm.rank))
            if comm.allreduce(stray, lambda a, b: a or b):
                # A drift crossed a domain boundary mid-macro: move the
                # strays (bin state rides the shards) and rebuild the
                # forest.  Requester-side load attribution resets — it
                # is observability, not state.
                with comm.clock.phase(PHASE_BALANCE):
                    self._do_exchange(owners, keys)
                comm.metrics.counter("timestep.midmacro_exchanges").inc()
                forest = self._build_forest(cells)
                requester = np.zeros(self.particles.n)
            else:
                forest = self._refresh_forest(forest, cells, starters)
            rungs = self.rungs          # exchange may have permuted them
            finishers = blockstep.finishers(rungs, R, j)
            vals = run_forces(finishers)
            if finishers.size:
                a_new = vals[finishers]
                blockstep.close_steps(self.particles, self.accel, rungs,
                                      finishers, dt, a_new)
                want = blockstep.assign_rungs(a_new, dt, cfg.dt_eta,
                                              cfg.softening, max_rungs)
                rungs[finishers] = blockstep.next_rungs(
                    want, rungs[finishers], R, j)
                with comm.clock.phase(PHASE_ADVANCE):
                    comm.compute((3.0 * self.dims + 10.0)
                                 * finishers.size)
            comm.metrics.counter("timestep.substeps").inc()
            comm.metrics.counter("timestep.force_targets").inc(
                int(finishers.size))

        comm.metrics.counter("timestep.macro_steps").inc()
        for r in range(max_rungs):
            comm.metrics.counter(f"timestep.bin_{r}").inc(
                int((self.rungs == r).sum()))
        agg.values = self.accel.copy()
        return agg, forest.subtrees, requester

    def _record_loads(self, subtrees: list[LocalSubtree],
                      requester_flops: np.ndarray) -> None:
        """Measured loads feed the *next* step's balancer: subtree
        interaction counters (owner-side work, in model flops) plus the
        requester-side top-tree cost attributed to each local particle
        (binned by the particles' *current* cluster keys, so it must run
        before an advance moves them)."""
        from repro.analysis.flops import interaction_flops
        comm, cfg = self.comm, self.config
        per_int = interaction_flops(cfg.degree)
        # Loads are scaled by this rank's measured effective slowdown so
        # they are expressed in *time*, not flops: a degraded rank reports
        # its work as proportionally heavier and the next step's balancer
        # sheds load off it (the paper's own dynamic-assignment machinery
        # doubles as the graceful-degradation mechanism).
        slow = comm.slowdown
        if cfg.scheme == "spda":
            r = cfg.clusters(self.dims)
            arr = np.zeros(r)
            for key, load in cluster_loads(subtrees).items():
                arr[key] = load * per_int
            if self.particles.n:
                ckeys = self._cluster_keys_from(self._rank_keys())
                np.add.at(arr, ckeys, requester_flops)
            self.cluster_load = arr * slow
        elif cfg.scheme == "dpda":
            self.my_particle_loads = (
                particle_loads(subtrees, self.particles.n) * per_int
                + requester_flops
            ) * slow

    # ------------------------------------------------------- one step
    def step(self, step_no: int, dt: float | None) -> StepResult:
        comm, cfg = self.comm, self.config
        # Count before the balancing exchange inside decompose() so
        # moved_in reports the net particles gained by this rank.
        before = self.particles.n
        cells = self.decompose(step_no)
        forest = self._build_forest(cells)
        if dt is not None and cfg.integrator == "kdk":
            force, subtrees, requester = self._block_schedule(forest, cells,
                                                              dt)
            self._record_loads(subtrees, requester)
        else:
            force = forest.fs.run()
            self._record_loads(forest.subtrees, forest.fs.requester_flops)
            if dt is not None and self.particles.n:
                with comm.clock.phase(PHASE_ADVANCE):
                    self.particles.velocities += dt * force.values
                    self.particles.positions += dt * self.particles.velocities
                    np.clip(self.particles.positions, self.root.lo,
                            self.root.hi - 1e-9 * self.root.side,
                            out=self.particles.positions)
                    comm.compute(6.0 * self.dims * self.particles.n)
                    self._keys = None    # positions moved: keys are stale
        self._last_values = force.values
        return StepResult(n_local=self.particles.n, force=force,
                          moved_in=self.particles.n - before)


def _rank_main(comm: Comm, config: SchemeConfig, root: Box, bits: int,
               steps: int, dt: float | None,
               checkpoint_every: int | None,
               store: DiskCheckpointStore | None,
               shard: ParticleSet | None,
               resume_from: RankCheckpoint | None = None):
    from repro.runtime.supervision import notify_checkpoint, notify_step
    wall = comm.wall_tracer

    def save_checkpoint(next_step: int) -> None:
        if wall is not None:
            with wall.timed("checkpoint:save", cat="wall:checkpoint"):
                store.save(state.snapshot(next_step, results))
        else:
            store.save(state.snapshot(next_step, results))
        notify_checkpoint(next_step)

    if resume_from is not None:
        state = _RankState(comm, config, root, bits,
                           ParticleSet.empty(root.dims))
        state.restore(resume_from)
        results = list(resume_from.results)
        start = resume_from.step
        if wall is not None:
            # Zero-width wall marker: where this attempt rejoined the
            # trajectory.  On the wall track, not the virtual one — a
            # recovered run's virtual tracks are identical to an
            # uninterrupted run's, so the restore has no virtual-time
            # footprint to mark.
            wall.mark("recovery:restore", cat="wall:recovery")
    else:
        state = _RankState(comm, config, root, bits, shard)
        results = []
        start = 0
        if store is not None:
            # Step-0 snapshot: a crash in the very first step can still
            # roll back to the initial deal.
            save_checkpoint(0)
    for i in range(start, steps):
        # Liveness/fault hook: stamps the supervision board with this
        # rank's step (and executes planned kill/stall actions) on the
        # process backend; no-op everywhere else.
        notify_step(i)
        t0 = comm.now
        w0 = wall.now() if wall is not None else 0.0
        sr = state.step(i, dt)
        sr.virtual_seconds = comm.now - t0
        results.append(sr)
        comm.metrics.histogram("sim.step_seconds").observe(
            sr.virtual_seconds)
        if sr.moved_in > 0:
            comm.metrics.counter("sim.particles_moved_in").inc(sr.moved_in)
        if comm.tracer is not None:
            comm.tracer.phase_span(comm.rank, f"step {i}", t0, comm.now,
                                   depth=0, cat="step")
        if wall is not None:
            wall.record(f"step {i}", w0, wall.now(), depth=0,
                        cat="wall:step")
        if (store is not None and checkpoint_every
                and (i + 1) % checkpoint_every == 0):
            save_checkpoint(i + 1)
    return {
        "steps": results,
        "ids": state.particles.ids,
        "values": state._last_values,
        "positions": state.particles.positions,
        "velocities": state.particles.velocities,
    }


class ParallelBarnesHut:
    """Host-side entry point: run a parallel Barnes-Hut simulation.

    Parameters
    ----------
    particles:
        The global particle set (the host deals Morton-contiguous chunks
        to the virtual processors; every scheme rebalances from there).
    config:
        Scheme parameters.
    p:
        Number of virtual processors.
    profile:
        Virtual machine profile (default nCUBE2).
    bits:
        Morton key depth for decomposition; default 12 (3-D) is ample
        for bench-scale instances while keeping cover cells small.
    recv_timeout:
        Real-seconds deadlock watchdog on either backend (default 600;
        ``None``: none), as :class:`~repro.machine.engine.SPMDEngine`
        documents it.
    fault_plan:
        Optional :class:`~repro.machine.faults.FaultPlan` of injected
        faults (drops, duplicates, delays, crashes, slowdowns).
    checkpoint_every:
        Snapshot every rank's cross-step state at this step cadence; on
        a rank crash or worker loss the run rolls back to the newest
        common checkpoint and re-executes (without it such failures are
        fatal).  Snapshots are durable on disk on either backend
        (:class:`~repro.core.checkpoint.DiskCheckpointStore`) — under
        ``checkpoint_dir`` when given, else in a temporary directory
        removed when the run ends.
    checkpoint_dir:
        Directory for durable checkpoints (either backend).  Survives
        the host process, enabling ``resume=True`` in a later run.
    max_restarts:
        Worker-loss respawn budget per run (process backend): each
        SIGKILL'd / silently-exited / heartbeat-stalled worker costs
        one; planned virtual crashes are exempt (their fault is spent
        on restart).
    restart_backoff:
        First respawn delay in real seconds; doubles per restart
        (capped at 10 s).  The two make up ``restart_policy``, a
        :class:`~repro.core.checkpoint.RestartPolicy`.
    resume:
        Start from the newest common checkpoint in ``checkpoint_dir``
        instead of dealing particles afresh.
    backend:
        ``"virtual"`` (default) runs every rank as a thread of one
        interpreter on the virtual machine; ``"process"`` runs one OS
        process per rank (:class:`~repro.runtime.ProcessEngine`) with
        identical virtual accounting — results, virtual times and
        counters are bitwise identical across backends, the process
        backend just finishes in less wall-clock time on a multi-core
        host.
    engine_options:
        Extra keyword arguments forwarded to the
        :class:`~repro.runtime.ProcessEngine` constructor (e.g.
        ``heartbeat_timeout``); process backend only.
    events_out:
        Append run events (run_start / step / checkpoint / worker_lost /
        recovery / run_end) as JSON lines to this path; schema in
        :mod:`repro.runtime.telemetry`.  Process backend only.
    live:
        Render a live one-line progress display (stderr) from the
        telemetry board while the run executes.  Process backend only.

    Telemetry (``events_out``/``live``) and wall tracing are pure
    wall-clock observation: results, virtual clocks, comm stats and
    metrics are bitwise identical with and without them.
    """

    # Read only by the end-to-end benchmark child (benchmarks/e2e/child.py);
    # goes when that read does (ROADMAP item 1).  A constant, not an option.
    kernel_tier = "numpy"

    def __init__(self, particles: ParticleSet, config: SchemeConfig,
                 p: int, profile: MachineProfile = NCUBE2,
                 root: Box | None = None, bits: int | None = None,
                 recv_timeout: float | None = 600.0,
                 fault_plan: FaultPlan | None = None,
                 checkpoint_every: int | None = None,
                 checkpoint_dir: str | None = None,
                 max_restarts: int = 3,
                 restart_backoff: float = 0.25,
                 resume: bool = False,
                 backend: str = "virtual",
                 engine_options: dict | None = None,
                 events_out: str | None = None,
                 live: bool = False):
        if particles.n == 0:
            raise ValueError("cannot simulate zero particles")
        if p < 1:
            raise ValueError("need at least one processor")
        self.particles = particles
        self.config = config
        self.p = p
        self.profile = profile
        self.root = root if root is not None else particles.bounding_box()
        limit = (_morton.MAX_BITS_2D if particles.dims == 2
                 else _morton.MAX_BITS_3D)
        self.bits = bits if bits is not None else min(12, limit)
        if not config.grid_level <= self.bits <= limit:
            raise ValueError(
                f"bits must lie in [{config.grid_level}, {limit}]"
            )
        if config.scheme == "spsa" and p > config.clusters(particles.dims):
            raise ValueError(
                f"SPSA needs r >= p: {config.clusters(particles.dims)} "
                f"clusters < {p} processors"
            )
        if particles.dims == 2 and config.degree > 0:
            raise ValueError(
                f"degree-{config.degree} multipoles are 3-D only; 2-D "
                f"runs use monopoles (degree 0)"
            )
        self.recv_timeout = recv_timeout
        self.fault_plan = fault_plan
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.checkpoint_every = checkpoint_every
        if backend not in ("virtual", "process"):
            raise ValueError(
                f"backend must be 'virtual' or 'process', got {backend!r}"
            )
        self.backend = backend
        self.checkpoint_dir = checkpoint_dir
        self.restart_policy = RestartPolicy(max_restarts, restart_backoff)
        if resume and checkpoint_dir is None:
            raise ValueError(
                "resume=True needs checkpoint_dir (a durable checkpoint "
                "directory to resume from)"
            )
        self.resume = resume
        if engine_options and backend != "process":
            raise ValueError("engine_options apply to backend='process'")
        self.engine_options = dict(engine_options or {})
        if (events_out or live) and backend != "process":
            raise ValueError(
                "live telemetry (events_out / live) samples the shared "
                "telemetry board; it needs backend='process'"
            )
        self.events_out = events_out
        self.live = live
        if (fault_plan is not None and fault_plan.any_process_faults
                and backend != "process"):
            raise ValueError(
                "fault plan demands real process actions (kill / "
                "stall_heartbeat); they need backend='process'"
            )

    def _shards(self) -> list[ParticleSet]:
        keys = morton_keys(self.particles.positions, self.root.lo,
                           self.root.side, self.bits)
        order = np.argsort(keys, kind="stable")
        chunks = np.array_split(order, self.p)
        return [self.particles.subset(c) for c in chunks]

    def _initial_args(self) -> list[tuple]:
        """Per-rank ``(shard, resume_from)`` of a run from step 0."""
        return [(shard, None) for shard in self._shards()]

    def _make_store(self
                    ) -> tuple[DiskCheckpointStore | None, str | None]:
        """Build the checkpoint store; returns ``(store, tmp_dir)`` with
        ``tmp_dir`` set when a throwaway directory must be removed after
        the run."""
        if self.checkpoint_dir is not None:
            return DiskCheckpointStore(self.checkpoint_dir, self.p), None
        if self.checkpoint_every is None:
            return None, None
        tmp = tempfile.mkdtemp(prefix="repro-ckpt-")
        return DiskCheckpointStore(tmp, self.p), tmp

    def _recovery_args(self, store: DiskCheckpointStore
                       ) -> tuple[int, list[tuple]] | None:
        """Restart state from the newest intact common checkpoint.

        A corrupt level (torn by the crash that triggered recovery, or
        bit-rotted on disk) is discarded and the previous common
        boundary tried; the discard shrinks the step set, so the loop
        terminates.
        """
        while True:
            s = store.latest_common_step()
            if s is None:
                return None
            try:
                return s, [(None, store.get(r, s))
                           for r in range(self.p)]
            except CheckpointCorruptError:
                store.discard_step(s)

    def run(self, steps: int = 1, dt: float | None = None,
            trace: bool = False,
            wall_trace: bool | None = None) -> SimulationResult:
        """Run ``steps`` time-steps; with ``trace=True`` the result also
        carries a :class:`~repro.machine.trace.Trace` of the (final) run
        — tracing never charges any virtual clock, so traced and
        untraced runs have bitwise-identical virtual times.

        ``wall_trace`` adds measured wall-clock tracks (phases,
        transport operations, checkpoint writes) beside the virtual
        tracks; defaults to ``trace`` on the process backend, off on
        the virtual backend.  Requires ``trace=True``."""
        if steps < 1:
            raise ValueError("need at least one step")
        if dt is not None and self.config.mode != "force":
            raise ValueError("advancing particles requires mode='force'")
        if dt is None and self.config.timestep == "block":
            raise ValueError("timestep='block' advances particles; give dt")
        if wall_trace is None:
            wall_trace = trace and self.backend == "process"
        if wall_trace and not trace:
            raise ValueError("wall_trace=True requires trace=True")
        plan = self.fault_plan
        store, tmp_dir = self._make_store()
        host_metrics: MetricsRegistry | None = None
        if store is not None:
            host_metrics = MetricsRegistry()
            # Pre-create the recovery counters so a clean checkpointed
            # run reports explicit zeros, not absence.
            host_metrics.counter("recovery.restarts")
            host_metrics.counter("recovery.rollback_steps")
        resumed_from: int | None = None
        if self.resume:
            recovered = self._recovery_args(store)
            if recovered is None:
                raise CheckpointError(
                    f"resume requested but {self.checkpoint_dir!r} holds "
                    f"no common checkpoint across all {self.p} ranks"
                )
            resumed_from, rank_args = recovered
            if resumed_from > steps:
                raise ValueError(
                    f"checkpoint is at step {resumed_from}, beyond the "
                    f"requested {steps} step(s); raise steps to resume"
                )
        else:
            rank_args = self._initial_args()
        recoveries = 0
        restarts = 0
        if self.backend == "process":
            from repro.runtime import ProcessEngine as engine_cls
        else:
            engine_cls = Engine
        engine_kw = dict(self.engine_options)
        # Live telemetry plumbing (process backend only, off by default).
        elog = display = None
        if self.events_out is not None or self.live:
            from repro.runtime.telemetry import EventLog, LiveDisplay
            if self.events_out is not None:
                elog = EventLog(self.events_out)
                elog.emit("run_start", scheme=self.config.scheme,
                          p=self.p, n=self.particles.n, steps=steps,
                          backend=self.backend)
            if self.live:
                display = LiveDisplay(steps)
            seen = {"step": -1, "ckpt": -1}

            def _on_rows(rows):
                if display is not None:
                    display.update(rows)
                if elog is None:
                    return
                lead = min(r.step for r in rows)
                if lead > seen["step"]:
                    seen["step"] = lead
                    elog.emit_step(lead, rows)
                ck = min(r.ckpt_step for r in rows)
                if ck > seen["ckpt"]:
                    seen["ckpt"] = ck
                    elog.emit("checkpoint", step=ck)

            engine_kw["on_telemetry"] = _on_rows
            engine_kw.setdefault("telemetry_interval", 0.5)
        t_run0 = time.monotonic()
        report = None
        try:
            while True:
                engine = engine_cls(self.p, self.profile,
                                    recv_timeout=self.recv_timeout,
                                    fault_plan=plan, **engine_kw)
                try:
                    # A fresh tracer per attempt: after a crash rollback
                    # the re-execution's trace replaces the aborted one.
                    report = engine.run(
                        _rank_main, self.config, self.root, self.bits,
                        steps, dt, self.checkpoint_every, store,
                        rank_args=rank_args,
                        tracer=Tracer(self.p) if trace else None,
                        wall_trace=wall_trace,
                    )
                    break
                except engine_cls.recoverable as failure:
                    if elog is not None \
                            and getattr(failure, "kind", None) is not None:
                        elog.emit(
                            "worker_lost", rank=failure.rank,
                            kind=failure.kind,
                            detail=[d.describe()
                                    for d in failure.diagnostics])
                    if store is None:
                        raise
                    t_rec = time.monotonic()
                    # No common checkpoint yet — a rank failed before
                    # every rank had durably written step 0: the host
                    # still holds the initial deal, so roll back to it.
                    recovered = (self._recovery_args(store)
                                 or (0, self._initial_args()))
                    if isinstance(failure, RankCrashedError):
                        # Replace the failed node; its planned crash is
                        # spent and must not fire in the re-execution.
                        plan = plan.without_crash(failure.rank)
                    else:
                        # Real worker loss: bounded respawn budget with
                        # exponential backoff before the next attempt.
                        if restarts >= self.restart_policy.max_restarts:
                            raise
                        if plan is not None:
                            plan = plan.without_process_faults(
                                failure.rank)
                        time.sleep(self.restart_policy.delay(restarts))
                        restarts += 1
                    s, rank_args = recovered
                    # Rollback depth: furthest boundary any rank had
                    # durably reached beyond the common restart point
                    # (plus the failing attempt's own progress reports).
                    furthest = max(
                        (sf[-1] for sf in (store.steps_for(r)
                                           for r in range(self.p)) if sf),
                        default=s)
                    for d in getattr(failure, "diagnostics", []) or []:
                        furthest = max(furthest, d.last_step)
                    recoveries += 1
                    host_metrics.counter("recovery.restarts").inc()
                    host_metrics.counter("recovery.rollback_steps").inc(
                        max(0, furthest - s))
                    if elog is not None:
                        elog.emit("recovery", restart=recoveries,
                                  resume_step=s,
                                  rollback_steps=max(0, furthest - s))
                    quiesce = engine.last_quiesce_seconds
                    host_metrics.histogram(
                        "recovery.quiesce_seconds").observe(quiesce)
                    host_metrics.histogram(
                        "recovery.wall_seconds").observe(
                        quiesce + time.monotonic() - t_rec)
        finally:
            if display is not None:
                display.finish()
            if elog is not None:
                elog.emit(
                    "run_end", ok=report is not None, steps=steps,
                    parallel_time=(report.parallel_time
                                   if report is not None else None),
                    recoveries=recoveries,
                    wall_seconds=round(time.monotonic() - t_run0, 6))
                elog.close()
            if tmp_dir is not None:
                shutil.rmtree(tmp_dir, ignore_errors=True)

        n = self.particles.n
        d = self.particles.dims
        values = (np.zeros(n) if self.config.mode == "potential"
                  else np.zeros((n, d)))
        positions = np.zeros((n, d))
        velocities = np.zeros((n, d))
        id_to_slot = {int(i): s for s, i in enumerate(self.particles.ids)}
        for out in report.values:
            slots = np.array([id_to_slot[int(i)] for i in out["ids"]],
                             dtype=np.int64)
            if slots.size:
                values[slots] = out["values"]
                positions[slots] = out["positions"]
                velocities[slots] = out["velocities"]
        step_results = [
            [report.values[r]["steps"][s] for r in range(self.p)]
            for s in range(steps)
        ]
        return SimulationResult(
            run=report, config=self.config, values=values,
            positions=positions, velocities=velocities,
            steps=step_results, recoveries=recoveries,
            resumed_from=resumed_from, host_metrics=host_metrics,
        )
