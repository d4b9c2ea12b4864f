"""The parallel Barnes-Hut simulation orchestrator.

``ParallelBarnesHut`` runs the paper's full per-time-step pipeline on the
virtual machine; ``_RankState.step`` reads it top to bottom:

    decompose / balance -> exchange particles (core.exchange) -> build
    local trees, merge top tree (core.forest) -> function-shipping force
    computation -> record loads, advance particles (core.stepping)

with every phase attributed to the virtual clock under the paper's phase
names (Table 3).

Scheme-specific decomposition (one owner map, ``_RankState.owners``):

* SPSA — static Gray-code assignment of grid clusters; the particle
  placement is charged to setup, never to load balancing ("the SPSA
  scheme spends no time in balancing load since load balance is
  implicit").
* SPDA — grid clusters re-assigned each step along the Morton order by
  the loads measured in the previous step.
* DPDA — Costzones: global load boundaries located by a message-passing
  search (``costzones_boundaries``); Morton key-space ranges per
  processor, turned into branch cells by canonical cover.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.bh import morton as _morton
from repro.bh.morton import morton_keys
from repro.bh.particles import Box, ParticleSet
from repro.core.assignment import clusters_of_rank, spsa_assignment
from repro.core.checkpoint import (
    CheckpointError,
    DiskCheckpointStore,
    RankCheckpoint,
    RestartPolicy,
    Rollback,
)
from repro.core.config import SchemeConfig
from repro.core.costzones import costzones_boundaries
from repro.core.exchange import BALANCE_FLOPS_PER_PARTICLE, PHASE_BALANCE, \
    PHASE_SETUP, exchange_particles
from repro.core.forest import Forest, build_forest
from repro.core.function_shipping import ForceResult
from repro.core.morton_assign import balance_clusters
from repro.core.partition import Cell, cover_cells
from repro.core.stepping import block_schedule, euler_advance, \
    record_loads
from repro.machine.comm import Comm
from repro.machine.costmodel import MachineProfile
from repro.machine.engine import Engine, RunReport
from repro.machine.faults import FaultPlan
from repro.machine.metrics import MetricsRegistry
from repro.machine.profiles import NCUBE2
from repro.machine.trace import Trace


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
        """Walk traffic: total (walks_built, walks_reused) across all
        steps and ranks.  The second is always 0: the force phase keeps
        no walk, so none is reused; the pair shape stays for callers
        that read both."""
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


class _RankState:
    """Everything a rank carries across time-steps, and the step
    pipeline over it."""

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
        self.keys: np.ndarray | None = None
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
    #: The simulation half of a checkpoint, field for field.
    CARRIED = ("particles", "cluster_owners", "cluster_load",
               "key_boundaries", "my_particle_loads", "rungs", "accel")

    def snapshot(self, next_step: int,
                 results: list[StepResult]) -> RankCheckpoint:
        """Everything carried across steps (quiescent point): this
        rank's simulation state and its comm's machine state.

        The checkpoint shares this rank's live arrays: the store pickles
        it before the rank moves on.
        """
        return RankCheckpoint(
            rank=self.comm.rank, step=next_step, results=results,
            last_values=self._last_values,
            **{name: getattr(self, name) for name in self.CARRIED},
            **self.comm.machine_state(),
        )

    def restore(self, ckpt: RankCheckpoint) -> None:
        """Adopt a checkpoint's state, the comm's included (global
        rollback).

        ``ckpt`` is this rank's own, freshly read from the store: its
        arrays are adopted, not copied.  A pickle without ``rungs`` /
        ``accel`` reads the class defaults (None).
        """
        for name in self.CARRIED:
            setattr(self, name, getattr(ckpt, name))
        self._last_values = ckpt.last_values
        self.keys = None
        self.comm.restore_machine_state(ckpt)

    # ------------------------------------------------ keys and owners
    def current_keys(self) -> np.ndarray:
        """Morton keys (depth ``self.bits``) of the current particles.

        Cache hits are bitwise equal to recomputation — keys depend only
        on positions and the fixed root grid, and the cache is dropped
        whenever positions change.
        """
        if self.keys is None or self.keys.size != self.particles.n:
            self.keys = morton_keys(self.particles.positions,
                                    self.root.lo, self.root.side, self.bits)
        return self.keys

    def cluster_of(self, keys: np.ndarray) -> np.ndarray:
        """Static-grid cluster keys derived from full-depth Morton keys.

        Truncating a depth-``bits`` key to its top ``dims * grid_level``
        bits is *exactly* the grid-level quantization: both floor the
        same power-of-two scaling of the same coordinates, and Morton
        interleaving keeps the coarse bits on top (at grid level 0 no
        bit is left: every key is cluster 0).
        """
        return keys >> (self.dims * (self.bits - self.config.grid_level))

    def owners(self, keys: np.ndarray) -> np.ndarray:
        """Owning rank of every key under the current decomposition: the
        cluster map (SPSA, SPDA) or the costzones key ranges (DPDA)."""
        if self.config.scheme == "dpda":
            return np.searchsorted(self.key_boundaries, keys, side="right")
        return self.cluster_owners[self.cluster_of(keys)]

    def exchange(self, owners: np.ndarray, keys: np.ndarray) -> None:
        """Move every particle to ``owners``; block-timestep bin state
        rides the shards whenever it exists."""
        state = () if self.rungs is None else (self.rungs, self.accel)
        self.particles, self.keys, state = exchange_particles(
            self.comm, self.particles, owners, keys, state)
        self.rungs, self.accel = state or (None, None)

    # -------------------------------------------------- decomposition
    def decompose(self, step: int) -> list[Cell]:
        """Rebalance, move particles to their owners; this rank's cells."""
        cfg, comm = self.config, self.comm
        # SPSA's assignment is static: its placement is setup, always.
        phase = (PHASE_BALANCE if step and cfg.scheme != "spsa"
                 else PHASE_SETUP)
        with comm.clock.phase(phase):
            keys = self.current_keys()
            self._rebalance(keys)
            self.exchange(self.owners(keys), keys)
        if cfg.scheme == "dpda":
            bounds = np.concatenate(
                ([0], self.key_boundaries, [1 << (self.dims * self.bits)]))
            return cover_cells(int(bounds[comm.rank]),
                               int(bounds[comm.rank + 1]), self.bits,
                               self.dims)
        return [Cell(cfg.grid_level, int(k)) for k in
                clusters_of_rank(self.cluster_owners, comm.rank)]

    def _rebalance(self, keys: np.ndarray) -> None:
        """The scheme's decomposition for this step, from the loads the
        previous step measured (collective for SPDA and DPDA)."""
        cfg, comm = self.config, self.comm
        if cfg.scheme == "spsa":
            if self.cluster_owners is None:
                self.cluster_owners = spsa_assignment(
                    cfg.grid_level, comm.size, self.dims)
        elif cfg.scheme == "spda":
            r = cfg.clusters(self.dims)
            if self.cluster_load is None:
                # First iteration: particle counts stand in for load.
                local = np.zeros(r)
                np.add.at(local, self.cluster_of(keys), 1.0)
            else:
                local = self.cluster_load
            loads = comm.allreduce(local, lambda a, b: a + b)
            self.cluster_owners, _ = balance_clusters(
                loads, self.cluster_owners, comm.size)
            comm.compute(2.0 * r)  # prefix scan over the sorted list
        else:
            self.key_boundaries = costzones_boundaries(
                comm, keys, self.my_particle_loads,
                1 << (self.dims * self.bits))
            comm.compute(BALANCE_FLOPS_PER_PARTICLE * keys.size)

    # ------------------------------------------------------- one step
    def step(self, step_no: int, dt: float | None) -> StepResult:
        # Count before the balancing exchange inside decompose() so
        # moved_in reports the net particles gained by this rank.
        before = self.particles.n
        cells = self.decompose(step_no)
        force, forest, requester_flops = self.forces(cells, dt)
        record_loads(self, forest.subtrees, requester_flops)
        if dt is not None and self.config.integrator != "kdk":
            euler_advance(self, dt, force.values)
        self._last_values = force.values
        return StepResult(n_local=self.particles.n, force=force,
                          moved_in=self.particles.n - before)

    def forces(self, cells: list[Cell], dt: float | None
               ) -> tuple[ForceResult, Forest, np.ndarray]:
        """Forest and forces over ``cells``: one pass, or a KDK macro
        step of ``dt`` (which advances the particles itself).  Returns
        the result, the final forest and the requester cost per particle."""
        forest = build_forest(self, cells)
        if dt is not None and self.config.integrator == "kdk":
            return block_schedule(self, forest, cells, dt)
        return forest.fs.run(), forest, forest.fs.requester_flops


def _rank_main(comm: Comm, config: SchemeConfig, root: Box, bits: int,
               steps: int, dt: float | None,
               checkpoint_every: int | None,
               store: DiskCheckpointStore | None,
               shard: ParticleSet | None,
               resume_from: RankCheckpoint | None = None):
    from repro.runtime.supervision import notify_checkpoint, notify_step
    trace = comm.trace

    def save_checkpoint(next_step: int) -> None:
        with (trace.timed("checkpoint:save", cat="wall:checkpoint")
              if trace is not None else nullcontext()):
            store.save(state.snapshot(next_step, results))
        notify_checkpoint(next_step)

    if resume_from is not None:
        state = _RankState(comm, config, root, bits,
                           ParticleSet.empty(root.dims))
        state.restore(resume_from)
        results = list(resume_from.results)
        start = resume_from.step
        if trace is not None:
            # Zero-width wall marker: where this attempt rejoined the
            # trajectory.  On the wall track, not the virtual one — a
            # recovered run's virtual tracks are identical to an
            # uninterrupted run's, so the restore has no virtual-time
            # footprint to mark.
            trace.mark("recovery:restore", cat="wall:recovery")
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
        w0 = trace.now() if trace is not None else 0.0
        sr = state.step(i, dt)
        sr.virtual_seconds = comm.now - t0
        results.append(sr)
        comm.metrics.histogram("sim.step_seconds").observe(
            sr.virtual_seconds)
        if sr.moved_in > 0:
            comm.metrics.counter("sim.particles_moved_in").inc(sr.moved_in)
        if trace is not None:
            trace.span(f"step {i}", t0, comm.now, w0, depth=0, cat="step")
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
        faults (message delays, crashes, slowdowns, worker kills
        and heartbeat stalls).
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
                 events_out: str | None = None,
                 live: bool = False):
        if particles.n == 0:
            raise ValueError("cannot simulate zero particles")
        if p < 1:
            raise ValueError("need at least one processor")
        try:
            # Checked here, not when the engine is built: by then the
            # checkpoint directory would already be claimed for p ranks.
            profile.make_topology(p)
        except ValueError as exc:
            raise ValueError(
                f"p = {p} does not fit {profile.name}'s "
                f"{profile.topology_kind} topology: {exc}"
            ) from None
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

    def _rank_args(self, checkpoints: list[RankCheckpoint] | None
                   ) -> list[tuple]:
        """Per-rank ``(shard, resume_from)``: a fresh deal, or checkpoints."""
        if checkpoints is None:
            return [(shard, None) for shard in self._shards()]
        return [(None, ckpt) for ckpt in checkpoints]

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

        store, tmp_dir = self._make_store()
        rollback = Rollback(store, self.restart_policy, self.fault_plan)
        resumed_from = checkpoints = None
        if self.resume:
            level = store.latest_intact()
            if level is None:
                raise CheckpointError(
                    f"resume requested but {self.checkpoint_dir!r} holds "
                    f"no common checkpoint across all {self.p} ranks"
                )
            resumed_from, checkpoints = level
            if resumed_from > steps:
                raise ValueError(
                    f"checkpoint is at step {resumed_from}, beyond the "
                    f"requested {steps} step(s); raise steps to resume"
                )
        rank_args = self._rank_args(checkpoints)

        engine_kw = {}
        telemetry = None
        if self.backend == "process":
            from repro.runtime import ProcessEngine as engine_cls
            if self.events_out is not None or self.live:
                from repro.runtime.telemetry import RunTelemetry
                telemetry = RunTelemetry(
                    self.events_out, self.live, steps,
                    scheme=self.config.scheme, p=self.p,
                    n=self.particles.n, backend=self.backend)
                engine_kw["on_telemetry"] = telemetry.on_rows
        else:
            engine_cls = Engine
        report = None
        try:
            while report is None:
                engine = engine_cls(self.p, self.profile,
                                    recv_timeout=self.recv_timeout,
                                    fault_plan=rollback.plan, **engine_kw)
                try:
                    # Each attempt traces afresh: after a crash rollback
                    # the re-execution's trace replaces the aborted one.
                    report = engine.run(
                        _rank_main, self.config, self.root, self.bits,
                        steps, dt, self.checkpoint_every, store,
                        rank_args=rank_args, trace=trace,
                        wall_trace=wall_trace,
                    )
                except engine_cls.recoverable as failure:
                    if telemetry is not None:
                        telemetry.worker_lost(failure)
                    step, checkpoints, lost = rollback.recover(
                        failure, engine.last_quiesce_seconds)
                    rank_args = self._rank_args(checkpoints)
                    if telemetry is not None:
                        telemetry.recovery(rollback.recoveries, step, lost)
        finally:
            if telemetry is not None:
                telemetry.close(
                    None if report is None else report.parallel_time,
                    rollback.recoveries)
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
            steps=step_results, recoveries=rollback.recoveries,
            resumed_from=resumed_from,
            host_metrics=rollback.metrics if store is not None else None,
        )
