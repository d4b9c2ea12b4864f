"""Layer probes of the traced run: spans recorded from the benchmark's
own files around calls into each layer's public functions, plus the
per-layer numbers read from the product's existing trace.

No file under ``src/`` is touched: spans inside the program are a later
change.  Every probe's input is the named workload's own instance.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

from repro import NCUBE2, Box, ParticleSet, direct_forces, plummer
from repro.analysis import efficiency, serial_time_estimate
from repro.bh.blockstep import BlockTimestepper
from repro.bh.interaction_lists import (TraversalEngine,
                                        build_interaction_lists,
                                        evaluate_interaction_lists)
from repro.bh.mac import BarnesHutMAC
from repro.bh.morton import MAX_BITS_3D, morton_keys
from repro.bh.multipole import MonopoleExpansion, TreeMultipoles
from repro.bh.tree import build_tree
from repro.bh.tree_repair import repair_tree
from repro.core.checkpoint import DiskCheckpointStore, RankCheckpoint
from repro.core.costzones import costzones_owners, split_by_key_boundaries
from repro.core.morton_assign import balance_clusters
from repro.core.partition import Cell, cluster_keys
from repro.core.tree_build import build_local_trees, local_branch_infos
from repro.core.tree_merge import build_top_tree
from repro.machine import Engine
from repro.machine.mailbox import Mailbox, Message
from repro.runtime import ProcessEngine

#: Decomposition key depth ``ParallelBarnesHut`` defaults to.
BITS = 12
#: A probe repeats up to REPS times but stops once CAP_S seconds are
#: spent, so second-scale calls are taken 2-3 times, not 5.
REPS = 5
CAP_S = 3.0
BIN = 100                    # the paper's bin capacity (targets per call)

PHASES = ("setup", "load balancing", "local tree construction",
          "tree merging", "all-to-all broadcast", "force computation",
          "particle advance", "tree repair")


class SpanRecorder:
    """In-memory spans: name, start, end, parent span, workload id."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "workload": self.workload,
               "parent": self._open[-1] if self._open else None,
               "t0": time.perf_counter(), "t1": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            self._open.pop()

    def timed(self, name: str, fn, reps: int = REPS):
        """Median span duration of up to ``reps`` calls, and the last
        call's return value."""
        durations, value = self._calls(name, fn, reps)
        return statistics.median(durations), value[-1]

    def self_timed(self, name: str, fn, reps: int = REPS) -> float:
        """Median return value of up to ``reps`` calls of a probe that
        times its own inner loop (and returns microseconds per round)."""
        return statistics.median(self._calls(name, fn, reps)[1])

    def _calls(self, name: str, fn, reps: int):
        durations, values = [], []
        while len(durations) < reps \
                and (not durations or sum(durations) < CAP_S):
            with self.span(name) as rec:
                values.append(fn())
            durations.append(rec["t1"] - rec["t0"])
        return durations, values

    def dump(self, path: str) -> None:
        """Write the spans with their self time (duration minus the
        part covered by child spans)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["t1"] - s["t0"]
        rows = [dict(s, self_s=s["t1"] - s["t0"] - child_time[s["id"]])
                for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"workload": self.workload, "spans": rows}, fh)


def calibrate(rec: SpanRecorder) -> float:
    """``direct_forces`` on 2 048 Plummer particles: the machine-speed
    yardstick that makes drift between two sets of runs visible."""
    ps = plummer(2048, seed=7)
    direct_forces(ps)            # first call pays page faults
    return rec.timed("calib.direct2k", lambda: direct_forces(ps))[0]


# ------------------------------------------------------------ bh layers
def _evaluator(cfg, tree, particles):
    if cfg.degree > 0:
        return TreeMultipoles(tree, particles, cfg.degree)
    return MonopoleExpansion(tree, softening=cfg.softening)


def _bh_probes(rec, w, ps, root, subtrees) -> dict:
    cfg = w.config
    out = {}
    out["bh.morton.keys_s"], keys = rec.timed(
        "bh.morton.keys",
        lambda: morton_keys(ps.positions, root.lo, root.side, BITS))
    out["bh.tree.build_s"], tree = rec.timed(
        "bh.tree.build",
        lambda: build_tree(ps, box=root, leaf_capacity=cfg.leaf_capacity,
                           compute_monopoles=False))
    out["bh.tree.nodes"] = tree.nnodes
    out["bh.multipole.upward_deg0_s"], _ = rec.timed(
        "bh.multipole.upward_deg0", lambda: tree.compute_monopoles(ps))
    out["bh.multipole.upward_deg3_s"], _ = rec.timed(
        "bh.multipole.upward_deg3", lambda: TreeMultipoles(tree, ps, 3))

    # Forest granularity: one build per static-grid cluster, the size
    # that falls under build_tree's SMALL_BUILD_CUTOFF.
    ckeys = cluster_keys(ps.positions, root, cfg.grid_level)
    per_cluster = []
    for k in np.unique(ckeys):
        sub = ps.subset(np.flatnonzero(ckeys == k))
        box = Cell(cfg.grid_level, int(k)).box(root)
        with rec.span("bh.tree.build_cluster") as s:
            build_tree(sub, box=box, leaf_capacity=cfg.leaf_capacity)
        per_cluster.append(s["t1"] - s["t0"])
    out["bh.tree.build_cluster_us"] = statistics.median(per_cluster) * 1e6

    mac = BarnesHutMAC(cfg.alpha)
    evaluator = _evaluator(cfg, tree, ps)
    targets = ps.positions[tree.order]          # Morton-ordered

    def evaluate(lists):
        return evaluate_interaction_lists(tree, lists, ps, evaluator,
                                          mode=cfg.mode,
                                          softening=cfg.softening)

    out["bh.lists.walk_batch_s"], lists = rec.timed(
        "bh.lists.walk_batch",
        lambda: build_interaction_lists(tree, targets, mac))
    out["bh.lists.eval_batch_s"], _ = rec.timed(
        "bh.lists.eval_batch", lambda: evaluate(lists))
    d = ps.dims
    out["bh.lists.mac_tests"] = lists.mac_tests
    out["bh.lists.cluster_interactions"] = lists.cluster_interactions
    out["bh.lists.p2p_interactions"] = lists.p2p_interactions
    # Computed from array sizes (cache misses ignored): the list arrays
    # themselves plus one (position, mass) read per cluster and per
    # particle-particle source, and the values written.
    list_bytes = sum(a.nbytes for a in (
        lists.cluster_node, lists.cluster_tgt, lists.p2p_leaf,
        lists.p2p_tgt, lists.p2p_sizes, lists.mac_per_target,
        lists.tested_node, lists.tested_tgt, lists.tested_ok))
    out["bh.lists.bytes_computed"] = (
        list_bytes + 8 * (d + 1) * (lists.cluster_interactions
                                    + lists.p2p_interactions)
        + 8 * lists.nt * (1 if cfg.mode == "potential" else d))

    bins = [targets[i:i + BIN] for i in range(0, ps.n, BIN)]
    out["bh.lists.walk_bins_s"], bin_lists = rec.timed(
        "bh.lists.walk_bins",
        lambda: [build_interaction_lists(tree, b, mac) for b in bins])
    out["bh.lists.eval_bins_s"], _ = rec.timed(
        "bh.lists.eval_bins", lambda: [evaluate(bl) for bl in bin_lists])

    engine = TraversalEngine(tree, ps, mac, softening=cfg.softening)
    engine.compute(targets, evaluator, mode=cfg.mode)       # builds the walk
    out["bh.lists.cached_eval_s"], _ = rec.timed(
        "bh.lists.cached_eval",
        lambda: engine.compute(targets, evaluator, mode=cfg.mode))

    # Owner-service shape: one TraversalEngine.compute of a <=100-target
    # bin against one cluster subtree, for the requesters whose walk
    # opens that subtree (the MAC fails at its root) but who live
    # elsewhere.
    st = max(subtrees, key=lambda s: s.count)
    outside = np.setdiff1d(np.arange(ps.n), st.local_idx)
    dist = np.linalg.norm(ps.positions[outside] - st.tree.com[0], axis=1)
    opens = outside[2.0 * st.tree.half[0] >= cfg.alpha * dist]
    opens = opens[np.argsort(keys[opens], kind="stable")]
    sub_eval = _evaluator(cfg, st.tree, st.particles)
    sub_engine = TraversalEngine(st.tree, st.particles, mac,
                                 softening=cfg.softening)
    calls = []
    for i in range(0, min(opens.size, 64 * BIN), BIN):
        coords = ps.positions[opens[i:i + BIN]]
        with rec.span("bh.lists.subtree_bin_call") as s:
            sub_engine.compute(coords, sub_eval, mode=cfg.mode,
                               count_node_interactions=True)
        calls.append(s["t1"] - s["t0"])
    out["bh.lists.subtree_bin_calls"] = len(calls)
    out["bh.lists.subtree_bin_call_us"] = \
        statistics.median(calls) * 1e6 if calls else 0.0
    return out


def _repair_probes(rec, w, ps) -> dict:
    """Repair vs rebuild after the innermost 5 % of the particles (by
    distance from the centre of mass) take a small random step, and one
    serial block-timestep macro step with the block workload's
    parameters."""
    cfg = w.config
    out = {}
    r = np.linalg.norm(ps.positions - ps.center_of_mass(), axis=1)
    moved = np.argsort(r, kind="stable")[:max(1, ps.n // 20)]
    step = np.random.default_rng(5).normal(size=(moved.size, ps.dims))
    positions = ps.positions.copy()
    positions[moved] += 1e-2 * r[moved].max() * step
    after = ParticleSet(positions, ps.masses, ps.velocities)
    root = Box.bounding(np.vstack([ps.positions, positions]))
    old_keys = morton_keys(ps.positions, root.lo, root.side, MAX_BITS_3D)
    tree = build_tree(ps, box=root, leaf_capacity=cfg.leaf_capacity,
                      max_depth=MAX_BITS_3D, keys=old_keys)
    new_keys = morton_keys(positions, root.lo, root.side, MAX_BITS_3D)
    out["bh.tree_repair.repair_s"], res = rec.timed(
        "bh.tree_repair.repair",
        lambda: repair_tree(tree, after, old_keys, new_keys, moved))
    out["bh.tree_repair.rebuild_s"], _ = rec.timed(
        "bh.tree_repair.rebuild",
        lambda: build_tree(after, box=root, leaf_capacity=cfg.leaf_capacity,
                           max_depth=MAX_BITS_3D, keys=new_keys))
    total = res.nodes_reused + res.nodes_rebuilt
    out["bh.tree_repair.nodes_reused_frac"] = \
        res.nodes_reused / total if total else 0.0

    stepper = BlockTimestepper(
        ParticleSet(ps.positions.copy(), ps.masses, ps.velocities.copy()),
        0.02, softening=0.01, max_rungs=4, alpha=cfg.alpha,
        leaf_capacity=cfg.leaf_capacity)
    out["bh.blockstep.macro_step_s"], _ = rec.timed(
        "bh.blockstep.macro_step", lambda: stepper.run(1), reps=1)
    return out


# ---------------------------------------------------------- core layers
def _core_probes(rec, w, ps, root, subtrees, workdir) -> dict:
    cfg = w.config
    out = {}
    out["core.partition.cluster_keys_s"], ckeys = rec.timed(
        "core.partition.cluster_keys",
        lambda: cluster_keys(ps.positions, root, cfg.grid_level))
    loads = np.bincount(ckeys, minlength=cfg.clusters(ps.dims)) \
        .astype(np.float64)
    out["core.morton_assign.balance_s"], _ = rec.timed(
        "core.morton_assign.balance",
        lambda: balance_clusters(loads, None, 4))
    keys = morton_keys(ps.positions, root.lo, root.side, BITS)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    unit = np.ones(ps.n)
    out["core.costzones.owners_s"], _ = rec.timed(
        "core.costzones.owners",
        lambda: split_by_key_boundaries(
            sorted_keys, costzones_owners(unit, 4), 4))

    # Rank 0's Morton shard at p = 4, over the static-grid cells it
    # touches (the dealt state ParallelBarnesHut._shards hands out).
    shard_idx = order[:ps.n // 4]
    shard = ps.subset(shard_idx)
    cells = [Cell(cfg.grid_level, int(k))
             for k in np.unique(ckeys[shard_idx])]
    out["core.tree_build.local_trees_s"], _ = rec.timed(
        "core.tree_build.local_trees",
        lambda: build_local_trees(shard, cells, root, cfg, BITS,
                                  keys=keys[shard_idx]))
    branches = local_branch_infos(subtrees, 0, root, cfg.degree)
    out["core.tree_merge.branches"] = len(branches)
    out["core.tree_merge.top_tree_s"], _ = rec.timed(
        "core.tree_merge.top_tree",
        lambda: build_top_tree(branches, root, cfg.degree,
                               cfg.branch_lookup))

    # One rank's durable checkpoint, block-timestep bin state included.
    ckdir = os.path.join(workdir, "probe-checkpoint")
    store = DiskCheckpointStore(ckdir, 1)
    ckpt = RankCheckpoint(
        rank=0, step=1, particles=shard, cluster_owners=None,
        cluster_load=None, key_boundaries=None, my_particle_loads=None,
        last_values=np.zeros((shard.n, shard.dims)), clock_now=0.0,
        phase_seconds={}, rungs=np.zeros(shard.n, dtype=np.int64),
        accel=np.zeros((shard.n, shard.dims)))
    out["core.checkpoint.save_s"], _ = rec.timed(
        "core.checkpoint.save", lambda: store.save(ckpt))
    # A fresh store has no memory cache: it reads, verifies and
    # unpickles the file, as a resumed or recovering run does.
    out["core.checkpoint.load_s"], _ = rec.timed(
        "core.checkpoint.load",
        lambda: DiskCheckpointStore(ckdir, 1).get(0, 1))
    out["core.checkpoint.bytes"] = sum(
        e.stat().st_size for e in os.scandir(ckdir)
        if e.is_file() and not e.name.endswith(".json"))
    return out


# -------------------------------------------------- machine and runtime
def _noop(comm):
    return None


def _pingpong(comm, nfloats: int, rounds: int) -> float:
    """Wall microseconds per round trip between ranks 0 and 1."""
    payload = np.zeros(nfloats)
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(rounds):
        if comm.rank == 0:
            comm.send(payload, dst=1, tag=1)
            comm.recv(src=1, tag=2)
        else:
            comm.send(comm.recv(src=0, tag=1), dst=0, tag=2)
    return (time.perf_counter() - t0) / rounds * 1e6


def _allreduce(comm, rounds: int) -> float:
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(rounds):
        comm.allreduce(1.0, lambda a, b: a + b)
    return (time.perf_counter() - t0) / rounds * 1e6


def _mailbox_probes(rec) -> dict:
    out = {}
    rounds = 2000

    def put_get():
        box = Mailbox(0)
        t0 = time.perf_counter()
        for i in range(rounds):
            box.put(Message(arrival=float(i), src=1, tag=5))
            box.get(1, 5)
        return (time.perf_counter() - t0) / rounds * 1e6

    def get_deep():
        # 2 000 pending messages of distinct (src, tag); the matched
        # message is deposited last, so every get scans past them all.
        box = Mailbox(0)
        for i in range(2000):
            box.put(Message(arrival=float(i), src=i % 50, tag=i // 50))
        spent = 0.0
        for i in range(100):
            box.put(Message(arrival=float(i), src=99, tag=99))
            t0 = time.perf_counter()
            box.get(99, 99)
            spent += time.perf_counter() - t0
        return spent / 100 * 1e6

    out["machine.mailbox.put_get_us"] = \
        rec.self_timed("machine.mailbox.put_get", put_get)
    out["machine.mailbox.get_deep_us"] = \
        rec.self_timed("machine.mailbox.get_deep", get_deep)
    return out


def _transport_probes(rec, engine, prefix: str, ranks: int,
                      rounds: int) -> dict:
    """No-op spawn of ``ranks`` ranks and 64 B / 64 KiB round trips
    between two, on one engine class."""
    out = {}
    out[f"{prefix}.spawn_s"], _ = rec.timed(
        f"{prefix}.spawn", lambda: engine(ranks, NCUBE2).run(_noop), reps=3)
    for nfloats, label in ((8, "pingpong"), (8192, "pingpong_64k")):
        out[f"{prefix}.{label}_us"] = rec.self_timed(
            f"{prefix}.{label}",
            lambda: engine(2, NCUBE2).run(_pingpong, nfloats,
                                          rounds).values[0], reps=3)
    return out


def layer_probes(rec: SpanRecorder, w, ps, root, workdir: str) -> dict:
    """The probes whose input is the workload's own instance."""
    cfg = w.config
    # Every static-grid cluster as one rank would own them all: the
    # forest the subtree-bin and top-tree probes work on.
    cells = [Cell(cfg.grid_level, k) for k in range(cfg.clusters(ps.dims))]
    subtrees = build_local_trees(ps, cells, root, cfg, BITS)
    out = {}
    with rec.span("layer.bh"):
        out.update(_bh_probes(rec, w, ps, root, subtrees))
    with rec.span("layer.bh.repair"):
        out.update(_repair_probes(rec, w, ps))
    with rec.span("layer.core"):
        out.update(_core_probes(rec, w, ps, root, subtrees, workdir))
    return out


def machine_probes(rec: SpanRecorder) -> dict:
    """Mailbox, thread-engine and process-engine probes.  They take no
    instance: the same numbers whatever the workload, so a full traced
    run takes them once (``run.py``)."""
    out = {}
    with rec.span("layer.machine"):
        out.update(_mailbox_probes(rec))
        out.update(_transport_probes(rec, Engine, "machine.engine", 4, 300))
        out["machine.collectives.allreduce_us"] = rec.self_timed(
            "machine.collectives.allreduce",
            lambda: Engine(4, NCUBE2).run(_allreduce, 200).values[0], reps=3)
    with rec.span("layer.runtime"):
        out.update(_transport_probes(rec, ProcessEngine, "runtime.process",
                                     2, 100))
    return out


# ------------------------------------------- the product's own trace
def product_trace_metrics(result, w, n: int) -> dict:
    """Per-layer numbers the product already exposes through
    ``run(trace=True, wall_trace=True)`` and ``SimulationResult``."""
    S, p = w.steps, w.p
    out = {}
    spans = result.trace.all_wall_phases()
    per_rank = [dict() for _ in range(p)]
    step_wall = [dict() for _ in range(p)]
    ckpt = [0.0] * p
    covered = total = 0.0
    for s in spans:
        if s.cat == "wall:step":
            step_wall[s.rank][s.name] = s.duration
            total += s.duration
        elif s.cat == "wall:checkpoint":
            ckpt[s.rank] += s.duration
        elif s.cat == "wall:phase" and s.depth == 1:
            per_rank[s.rank][s.name] = \
                per_rank[s.rank].get(s.name, 0.0) + s.duration
            covered += s.duration
    virtual = result.phase_breakdown()
    for phase in PHASES:
        key = phase.replace(" ", "-")
        out[f"phase.{key}.wall_s"] = \
            max(r.get(phase, 0.0) for r in per_rank) / S
        out[f"phase.{key}.virtual_s"] = virtual.get(phase, 0.0) / S
    out["checkpoint.save.wall_s"] = max(ckpt) / S
    out["phase.coverage"] = covered / total if total else 0.0
    steps = [max(r.get(f"step {i}", 0.0) for r in step_wall)
             for i in range(S)]
    out["step.first_wall_s"] = steps[0]
    out["step.steady_wall_s"] = statistics.median(steps[1:] or steps)

    forces = [sr.force for step in result.steps for sr in step]
    out["comm.messages"] = result.run.total_messages / S
    out["comm.bytes"] = result.run.total_bytes / S
    out["ship.request_bins"] = \
        sum(f.ship.request_bins_sent for f in forces) / S
    out["ship.records_served"] = sum(f.records_served for f in forces) / S
    out["ship.flow_control_stalls"] = \
        sum(f.ship.flow_control_stalls for f in forces) / S
    built, reused = result.walk_reuse()
    out["force.walks_built"] = built / S
    out["force.walks_reused"] = reused / S

    snap = result.metrics_summary().snapshot()

    def counter(name: str) -> float:
        return float(snap.get(name, {}).get("value", 0.0))

    out["mailbox.max_pending"] = counter("mailbox.max_pending")
    out["sim.particles_moved_in"] = counter("sim.particles_moved_in") / S
    # timestep.* counters tick once per rank per substep.
    substeps = counter("timestep.substeps") / p
    out["timestep.substeps"] = substeps / S
    out["timestep.active_fraction"] = \
        counter("timestep.force_targets") / (substeps * n) \
        if substeps else 1.0
    out["repair.repairs"] = counter("repair.repairs") / S
    out["repair.full_rebuilds"] = counter("repair.full_rebuilds") / S
    out["load_imbalance"] = result.load_imbalance()
    serial = serial_time_estimate(result.total_flops(w.config.degree),
                                  NCUBE2)
    out["virtual_efficiency"] = efficiency(serial, result.parallel_time, p)
    return out
