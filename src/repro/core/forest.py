"""One rank's forest: local tree construction and tree merging (§3.1).

A rank builds one subtree per owned cell, exchanges their branch nodes,
merges the top tree and binds the force engine to the result; a
block-timestep substep refreshes the forest instead.  Functions take
the rank's state (``simulation._RankState``: comm, config, root, bits,
particles and their current Morton keys) and are collective (the
merge), so every rank must call them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bh.tree_repair import repair_tree
from repro.core.branch_nodes import branch_key
from repro.core.function_shipping import FunctionShippingEngine
from repro.core.partition import Cell
from repro.core.tree_build import LocalSubtree, assign_to_cells, \
    build_local_trees, build_subtrees, group_by_cell, local_branch_infos, \
    subtree_budgets, subtree_keys, tree_build_flops
from repro.core.tree_merge import merge_broadcast, merge_nonreplicated

PHASE_TREE = "local tree construction"
PHASE_REPAIR = "tree repair"


@dataclass
class Forest:
    """A rank's owned-cell subtrees and the force engine over them;
    ``keys`` are the Morton keys the trees were built from."""

    subtrees: list[LocalSubtree]
    fs: FunctionShippingEngine
    keys: np.ndarray


def merged_forest(rank, subtrees: list[LocalSubtree], branches,
                  keys: np.ndarray) -> Forest:
    """Branch exchange + top-tree merge, and the force engine over it."""
    cfg = rank.config
    merge = (merge_broadcast if cfg.merge == "broadcast"
             else merge_nonreplicated)
    top = merge(rank.comm, branches, rank.root, cfg.degree,
                cfg.branch_lookup)
    fs = FunctionShippingEngine(rank.comm, cfg, top, subtrees,
                                rank.particles, rank.cpus)
    return Forest(subtrees=subtrees, fs=fs, keys=keys.copy())


def build_forest(rank, cells: list[Cell]) -> Forest:
    """Full forest build: trees, branch exchange, merge, fresh engines."""
    comm, cfg = rank.comm, rank.config
    keys = rank.current_keys()
    with comm.clock.phase(PHASE_TREE):
        subtrees = build_local_trees(rank.particles, cells, rank.root,
                                     cfg, rank.bits, keys=keys)
        depth = max((st.tree.node_depth_max() for st in subtrees),
                    default=1)
        comm.compute(tree_build_flops(rank.particles.n, depth))
        branches = local_branch_infos(subtrees, comm.rank, rank.root,
                                      cfg.degree)
    return merged_forest(rank, subtrees, branches, keys)


def refresh_forest(rank, forest: Forest, cells: list[Cell],
                   starters: np.ndarray) -> Forest:
    """Per-substep update after ``starters`` drifted (and no particle
    left the rank): reuse untouched subtrees verbatim, repair those
    whose membership is unchanged, rebuild the rest.  Repaired trees are
    bitwise identical to rebuilds (the :func:`repair_tree` contract), so
    only the virtual cost differs."""
    comm, cfg, bits = rank.comm, rank.config, rank.bits
    particles = rank.particles
    keys = rank.current_keys()
    metrics = comm.metrics
    with comm.clock.phase(PHASE_REPAIR):
        old_map = {st.key: st for st in forest.subtrees}
        slots = assign_to_cells(particles.positions, cells, rank.root,
                                bits, keys=keys)
        by_cell, bounds = group_by_cell(slots, len(cells))
        starter_mask = np.zeros(particles.n, dtype=bool)
        starter_mask[starters] = True
        cell_depth = np.array([c.depth for c in cells], dtype=np.int64)
        budget, keyed = subtree_budgets(cell_depth, cfg, bits)
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
            old = old_map.get(branch_key(cell, rank.dims))
            same_members = (old is not None
                            and old.local_idx.size == idx.size
                            and bool(np.array_equal(old.local_idx, idx)))
            movers = np.flatnonzero(starter_mask[idx])
            if same_members and movers.size == 0:
                # Untouched: positions of every member are frozen this
                # substep — tree and monopoles stay valid.
                subtrees.append(old)
                metrics.counter("repair.nodes_reused").inc(old.tree.nnodes)
            elif same_members and keyed[i]:
                sub = particles.subset(idx)
                res = repair_tree(
                    old.tree, sub,
                    subtree_keys(cell.depth, budget[i], forest.keys[idx],
                                 bits, rank.dims),
                    subtree_keys(cell.depth, budget[i], keys[idx], bits,
                                 rank.dims),
                    movers)
                subtrees.append(LocalSubtree(
                    cell=cell, key=old.key, particles=sub, local_idx=idx,
                    tree=res.tree))
                if res.rebuilt:
                    metrics.counter("repair.full_rebuilds").inc()
                else:
                    metrics.counter("repair.repairs").inc()
                metrics.counter("repair.nodes_reused").inc(res.nodes_reused)
                metrics.counter("repair.nodes_rebuilt").inc(
                    res.nodes_rebuilt)
                metrics.counter("repair.changed_keys").inc(
                    res.n_changed_keys)
                touched += int(movers.size)
                depth = max(depth, res.tree.node_depth_max())
            else:
                # Membership changed (or the cell has no key budget):
                # rebuild this subtree from scratch.
                rebuild.append(i)
                rebuild_at.append(len(subtrees))
                subtrees.append(None)
        built = build_subtrees(
            particles, [cells[i] for i in rebuild],
            [by_cell[bounds[i]:bounds[i + 1]] for i in rebuild],
            keys, rank.root, cfg, bits)
        for at, st in zip(rebuild_at, built):
            subtrees[at] = st
            metrics.counter("repair.full_rebuilds").inc()
            metrics.counter("repair.nodes_rebuilt").inc(st.tree.nnodes)
            touched += st.count
            depth = max(depth, st.tree.node_depth_max())
        comm.compute(tree_build_flops(touched, depth))
        branches = local_branch_infos(subtrees, comm.rank, rank.root,
                                      cfg.degree)
    return merged_forest(rank, subtrees, branches, keys)
