"""The classical single-pass Barnes-Hut traversal, kept verbatim from
``repro.bh.traversal`` as the oracle :func:`repro.bh.traversal.traverse`
and the list-building walk are compared against."""

from __future__ import annotations

import numpy as np

from repro.bh import kernels
from repro.bh.interaction_lists import TraversalResult
from repro.bh.mac import BarnesHutMAC
from repro.bh.particles import ParticleSet
from repro.bh.tree import NO_CHILD, Tree


def traverse_reference(tree: Tree, sources: ParticleSet | None,
                       target_positions: np.ndarray, mac: BarnesHutMAC,
                       evaluator, mode: str = "potential",
                       count_node_interactions: bool = False,
                       softening: float = 0.0,
                       root: int | None = None,
                       target_weights: np.ndarray | None = None
                       ) -> TraversalResult:
    """The classical single-pass traversal (kernels evaluated in walk
    order): the correctness oracle for the interaction-list engine."""
    if mode not in ("potential", "force"):
        raise ValueError(f"mode must be 'potential' or 'force', got {mode!r}")
    targets = np.atleast_2d(np.asarray(target_positions, dtype=np.float64))
    nt, d = targets.shape
    values = np.zeros(nt) if mode == "potential" else np.zeros((nt, d))
    result = TraversalResult(values=values)
    if nt == 0 or tree.nnodes == 0:
        return result

    degree = getattr(evaluator, "degree", 0)
    per_cluster_flops = 13.0 + 16.0 * max(degree, 1) ** 2
    start = tree.ROOT if root is None else root
    stack: list[tuple[int, np.ndarray]] = [(start, np.arange(nt))]
    while stack:
        node, idx = stack.pop()
        if tree.is_remote(node):
            prev = result.remote_targets.get(node)
            result.remote_targets[node] = (
                idx if prev is None else np.concatenate((prev, idx))
            )
            continue
        if tree.count(node) == 0:
            continue
        if tree.is_leaf(node):
            if sources is None:
                raise ValueError("tree has local leaves but no source "
                                 "particles were provided")
            p_idx = tree.particle_indices(node)
            if mode == "potential":
                values[idx] += kernels.pair_potential(
                    targets[idx], sources.positions[p_idx],
                    sources.masses[p_idx], softening=softening,
                )
            else:
                values[idx] += kernels.pair_force(
                    targets[idx], sources.positions[p_idx],
                    sources.masses[p_idx], softening=softening,
                )
            result.p2p_interactions += idx.size * p_idx.size
            if target_weights is not None:
                target_weights[idx] += 29.0 * p_idx.size
            if count_node_interactions:
                # Count *pairs*, not visits: a leaf with k particles
                # serving m targets costs m*k interactions, and the load
                # balancers consume these counters as work units.
                tree.interactions[node] += idx.size * p_idx.size
            continue
        result.mac_tests += idx.size
        if target_weights is not None:
            target_weights[idx] += 14.0
        ok = mac.accept(tree, node, targets[idx])
        far = idx[ok]
        if far.size:
            if mode == "potential":
                values[far] += evaluator.node_potential(node, targets[far])
            else:
                values[far] += evaluator.node_force(node, targets[far])
            result.cluster_interactions += far.size
            if target_weights is not None:
                target_weights[far] += per_cluster_flops
            if count_node_interactions:
                tree.interactions[node] += far.size
        near = idx[~ok]
        if near.size:
            for child in tree.children[node]:
                if child != NO_CHILD:
                    stack.append((int(child), near))
    return result
