"""The classical single-pass Barnes-Hut traversal, kept verbatim from
``repro.bh.traversal`` as the oracle :func:`repro.bh.traversal.traverse`
and the list-building walk are compared against.  A node's cluster term
is computed here from the tree and the evaluator's coefficients, with
this module's own point-mass formula, so the oracle shares no evaluator
code with what it checks."""

from __future__ import annotations

import numpy as np

from repro.bh.interaction_lists import G, TraversalResult
from repro.bh.mac import BarnesHutMAC
from repro.bh.particles import ParticleSet
from repro.bh.tree import NO_CHILD, Tree
from tests.oracles.kernels import (pair_force_reference,
                                   pair_potential_reference,
                                   series_reference)


def node_value(evaluator, tree: Tree, node: int, targets: np.ndarray,
               mode: str) -> np.ndarray:
    """One node's cluster term at ``targets``: its degree-k series
    (``series_reference``) for a potential of an evaluator
    with coefficients, else its center of mass as a point mass softened
    by the evaluator's ``softening`` (none for a series evaluator)."""
    coeffs = getattr(evaluator, "coeffs", None)
    if mode == "potential" and coeffs is not None:
        rel = targets - tree.center[node]
        return -G * series_reference(coeffs[node], rel, evaluator.degree)
    diff = targets - tree.com[node]
    r2 = np.einsum("ij,ij->i", diff, diff) \
        + getattr(evaluator, "softening", 0.0) ** 2
    with np.errstate(divide="ignore"):
        inv_r = 1.0 / np.sqrt(r2)
    inv_r[r2 == 0.0] = 0.0
    if mode == "potential":
        return -G * tree.mass[node] * inv_r
    return -G * tree.mass[node] * diff * (inv_r ** 3)[:, None]


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
                values[idx] += pair_potential_reference(
                    targets[idx], sources.positions[p_idx],
                    sources.masses[p_idx], softening=softening,
                )
            else:
                values[idx] += pair_force_reference(
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
            values[far] += node_value(evaluator, tree, node, targets[far],
                                      mode)
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
