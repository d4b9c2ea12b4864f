"""Tree traversal: the force-computation phase of Barnes-Hut.

The traversal is *batched*: a whole array of target points walks the tree
together, the MAC is applied to all of them at once per node, and the
accepted subset gets a vectorized particle-cluster interaction while the
rest descends.  This is how a pure-numpy treecode stays tractable, and it
maps one-to-one onto the paper's function-shipping protocol: the
particle coordinates an owner received for one branch key, in however
many ~100-particle bins, are exactly such a batch evaluated against the
subtree rooted at that branch node.

Remote leaves (placeholders for subtrees owned by other virtual
processors) never contribute locally; the traversal returns, per remote
node, the indices of the targets that need shipping — which the parallel
engine turns into bins.

:func:`traverse` is one :meth:`TraversalEngine.compute
<repro.bh.interaction_lists.TraversalEngine.compute>`: per chunk of
targets, a list-building walk, a fused evaluation pass, and the lists
dropped — the one walk-then-evaluate sequence of every force path.  The
counters, remote-target sets, per-node interaction counts and per-target
weights are identical to the classical single-pass loop, which the
tests keep as their cross-check oracle (``tests/oracles/traversal.py``).
"""

from __future__ import annotations

import numpy as np

from repro.bh.interaction_lists import TraversalEngine, TraversalResult
from repro.bh.mac import BarnesHutMAC
from repro.bh.multipole import MonopoleExpansion, TreeMultipoles
from repro.bh.particles import ParticleSet
from repro.bh.tree import Tree, build_tree

__all__ = [
    "TraversalResult",
    "traverse",
    "compute_forces",
    "compute_potentials",
]


def traverse(tree: Tree, sources: ParticleSet | None,
             target_positions: np.ndarray, mac: BarnesHutMAC,
             evaluator, mode: str = "potential",
             count_node_interactions: bool = False,
             softening: float = 0.0,
             root: int | None = None,
             target_weights: np.ndarray | None = None
             ) -> TraversalResult:
    """Batched Barnes-Hut traversal from ``root`` (default: tree root).

    Parameters
    ----------
    sources:
        The particles the tree was built over; needed for leaf-level
        particle-particle interactions.  May be ``None`` only if the tree
        has no local leaves under ``root`` (a pure top tree).
    evaluator:
        The far field of the tree's nodes: an object with
        ``batch_potential(nodes, targets)`` / ``batch_force(nodes,
        targets)`` (the term of node ``nodes[i]`` at ``targets[:, i]``,
        targets and forces as ``(d, n)`` columns) —
        :class:`MonopoleExpansion` or :class:`TreeMultipoles`, the two
        evaluators behind every force path.
    mode:
        ``"potential"`` or ``"force"``.
    count_node_interactions:
        Accumulate per-node interaction counts into ``tree.interactions``
        (the DPDA load measure).
    target_weights:
        Optional (ntargets,) accumulator: each target's share of the
        traversal cost in model flops is added to it.  The load balancers
        use this to attribute *requester-side* work (top-tree walking)
        to the particles that caused it.
    """
    return TraversalEngine(tree, sources, mac, root=root,
                           softening=softening).compute(
        target_positions, evaluator, mode=mode,
        count_node_interactions=count_node_interactions,
        target_weights=target_weights,
    )


def compute_forces(particles: ParticleSet, alpha: float = 0.67,
                   leaf_capacity: int = 8, softening: float = 0.0,
                   tree: Tree | None = None) -> TraversalResult:
    """Serial Barnes-Hut forces on all particles (monopole, Section 5.1)."""
    if tree is None:
        tree = build_tree(particles, leaf_capacity=leaf_capacity)
    return traverse(tree, particles, particles.positions,
                    BarnesHutMAC(alpha),
                    MonopoleExpansion(tree, softening=softening),
                    mode="force", softening=softening)


def compute_potentials(particles: ParticleSet, alpha: float = 0.67,
                       degree: int = 0, leaf_capacity: int = 8,
                       softening: float = 0.0,
                       tree: Tree | None = None) -> TraversalResult:
    """Serial Barnes-Hut potentials on all particles.

    ``degree = 0`` uses monopoles; ``degree >= 1`` uses spherical-harmonic
    multipole expansions of that degree (Section 5.2).
    """
    if tree is None:
        tree = build_tree(particles, leaf_capacity=leaf_capacity)
    if degree == 0:
        evaluator = MonopoleExpansion(tree, softening=softening)
    else:
        evaluator = TreeMultipoles(tree, particles, degree)
    return traverse(tree, particles, particles.positions,
                    BarnesHutMAC(alpha), evaluator, mode="potential",
                    softening=softening)
