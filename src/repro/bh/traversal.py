"""Serial Barnes-Hut potentials: the force-computation phase on one
processor.

The traversal is *batched*: a whole array of target points walks the
tree together, the MAC is applied to all of them per node, the accepted
ones get their particle-cluster term and the rest descend.  That maps
one-to-one onto the paper's function-shipping protocol: the particle
coordinates an owner received for one branch key, in however many
~100-particle bins, are exactly such a batch evaluated against the
subtree rooted at that branch node.

:func:`compute_potentials` is one :meth:`TraversalEngine.compute
<repro.bh.interaction_lists.TraversalEngine.compute>`, the one C walk
that decides and evaluates on every force path.  The counters,
remote-target sets, per-node interaction counts and per-target weights
are identical to the classical single-pass loop, which the tests keep
as their cross-check oracle (``tests/oracles/traversal.py``).
"""

from __future__ import annotations

from repro.bh.interaction_lists import TraversalEngine, TraversalResult
from repro.bh.mac import BarnesHutMAC
from repro.bh.multipole import MonopoleExpansion, TreeMultipoles
from repro.bh.particles import ParticleSet
from repro.bh.tree import Tree, build_tree

__all__ = [
    "TraversalResult",
    "compute_potentials",
]


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
    return TraversalEngine(tree, particles, BarnesHutMAC(alpha),
                           softening=softening).compute(
        particles.positions, evaluator, mode="potential")
