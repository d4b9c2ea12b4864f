"""Per-node reverse-scan upward passes, kept verbatim from
``repro.bh.tree`` and ``repro.bh.multipole`` as the oracles for
:meth:`Tree.sum_interactions_up` and :meth:`TreeMultipoles._build`."""

from __future__ import annotations

from repro.bh.multipole import TreeMultipoles
from repro.bh.particles import ParticleSet
from repro.bh.tree import NO_CHILD, Tree


def sum_interactions_up_reference(tree: Tree) -> None:
    """Per-node reverse scan (relies on every child id being greater
    than its parent id) — the oracle for the level-batched pass."""
    for node in range(tree.nnodes - 1, -1, -1):
        kids = tree.children[node]
        kids = kids[kids != NO_CHILD]
        if kids.size:
            tree.interactions[node] += tree.interactions[kids].sum()


def build_multipoles_reference(multipoles: TreeMultipoles,
                               particles: ParticleSet) -> None:
    """Per-node reverse-scan P2M/M2M pass — the oracle
    :meth:`TreeMultipoles._build` is validated against."""
    tree, exp = multipoles.tree, multipoles.expansion
    for node in range(tree.nnodes - 1, -1, -1):
        if tree.is_remote(node):
            continue
        if tree.is_leaf(node):
            idx = tree.particle_indices(node)
            if idx.size:
                rel = particles.positions[idx] - tree.center[node]
                multipoles.coeffs[node] = exp.p2m(rel, particles.masses[idx])
        else:
            kids = tree.children[node]
            kids = kids[kids != NO_CHILD]
            for c in kids:
                shift = tree.center[c] - tree.center[node]
                multipoles.coeffs[node] += exp.m2m(multipoles.coeffs[c], shift)
