"""Per-node reverse-scan upward passes, kept verbatim from
``repro.bh.multipole`` and ``repro.core.tree_merge`` as the oracles for
:meth:`TreeMultipoles._build` and the top tree's merged expansions."""

from __future__ import annotations

import numpy as np

from repro.bh.multipole import TreeMultipoles, m2m_shift, regular_terms
from repro.bh.particles import ParticleSet
from repro.bh.tree import NO_CHILD, Tree


def build_multipoles_reference(multipoles: TreeMultipoles,
                               particles: ParticleSet) -> None:
    """Per-node reverse-scan P2M/M2M pass — the oracle
    :meth:`TreeMultipoles._build` is validated against."""
    tree, degree = multipoles.tree, multipoles.degree
    for node in range(tree.nnodes - 1, -1, -1):
        if tree.is_remote(node):
            continue
        if tree.is_leaf(node):
            idx = tree.particle_indices(node)
            if idx.size:
                rel = particles.positions[idx] - tree.center[node]
                multipoles.coeffs[node] = (particles.masses[idx]
                                           @ regular_terms(rel, degree))
        else:
            kids = tree.children[node]
            kids = kids[kids != NO_CHILD]
            for c in kids:
                shift = tree.center[c] - tree.center[node]
                multipoles.coeffs[node] += m2m_shift(multipoles.coeffs[c],
                                                     shift, degree)


def top_tree_coeffs_reference(top) -> np.ndarray:
    """Per-node, per-child scalar M2M loop over a merged top tree, kept
    verbatim from ``build_top_tree`` — the oracle for its use of
    :func:`repro.bh.multipole.m2m_upward`.  Branch leaves keep the
    coefficients they were published with."""
    tree, degree = top.tree, top.multipoles.degree
    remote = tree.remote_owner >= 0
    coeffs = np.where(remote[:, None], top.multipoles.coeffs, 0.0)
    for i in range(tree.nnodes - 1, -1, -1):
        if remote[i]:
            continue
        kids = tree.children[i][tree.children[i] != NO_CHILD]
        for c in kids:
            shift = tree.center[c] - tree.center[i]
            coeffs[i] += m2m_shift(coeffs[c], shift, degree)
    return coeffs
