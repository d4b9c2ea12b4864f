"""A serial fast multipole method on the Barnes-Hut trees.

The paper contrasts Barnes-Hut (particle-cluster interactions, forces)
with Greengard & Rokhlin's FMM (cluster-cluster interactions,
potentials) and notes that "parallel formulations of FMM and the
Barnes-Hut method are similar...  the techniques can be extended to
FMM".  This module provides the serial FMM those extensions would build
on, assembled from the operator set in :mod:`repro.bh.multipole` (P2M,
M2M) and :mod:`local_expansion` beside this file (M2L, L2L, L2P):

1. *upward pass* — leaf P2M, M2M to ancestors (``TreeMultipoles``);
2. *interaction pass* — a dual tree walk pairs cells; well-separated
   pairs exchange M2L contributions, leaf pairs fall back to direct
   summation;
3. *downward pass* — L2L pushes local expansions to children, L2P
   evaluates them at the particles.

Well-separatedness uses the symmetric criterion
``side_a + side_b < theta * dist(center_a, center_b)`` which plays the
role of the Barnes-Hut alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bh.direct import direct_potentials
from repro.bh.interaction_lists import G
from repro.bh.multipole import TreeMultipoles, n_terms
from repro.bh.particles import ParticleSet
from repro.bh.tree import NO_CHILD, Tree, build_tree

from .local_expansion import l2l, l2p, m2l


@dataclass
class FMMStats:
    """Operator counts of one evaluation (for the O(n) argument)."""

    m2l_pairs: int = 0
    p2p_pairs: int = 0
    l2l_shifts: int = 0


def _children(tree: Tree, node: int) -> list[int]:
    return [int(c) for c in tree.children[node] if c != NO_CHILD]


def _batched_m2l(tree: Tree, tm: TreeMultipoles,
                 pairs: list[tuple[int, int]], locals_: np.ndarray,
                 degree: int, chunk: int = 512) -> None:
    """Apply M2L for all (target, source) cell pairs, vectorized.

    The shift harmonics are evaluated for a whole chunk of pairs at once
    and the translation applied as one gather/scatter — two orders of
    magnitude faster than per-pair calls in Python.
    """
    from .local_expansion import _m2l_tables
    from .harmonics import spherical_coords, spherical_harmonics

    if not pairs:
        return
    out_idx, m_idx, y_idx, lpj, coefs = _m2l_tables(degree)
    nt = locals_.shape[1]
    arr = np.asarray(pairs, dtype=np.int64)
    flat = locals_.reshape(-1)
    for lo in range(0, arr.shape[0], chunk):
        part = arr[lo:lo + chunk]
        ta, sb = part[:, 0], part[:, 1]
        shifts = tree.center[sb] - tree.center[ta]
        r, ct, phi_ = spherical_coords(shifts)
        Y = spherical_harmonics(ct, phi_, 2 * degree)      # (c, nt2)
        contrib = (tm.coeffs[sb][:, m_idx] * coefs[None, :]
                   * Y[:, y_idx] / r[:, None] ** lpj[None, :])
        flat_idx = ta[:, None] * nt + out_idx[None, :]
        np.add.at(flat, flat_idx.ravel(), contrib.ravel())


def fmm_potentials(particles: ParticleSet, degree: int = 6,
                   theta: float = 0.7, leaf_capacity: int = 16,
                   tree: Tree | None = None,
                   return_stats: bool = False):
    """Gravitational potentials (-G q / r convention) at every particle.

    Parameters
    ----------
    degree:
        Expansion order of both multipole and local series.
    theta:
        Separation parameter: cells interact through M2L when
        ``side_a + side_b < theta * distance``.  Smaller = stricter =
        more accurate.
    """
    if particles.dims != 3:
        raise ValueError("the FMM operators are three-dimensional")
    if degree < 1:
        raise ValueError("FMM needs expansion degree >= 1")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if tree is None:
        tree = build_tree(particles, leaf_capacity=leaf_capacity)

    # ---- upward pass: P2M at leaves, M2M to ancestors
    tm = TreeMultipoles(tree, particles, degree)
    stats = FMMStats()

    locals_ = np.zeros((tree.nnodes, n_terms(degree)), dtype=np.complex128)
    phi = np.zeros(particles.n)

    # ---- interaction pass: dual tree walk from (root, root).
    # M2L pairs and leaf P2P partners are *collected* during the walk and
    # processed in vectorized batches afterwards — per-pair Python calls
    # dominate otherwise.
    def well_separated(a: int, b: int) -> bool:
        d = np.linalg.norm(tree.center[a] - tree.center[b])
        return 2.0 * (tree.half[a] + tree.half[b]) < theta * d

    m2l_pairs: list[tuple[int, int]] = []
    p2p_partners: dict[int, list[int]] = {}

    stack = [(tree.ROOT, tree.ROOT)]
    while stack:
        a, b = stack.pop()   # a: target cell, b: source cell
        if tree.count(a) == 0 or tree.count(b) == 0:
            continue
        if a != b and well_separated(a, b):
            m2l_pairs.append((a, b))
            continue
        a_leaf, b_leaf = tree.is_leaf(a), tree.is_leaf(b)
        if a_leaf and b_leaf:
            p2p_partners.setdefault(a, []).append(b)
            continue
        # split the larger cell (both if equal and a == b)
        if b_leaf or (not a_leaf and tree.half[a] >= tree.half[b]):
            for c in _children(tree, a):
                stack.append((c, b))
        else:
            for c in _children(tree, b):
                stack.append((a, c))

    stats.m2l_pairs = len(m2l_pairs)
    stats.p2p_pairs = sum(len(v) for v in p2p_partners.values())
    _batched_m2l(tree, tm, m2l_pairs, locals_, degree)

    for a, sources in p2p_partners.items():
        ia = tree.particle_indices(a)
        ib = np.concatenate([tree.particle_indices(b) for b in sources])
        # direct_potentials returns the gravity sign (-G q / r); phi
        # here accumulates the raw series sum (+q / r) until the final
        # flip.
        phi[ia] -= direct_potentials(
            ParticleSet(particles.positions[ib], particles.masses[ib]),
            particles.positions[ia]) / G

    # ---- downward pass: L2L to children, L2P at leaves
    order = np.argsort(tree.depth, kind="stable")
    for node in order:
        node = int(node)
        kids = _children(tree, node)
        for c in kids:
            shift = tree.center[node] - tree.center[c]
            locals_[c] += l2l(locals_[node], shift, degree)
            stats.l2l_shifts += 1
        if not kids:  # leaf: evaluate the accumulated local expansion
            idx = tree.particle_indices(node)
            if idx.size:
                rel = particles.positions[idx] - tree.center[node]
                phi[idx] += l2p(locals_[node], rel, degree)

    phi *= -G
    if return_stats:
        return phi, stats
    return phi
