"""Numpy statements of the compiled force kernels in
``repro/bh/_kernels.c``, kept as their oracles.

``point_masses_reference`` is the point-mass cluster formula verbatim on
``(n, d)`` rows, its ``r^2`` from ``einsum``: the C kernel adds these
terms into the values as ``np.add.at`` would, in list order.
``p2p_group_reference`` is one P2P leaf-size group with one ``(ns,
rows)`` index take per coordinate, where the C kernel gathers each leaf
visit's targets once and runs its rows as the lanes of each source.
``m2p_reference`` is the degree >= 1 series: the harmonic rows of
``repro.bh.multipole._solid_rows`` times the node's ``m2p_table`` row,
folded over the rows one at a time.
``fused_walk_reference`` is the C ``walk``: the visit order of
``tests/oracles/walk.py::walk_dfs_reference``, ``point_masses_reference``
or ``m2p_reference`` added at each accepting node and
``p2p_group_reference`` at each leaf visit, so every target sums its
terms in visit order.
All must agree with the kernels bit for bit.

``pair_potential_reference`` / ``pair_force_reference`` (the direct
sums the classical traversal oracle adds at its leaves) and
``series_reference`` (one expansion at many offsets) are independent
numpy statements of the same physics, compared to a tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.bh.interaction_lists import G
from repro.bh.multipole import _solid_rows, m2p_table
from repro.bh.tree import NO_CHILD
from tests.oracles.walk import walk_dfs_reference


def point_masses_reference(com: np.ndarray, mass: np.ndarray,
                           softening: float, nodes: np.ndarray,
                           targets: np.ndarray, force: bool) -> np.ndarray:
    """Potential ``-G m / r`` (or acceleration ``-G m dr / r^3``, as
    ``(n, d)`` rows, with ``force``) of point mass ``nodes[i]`` at
    ``targets[i]``, with ``r^2`` softened by ``softening^2`` and a zero
    distance contributing exactly zero."""
    diff = targets - com.take(nodes, axis=0)
    r2 = np.einsum("ij,ij->i", diff, diff) + softening ** 2
    zero = r2 == 0.0
    np.sqrt(r2, out=r2)
    with np.errstate(divide="ignore"):
        np.divide(1.0, r2, out=r2)                 # inv_r
    r2[zero] = 0.0
    if not force:
        return -G * mass.take(nodes) * r2
    inv_r3 = r2 * r2
    inv_r3 *= r2
    w = mass.take(nodes) * inv_r3
    w *= -G
    return w[:, None] * diff


def m2p_reference(table: np.ndarray, nodes: np.ndarray, rel: np.ndarray,
                  degree: int) -> np.ndarray:
    """``sum q / r`` of expansion ``nodes[i]`` of an ``(nnodes, nterms)``
    ``m2p_table`` at offset ``rel[:, i]`` (``(3, n)`` columns) from its
    centre: the irregular rows of ``_solid_rows`` (a zero offset is its
    ``ValueError``) times the node's table row, folded over the rows
    left to right in ``term_index`` order, one row at a time."""
    T = _solid_rows(rel, degree, True)
    tab = table[nodes]
    acc = T[0] * tab[:, 0]
    for k in range(1, T.shape[0]):
        acc = acc + T[k] * tab[:, k]
    return acc


def series_reference(coeffs: np.ndarray, rel: np.ndarray,
                     degree: int) -> np.ndarray:
    """Potential ``sum q / r`` of one expansion ``coeffs`` at the
    ``(n, 3)`` offsets ``rel`` from its centre."""
    rel = np.atleast_2d(rel)
    return m2p_reference(m2p_table(coeffs[None, :], degree),
                         np.zeros(rel.shape[0], dtype=np.intp), rel.T,
                         degree)


def pair_potential_reference(targets: np.ndarray, sources: np.ndarray,
                             source_masses: np.ndarray,
                             softening: float = 0.0) -> np.ndarray:
    """Potential ``-G sum m / r`` at each ``(nt, d)`` target from every
    source; a coincident unsoftened pair contributes nothing."""
    diff = targets[:, None, :] - sources[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff) + softening ** 2
    with np.errstate(divide="ignore"):
        inv_r = 1.0 / np.sqrt(r2)
    inv_r[r2 == 0.0] = 0.0
    return -G * (inv_r * source_masses).sum(axis=1)


def pair_force_reference(targets: np.ndarray, sources: np.ndarray,
                         source_masses: np.ndarray,
                         softening: float = 0.0) -> np.ndarray:
    """Acceleration ``-G sum m dr / r^3`` at each ``(nt, d)`` target."""
    diff = targets[:, None, :] - sources[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff) + softening ** 2
    with np.errstate(divide="ignore"):
        inv_r3 = r2 ** -1.5
    inv_r3[r2 == 0.0] = 0.0
    return -G * np.einsum("ij,ijk->ik", source_masses * inv_r3, diff)


def p2p_group_reference(out: np.ndarray, tgt: np.ndarray,
                        starts: np.ndarray, rows: np.ndarray, ns: int,
                        tp: np.ndarray, sp: np.ndarray,
                        sm: np.ndarray | None, force: bool, soft2: float,
                        scale: float) -> None:
    """One P2P group with the signature of
    ``interaction_lists._p2p_group``: the visits' slice starts expanded
    to one per row, source ``j`` of row ``i`` taken by index
    ``starts[i] + j``; each row's terms folded over ``j`` one source at
    a time (assigned at ``j = 0``), times ``scale``, and added onto
    ``out`` (potentials, or ``(d, nt)`` force columns) by ``np.add.at``
    in row order."""
    d = sp.shape[0]
    ix = np.repeat(starts, rows) + np.arange(ns)[:, None]      # (ns, m)
    dv = np.stack([tp[k].take(tgt) - sp[k].take(ix) for k in range(d)])
    r2 = dv[0] * dv[0]
    for k in range(1, d):
        r2 += dv[k] * dv[k]
    r2 += soft2
    zero = r2 == 0.0
    np.sqrt(r2, out=r2)
    with np.errstate(divide="ignore"):
        np.divide(1.0, r2, out=r2)           # inv_r
    r2[zero] = 0.0
    w = r2 * r2 * r2 if force else r2
    if sm is not None:
        w = w * sm.take(ix)
    terms = dv * w if force else w[None]     # (components, ns, m)
    row = terms[:, 0].copy()
    for j in range(1, ns):
        row += terms[:, j]
    row *= scale
    if out.ndim == 1:
        np.add.at(out, tgt, row[0])
    else:
        for k in range(d):
            np.add.at(out[k], tgt, row[k])


def fused_walk_reference(tree, targets: np.ndarray, alpha: float,
                         evaluator, layout: tuple | None, mode: str,
                         softening: float):
    """The C walk over ``(nt, d)`` targets, event by event: per accepted
    node its far-field terms — point masses (the evaluator's
    ``point_masses(mode)``) or, where that is ``None``, its series
    (``series()``, by ``m2p_reference``); per leaf visit one P2P group
    of that visit over the ``(sp, sm, scale)`` ``layout``.  Returns the
    values (potentials, or ``(d, nt)`` force columns), ``(3, nt)`` MAC
    tests, clusters and P2P sources per target, the per-node counts and
    the remote map (sorted keys and contents)."""
    nt, d = targets.shape
    force = mode == "force"
    cols = np.ascontiguousarray(targets.T)
    values = np.zeros((d, nt) if force else nt)
    counts = np.zeros((3, nt), dtype=np.int64)
    node_count = np.zeros(tree.nnodes, dtype=np.int64)
    masses = evaluator.point_masses(mode)

    def visit(kind, node, idx):
        if kind == "test":
            return
        if kind == "cluster":
            counts[1, idx] += 1
            node_count[node] += idx.size
            nodes = np.full(idx.size, node)
            if masses is None:
                centres, table, _, degree = evaluator.series()
                term = -G * m2p_reference(table, nodes,
                                          cols[:, idx] - centres[node][:, None],
                                          degree)
            else:
                com, mass, soft = masses
                term = point_masses_reference(com, mass, soft, nodes,
                                              targets[idx], force)
            if force:
                values[:, idx] += term.T
            else:
                values[idx] += term
        else:
            ns = int(tree.end[node] - tree.start[node])
            counts[2, idx] += ns
            node_count[node] += idx.size * ns
            sp, sm, scale = layout
            p2p_group_reference(values, idx, tree.start[node:node + 1],
                                np.array([idx.size]), ns, cols, sp, sm,
                                force, softening ** 2, scale)

    cls = np.zeros(tree.nnodes, dtype=np.int8)
    cls[(tree.children == NO_CHILD).all(axis=1)] = 1
    cls[tree.end == tree.start] = 3
    cls[tree.remote_owner >= 0] = 2
    if nt and tree.nnodes:
        walk = walk_dfs_reference(tree, targets, alpha, cls, tree.ROOT,
                                  visit)
        remote, counts[0] = walk[4], walk[6]
    else:
        remote = {}
    return (values, counts, node_count,
            {n: np.sort(remote[n]) for n in sorted(remote)})
