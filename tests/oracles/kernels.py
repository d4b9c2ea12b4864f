"""Numpy statements of the compiled force kernels in
``repro/bh/_kernels.c``, kept as their oracles.

``point_masses_reference`` is the point-mass cluster formula verbatim on
``(n, d)`` rows, its ``r^2`` from ``einsum``: the C kernel adds these
terms into the values as ``np.add.at`` would, in list order.
``p2p_group_reference`` is one P2P leaf-size group with one ``(ns,
rows)`` index take per coordinate, where the C kernel gathers each leaf
visit's targets once and runs its rows as the lanes of each source.
``fused_walk_reference`` is the C ``walk``: the visit order of
``tests/oracles/walk.py::walk_dfs_reference``, ``point_masses_reference``
added at each accepting node and ``p2p_group_reference`` at each leaf
visit, so every target sums its terms in visit order.
All must agree with the kernels bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.bh import kernels
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
        return -kernels.G * mass.take(nodes) * r2
    inv_r3 = r2 * r2
    inv_r3 *= r2
    w = mass.take(nodes) * inv_r3
    w *= -kernels.G
    return w[:, None] * diff


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
                         softening: float, pair_cap: int = 0):
    """The C walk over ``(nt, d)`` targets, event by event: per accepted
    node its point-mass terms (the evaluator's ``point_masses(mode)``),
    or, where that is ``None``, its pairs, handed to the evaluator's
    ``batch_potential`` in chunks of the working set whenever ``pair_cap``
    would overflow before a MAC test and at the end; per leaf visit one
    P2P group of that visit over the ``(sp, sm, scale)`` ``layout``.
    Returns the values (potentials, or ``(d, nt)`` force columns),
    ``(3, nt)`` MAC tests, clusters and P2P sources per target, the
    per-node counts, the remote map (sorted keys and contents) and the
    emitted pairs in list order."""
    from repro.bh import interaction_lists as il

    nt, d = targets.shape
    force = mode == "force"
    cols = np.ascontiguousarray(targets.T)
    values = np.zeros((d, nt) if force else nt)
    counts = np.zeros((3, nt), dtype=np.int64)
    node_count = np.zeros(tree.nnodes, dtype=np.int64)
    masses = evaluator.point_masses(mode)
    pairs: list[tuple[int, np.ndarray]] = []
    held: list[tuple[int, np.ndarray]] = []

    def drain():
        if not held:
            return
        nodes = np.concatenate([np.full(i.size, n) for n, i in held])
        tgt = np.concatenate([i for _, i in held])
        chunk = max(1, il.DEFAULT_WORKING_SET_BYTES
                    // evaluator.batch_row_bytes)
        for lo in range(0, tgt.size, chunk):
            t = tgt[lo:lo + chunk]
            np.add(values, np.bincount(t, minlength=nt, weights=(
                evaluator.batch_potential(nodes[lo:lo + chunk],
                                          cols.take(t, axis=1)))),
                   out=values)
        held.clear()

    def visit(kind, node, idx):
        if kind == "test":
            if masses is None and sum(i.size for _, i in held) \
                    + idx.size > pair_cap:
                drain()
        elif kind == "cluster":
            counts[1, idx] += 1
            node_count[node] += idx.size
            if masses is None:
                pairs.append((node, idx))
                held.append((node, idx))
                return
            com, mass, soft = masses
            term = point_masses_reference(com, mass, soft,
                                          np.full(idx.size, node),
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
    drain()
    return (values, counts, node_count,
            {n: np.sort(remote[n]) for n in sorted(remote)}, pairs)
