"""Numpy statements of the compiled force kernels in
``repro/bh/_kernels.c``, kept as their oracles.

``point_masses_reference`` is the point-mass cluster formula verbatim on
``(n, d)`` rows, its ``r^2`` from ``einsum``: the C kernel adds these
terms into the values as ``np.add.at`` would, in list order.
``p2p_group_reference`` is one P2P leaf-size group with one ``(ns,
rows)`` index take per coordinate, where the C kernel gathers each leaf
visit's targets once and runs its rows as the lanes of each source.
Both must agree with the kernels bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.bh import kernels


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
