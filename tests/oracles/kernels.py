"""The cluster and P2P kernels as they stood on ``(n, d)`` rows and
per-row source indices, kept as the oracles of the column kernels that
replaced them in ``repro.bh.multipole`` / ``repro.bh.interaction_lists``.

``point_masses_reference`` is the point-mass cluster formula verbatim on
``(n, d)`` targets, its ``r^2`` from ``einsum``; ``p2p_chunk_reference``
is the lane-major P2P chunk with one ``(ns, rows)`` index take per
coordinate, where the kernel now gathers each leaf visit's sources once
and repeats them over the visit's rows.  Both must agree with their
replacements bit for bit.
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


def p2p_chunk_reference(out: np.ndarray, tgt: np.ndarray,
                        starts: np.ndarray, runs: np.ndarray, ns: int,
                        tp: np.ndarray, sp: np.ndarray,
                        sm: np.ndarray | None, force: bool, soft2: float,
                        scale: float) -> None:
    """One P2P chunk with the signature of
    ``interaction_lists._p2p_chunk``: the runs' slice starts expanded to
    one per row, source ``j`` of row ``i`` taken by index ``starts[i] +
    j``, accumulated onto ``out`` (potentials, or ``(d, nt)`` force
    columns)."""
    d = sp.shape[0]
    ix = np.repeat(starts, runs) + np.arange(ns)[:, None]
    dv = np.stack([tp[k].take(tgt) - sp[k].take(ix) for k in range(d)])
    r2 = dv[0] * dv[0]
    for k in range(1, d):
        r2 += dv[k] * dv[k]
    if soft2 != 0.0:
        r2 += soft2
    zero = r2 == 0.0
    np.sqrt(r2, out=r2)
    with np.errstate(divide="ignore"):
        np.divide(1.0, r2, out=r2)           # inv_r
    r2[zero] = 0.0
    w = r2 * r2 * r2 if force else r2
    if sm is not None:
        w = w * sm.take(ix)
    contrib = (np.add.reduce(dv * w, axis=1) if force
               else np.add.reduce(w, axis=0))
    contrib *= scale
    nt = out.shape[-1]
    if out.ndim == 1:
        out += np.bincount(tgt, weights=contrib, minlength=nt)
    else:
        for k in range(d):
            out[k] += np.bincount(tgt, weights=contrib[k], minlength=nt)
