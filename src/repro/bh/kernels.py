"""Gravitational interaction kernels (vectorized, optionally softened).

Sign conventions: the potential of a point mass ``m`` at distance ``r`` is
``phi = -G m / r``; the acceleration on a unit-mass test particle is
``a = -G m r_vec / r^3`` where ``r_vec`` points from source to target...
i.e. attraction.  All kernels broadcast a batch of targets against a batch
of sources.
"""

from __future__ import annotations

import numpy as np

#: Gravitational constant in simulation units (G = 1, the n-body custom).
G = 1.0

#: Bound on the pair kernels' (chunk, ns, d) temporaries, bytes.  Read
#: at call time.
DEFAULT_WORKING_SET_BYTES = 16 * 2 ** 20


def _target_chunk(ns: int, d: int) -> int:
    """Targets per chunk so live temporaries stay inside the working set.

    The widest pass holds the (chunk, ns, d) difference tensor plus a
    few (chunk, ns) scalars — about ``(d + 3)`` float64 per pair.
    """
    row_bytes = max(1, ns) * 8 * (d + 3)
    return max(1, DEFAULT_WORKING_SET_BYTES // row_bytes)


def _pair_potential_block(t: np.ndarray, s: np.ndarray,
                          source_masses: np.ndarray,
                          softening: float) -> np.ndarray:
    diff = t[:, None, :] - s[None, :, :]                    # (nt, ns, d)
    r2 = np.einsum("ijk,ijk->ij", diff, diff) + softening ** 2
    with np.errstate(divide="ignore"):
        inv_r = 1.0 / np.sqrt(r2)
    inv_r[r2 == 0.0] = 0.0
    inv_r *= source_masses
    return -G * inv_r.sum(axis=1)       # per row: no BLAS row blocking


def _pair_force_block(t: np.ndarray, s: np.ndarray,
                      source_masses: np.ndarray,
                      softening: float) -> np.ndarray:
    diff = t[:, None, :] - s[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff) + softening ** 2
    with np.errstate(divide="ignore"):
        inv_r3 = r2 ** -1.5
    inv_r3[r2 == 0.0] = 0.0
    w = source_masses[None, :] * inv_r3                     # (nt, ns)
    return -G * np.einsum("ij,ijk->ik", w, diff)


def pair_potential(targets: np.ndarray, sources: np.ndarray,
                   source_masses: np.ndarray,
                   softening: float = 0.0) -> np.ndarray:
    """Potential at each target from every source: shape (ntargets,).

    Coincident target/source pairs contribute nothing (they are the
    self-interaction case; the softened kernel also makes them finite).
    Targets are processed in chunks so peak temporary memory is bounded
    by :data:`DEFAULT_WORKING_SET_BYTES` instead of O(nt·ns·d); a
    target row's bits do not depend on the chunk it lands in.
    """
    t = np.atleast_2d(targets)
    s = np.atleast_2d(sources)
    nt, ns = t.shape[0], s.shape[0]
    chunk = _target_chunk(ns, t.shape[1])
    if nt <= chunk:
        return _pair_potential_block(t, s, source_masses, softening)
    out = np.empty(nt)
    for lo in range(0, nt, chunk):
        hi = min(lo + chunk, nt)
        out[lo:hi] = _pair_potential_block(t[lo:hi], s, source_masses,
                                           softening)
    return out


def pair_force(targets: np.ndarray, sources: np.ndarray,
               source_masses: np.ndarray,
               softening: float = 0.0) -> np.ndarray:
    """Acceleration at each target from every source: shape (nt, d).

    Chunked over targets like :func:`pair_potential`.
    """
    t = np.atleast_2d(targets)
    s = np.atleast_2d(sources)
    nt, ns = t.shape[0], s.shape[0]
    chunk = _target_chunk(ns, t.shape[1])
    if nt <= chunk:
        return _pair_force_block(t, s, source_masses, softening)
    out = np.empty((nt, t.shape[1]))
    for lo in range(0, nt, chunk):
        hi = min(lo + chunk, nt)
        out[lo:hi] = _pair_force_block(t[lo:hi], s, source_masses,
                                       softening)
    return out

