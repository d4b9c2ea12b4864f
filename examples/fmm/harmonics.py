"""Spherical harmonics in angle form: ``Y_l^m`` on shift vectors for the
M2L / L2L / P2L / L2P operators beside this file.

:mod:`repro.bh.multipole` computes its solid harmonics by Cartesian
recurrences and never forms an angle; these three functions are the
textbook route — ``(r, cos theta, phi)``, an associated-Legendre table,
``e^{i m phi}`` — in the same Greengard normalization

    Y_l^m(theta, phi) = sqrt((l-|m|)! / (l+|m|)!) P_l^|m|(cos theta) e^{i m phi}

with the Condon-Shortley phase, and the tests use them as the
independent oracle of those recurrences.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bh.multipole import n_terms, term_index


def spherical_coords(rel: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, cos theta, phi) of Cartesian offsets; r = 0 maps to the pole."""
    rel = np.atleast_2d(rel)
    r = np.sqrt(np.einsum("ij,ij->i", rel, rel))
    safe_r = np.where(r > 0, r, 1.0)
    cos_t = np.where(r > 0, rel[:, 2] / safe_r, 1.0)
    cos_t = np.clip(cos_t, -1.0, 1.0)
    phi = np.arctan2(rel[:, 1], rel[:, 0])
    return r, cos_t, phi


def _legendre_table(x: np.ndarray, degree: int) -> list[list[np.ndarray]]:
    """Associated Legendre P_l^m(x) (Condon-Shortley) for 0<=m<=l<=degree,
    vectorized over ``x``."""
    P: list[list[np.ndarray | None]] = [
        [None] * (degree + 1) for _ in range(degree + 1)
    ]
    P[0][0] = np.ones_like(x)
    if degree == 0:
        return P  # type: ignore[return-value]
    somx2 = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    for m in range(1, degree + 1):
        P[m][m] = -(2 * m - 1) * somx2 * P[m - 1][m - 1]
    for m in range(degree):
        P[m + 1][m] = (2 * m + 1) * x * P[m][m]
    for m in range(degree + 1):
        for l in range(m + 2, degree + 1):
            P[l][m] = ((2 * l - 1) * x * P[l - 1][m]
                       - (l + m - 1) * P[l - 2][m]) / (l - m)
    return P  # type: ignore[return-value]


def spherical_harmonics(cos_t: np.ndarray, phi: np.ndarray,
                        degree: int) -> np.ndarray:
    """Y_l^m for all (l, m) up to ``degree``: shape (npts, nterms)."""
    npts = cos_t.shape[0]
    P = _legendre_table(cos_t, degree)
    out = np.empty((npts, n_terms(degree)), dtype=np.complex128)
    e_pos = [np.exp(1j * m * phi) for m in range(degree + 1)]
    for l in range(degree + 1):
        for m in range(l + 1):
            norm = math.sqrt(math.factorial(l - m) / math.factorial(l + m))
            y = norm * P[l][m] * e_pos[m]
            out[:, term_index(l, m)] = y
            if m:
                out[:, term_index(l, -m)] = np.conj(y)
    return out
