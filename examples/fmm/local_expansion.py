"""Local (Taylor) expansions: M2L, L2L, P2L, L2P.

The fast-multipole operators the paper's Section 2 describes ("FMM
computes the potential due to a cluster of particles at the center of
well-separated clusters...  uses cluster-cluster interactions in
addition to particle-cluster interactions") and whose parallelization
the conclusion claims "the techniques can be extended to".  Together
with :mod:`repro.bh.multipole`'s P2M/M2M they complete the operator set
of Greengard & Rokhlin (1987); :mod:`fmm` beside this file assembles
them into a serial FMM evaluator over the same trees.

Conventions continue :mod:`repro.bh.multipole`'s: Greengard-normalized
spherical harmonics, shift vectors always "old center relative to new
center".  A local expansion L about center c represents the potential of
*distant* sources inside its cell:

    phi(P) = sum_{j,k} L_j^k  r^j  Y_j^k(theta, phi),    r = |P - c|
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.bh.multipole import n_terms, regular_terms, term_index

from .harmonics import spherical_coords, spherical_harmonics


def _A(l: int, m: int) -> float:
    return (-1.0) ** l / math.sqrt(
        math.factorial(l - m) * math.factorial(l + m)
    )


@lru_cache(maxsize=16)
def _m2l_tables(degree: int):
    """Index/coefficient arrays for M2L (Greengard Lemma 2.4).

    With the multipole expansion M centered at Q = (rho, alpha, beta)
    *relative to the local center*:

      L_j^k = sum_{l,m} M_l^m i^{|k-m|-|k|-|m|} A_l^m A_j^k
              Y_{j+l}^{m-k}(alpha, beta)
              / ( (-1)^l A_{j+l}^{m-k} rho^{j+l+1} )

    The Y factor is of combined order j+l, so the shift harmonics are
    evaluated at order 2*degree.
    """
    out_idx, m_idx, y_idx, lpj, coefs = [], [], [], [], []
    for j in range(degree + 1):
        for k in range(-j, j + 1):
            for l in range(degree + 1):
                for m in range(-l, l + 1):
                    phase = 1j ** (abs(k - m) - abs(k) - abs(m))
                    out_idx.append(term_index(j, k))
                    m_idx.append(term_index(l, m))
                    y_idx.append(term_index(j + l, m - k))
                    lpj.append(j + l + 1)
                    coefs.append(
                        phase * _A(l, m) * _A(j, k)
                        / ((-1.0) ** l * _A(j + l, m - k))
                    )
    return (np.asarray(out_idx), np.asarray(m_idx), np.asarray(y_idx),
            np.asarray(lpj), np.asarray(coefs, dtype=np.complex128))


def m2l(coeffs: np.ndarray, shift: np.ndarray, degree: int) -> np.ndarray:
    """Convert a multipole expansion into a local expansion.

    ``shift`` is the multipole center relative to the local center; the
    cells must be well separated (|shift| greater than both cell radii)
    for the series to converge.
    """
    shift = np.asarray(shift, dtype=np.float64)
    r, ct, phi = spherical_coords(shift[None])
    rho = float(r[0])
    if rho == 0.0:
        raise ValueError("M2L requires separated centers")
    Y = spherical_harmonics(ct, phi, 2 * degree)[0]
    out_idx, m_idx, y_idx, lpj, coefs = _m2l_tables(degree)
    contrib = coeffs[m_idx] * coefs * Y[y_idx] / rho ** lpj
    out = np.zeros(n_terms(degree), dtype=np.complex128)
    np.add.at(out, out_idx, contrib)
    return out


@lru_cache(maxsize=16)
def _l2l_tables(degree: int):
    """Index/coefficient arrays for L2L (Greengard Lemma 2.5).

      L'_j^k = sum_{l >= j, |m-k| <= l-j} L_l^m i^{|m|-|m-k|-|k|}
               A_{l-j}^{m-k} A_j^k Y_{l-j}^{m-k} rho^{l-j}
               / ( (-1)^{l+j} A_l^m )
    """
    out_idx, l_idx, y_idx, lmj, coefs = [], [], [], [], []
    for j in range(degree + 1):
        for k in range(-j, j + 1):
            for l in range(j, degree + 1):
                for m in range(-l, l + 1):
                    if abs(m - k) > l - j:
                        continue
                    phase = 1j ** (abs(m) - abs(m - k) - abs(k))
                    out_idx.append(term_index(j, k))
                    l_idx.append(term_index(l, m))
                    y_idx.append(term_index(l - j, m - k))
                    lmj.append(l - j)
                    coefs.append(
                        phase * _A(l - j, m - k) * _A(j, k)
                        / ((-1.0) ** (l + j) * _A(l, m))
                    )
    return (np.asarray(out_idx), np.asarray(l_idx), np.asarray(y_idx),
            np.asarray(lmj), np.asarray(coefs, dtype=np.complex128))


def l2l(coeffs: np.ndarray, shift: np.ndarray, degree: int) -> np.ndarray:
    """Translate a local expansion; ``shift`` = old center relative to
    new center (the same convention as M2M)."""
    shift = np.asarray(shift, dtype=np.float64)
    r, ct, phi = spherical_coords(shift[None])
    rho = float(r[0])
    Y = spherical_harmonics(ct, phi, degree)[0]
    out_idx, l_idx, y_idx, lmj, coefs = _l2l_tables(degree)
    contrib = coeffs[l_idx] * coefs * Y[y_idx] * rho ** lmj
    out = np.zeros(n_terms(degree), dtype=np.complex128)
    np.add.at(out, out_idx, contrib)
    return out


def p2l(rel_positions: np.ndarray, charges: np.ndarray,
        degree: int) -> np.ndarray:
    """Local expansion of *distant* point charges about the origin:
    L_j^k = sum_i q_i Y_j^{-k}(alpha_i, beta_i) / rho_i^{j+1}."""
    rel = np.atleast_2d(rel_positions)
    r, ct, phi = spherical_coords(rel)
    if np.any(r == 0):
        raise ValueError("P2L sources must not sit on the local center")
    Y = spherical_harmonics(ct, phi, degree)
    q = np.asarray(charges, dtype=np.float64)
    out = np.zeros(n_terms(degree), dtype=np.complex128)
    rpow = 1.0 / r
    for j in range(degree + 1):
        for k in range(-j, j + 1):
            out[term_index(j, k)] = (q * rpow * Y[:, term_index(j, -k)]).sum()
        rpow = rpow / r
    return out


@lru_cache(maxsize=16)
def _l2p_conj_map(degree: int) -> np.ndarray:
    """Column permutation pairing L_j^k with regular term (j, -k)."""
    idx = np.empty(n_terms(degree), dtype=np.int64)
    for j in range(degree + 1):
        for k in range(-j, j + 1):
            idx[term_index(j, k)] = term_index(j, -k)
    return idx


def l2p(coeffs: np.ndarray, rel_targets: np.ndarray,
        degree: int) -> np.ndarray:
    """Evaluate a local expansion at targets relative to its center.

    One matrix-vector contraction over all terms: r^j Y_j^k is the
    regular_terms column (j, -k), selected by the cached permutation.
    """
    R = regular_terms(np.atleast_2d(rel_targets), degree)
    return (R[:, _l2p_conj_map(degree)] @ coeffs).real
