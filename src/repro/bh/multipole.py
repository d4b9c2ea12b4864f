"""Multipole expansions: monopole, 3-D spherical harmonic, 2-D complex.

The paper's Section 5.2 computes gravitational *potentials* "conveniently
expressed as a series using Legendre's polynomials" of degree ``k`` (their
citation is Greengard's thesis).  We implement the classical spherical-
harmonic multipole machinery in Greengard's normalization:

    Y_l^m(theta, phi) = sqrt((l-|m|)! / (l+|m|)!) P_l^|m|(cos theta) e^{i m phi}

    P2M:  M_l^m = sum_j q_j rho_j^l Y_l^{-m}(alpha_j, beta_j)
    M2P:  phi(P) = sum_{l,m} M_l^m Y_l^m(theta, phi) / r^{l+1}
    M2M:  Greengard & Rokhlin (1987), Lemma 2.3 (expansion shift)

with the Condon-Shortley phase in the associated Legendre functions; the
solid harmonics ``rho^l Y`` and ``Y / r^{l+1}`` come from Cartesian
recurrences (:func:`_solid_rows`), never from the angles.  The
M2M operator is what lets the distributed tree merge compute top-level
expansions from branch-node expansions without access to remote particles.

2-D expansions use the standard complex Laurent series about the cell
center (Greengard & Rokhlin's original 2-D operators) — handy for fast
tests and 2-D demos.

Sign convention: expansions represent ``sum_j q_j / |r - x_j|`` (3-D) or
``sum_j q_j ln|r - x_j|`` (2-D); gravity multiplies by ``-G`` (3-D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.bh import kernels
from repro.bh.tree import NO_CHILD, Tree
from repro.bh.particles import ParticleSet


def term_index(l: int, m: int) -> int:
    """Flat index of coefficient (l, m) with -l <= m <= l."""
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds l = {l}")
    return l * l + (m + l)


def n_terms(degree: int) -> int:
    """Number of (l, m) coefficients for expansions up to ``degree``."""
    if degree < 0:
        raise ValueError(f"negative degree {degree}")
    return (degree + 1) ** 2


@lru_cache(maxsize=32)
def _recurrence_factors(degree: int) -> list[tuple]:
    """Per level ``l >= 2`` of :func:`_solid_rows`: the columns (over
    ``m``) that multiply ``z T_{l-1}^m`` (|m| <= l-1) and
    ``rho^2 T_{l-2}^m`` (|m| <= l-2), and the sectoral factor."""
    out = []
    for l in range(2, degree + 1):
        m = np.arange(1 - l, l)[:, None]
        den = np.sqrt(l * l - m * m)
        out.append(((2 * l - 1) / den,
                    (np.sqrt((l - 1) ** 2 - m * m) / den)[1:-1],
                    -math.sqrt(1 - 0.5 / l)))
    return out


def _solid_rows(rel: np.ndarray, degree: int, irregular: bool) -> np.ndarray:
    """Solid harmonics ``T_l^m`` of Cartesian offsets as real rows, shape
    ``(nterms, npts)``: row ``term_index(l, m)`` holds ``Re T_l^m``
    (m >= 0), row ``term_index(l, -m)`` holds ``Im T_l^m`` (m > 0).

    Regular ``rho^l Y_l^m`` and irregular ``Y_l^m / r^{l+1}`` obey the
    same recurrences (the latter in ``x/r^2, y/r^2, z/r^2, 1/r^2`` from
    ``T_0^0 = 1/r``); with ``sqrt((l-m)!/(l+m)!)`` folded in they read

        T_l^l = -sqrt((2l-1)/2l) (x + iy) T_{l-1}^{l-1}
        T_l^m = [(2l-1) z T_{l-1}^m - sqrt((l-1)^2-m^2) rho^2 T_{l-2}^m]
                / sqrt(l^2-m^2)

    No angle is formed, so the poles (x = y = 0) are ordinary points,
    and every operation is elementwise: a column of the result does not
    depend on what else is in the batch.
    """
    x, y, z = np.ascontiguousarray(np.atleast_2d(rel).T, dtype=np.float64)
    r2 = x * x + y * y + z * z
    T = np.empty((n_terms(degree), r2.size))
    if irregular:
        if not r2.all():
            raise ValueError("cannot evaluate a multipole expansion at its "
                             "own center")
        r2 = 1.0 / r2
        x, y, z = x * r2, y * r2, z * r2
        np.sqrt(r2, out=T[0])
    else:
        T[0] = 1.0
    if degree:
        s = -math.sqrt(0.5)
        T[1], T[2], T[3] = s * y * T[0], z * T[0], s * x * T[0]
    for l, (cz, cr, s) in enumerate(_recurrence_factors(degree), start=2):
        b, p, pp = T[l * l:(l + 1) ** 2], T[(l - 1) ** 2:l * l], \
            T[(l - 2) ** 2:(l - 1) ** 2]
        np.multiply(cz * z, p, out=b[1:-1])
        b[2:-2] -= (cr * r2) * pp
        sx, sy = s * x, s * y
        b[-1] = sx * p[-1] - sy * p[0]
        b[0] = sx * p[0] + sy * p[-1]
    return T


@lru_cache(maxsize=32)
def _term_maps(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """For every ``term_index`` column ``(l, m)``: the column of
    ``(l, -m)`` and, as a column vector, the sign of ``m``."""
    lm = [(l, m) for l in range(degree + 1) for m in range(-l, l + 1)]
    return (np.array([term_index(l, -m) for l, m in lm]),
            np.sign([[m] for _, m in lm]))


def _complex_terms(T: np.ndarray, degree: int, conj: bool) -> np.ndarray:
    """Real rows ``T`` as the complex ``(npts, nterms)`` block: column
    ``(l, m)`` is ``T_l^m`` (conjugated if ``conj``), where
    ``T_l^{-m} = conj T_l^m``."""
    flip, sign = _term_maps(degree)
    F = T[flip]
    out = np.empty(T.shape[::-1], dtype=np.complex128)
    out.real = np.where(sign < 0, F, T).T
    out.imag = (np.where(sign < 0, T, F) * (-sign if conj else sign)).T
    return out


def regular_terms(rel: np.ndarray, degree: int) -> np.ndarray:
    """rho^l Y_l^{-m}(alpha, beta) for each offset: shape (npts, nterms).

    Summed against charges this *is* the P2M operator; evaluated at a
    shift vector it feeds the M2M operator.
    """
    return _complex_terms(_solid_rows(rel, degree, False), degree, True)


def irregular_terms(rel: np.ndarray, degree: int) -> np.ndarray:
    """Y_l^m(theta, phi) / r^{l+1} for each offset: shape (npts, nterms).

    ``phi(P) = irregular_terms(P - center) @ M`` evaluates the expansion.
    All offsets must be nonzero.
    """
    return _complex_terms(_solid_rows(rel, degree, True), degree, False)


@lru_cache(maxsize=16)
def _m2m_tables(degree: int):
    """Precomputed index/coefficient arrays for the M2M shift.

    Greengard & Rokhlin Lemma 2.3: with the child expansion M centered at
    Q = (rho, alpha, beta) relative to the parent center,

      M'_j^k = sum_{l,m} M_{j-l}^{k-m} i^{|k|-|m|-|k-m|}
               A_l^m A_{j-l}^{k-m} rho^l Y_l^{-m}(alpha, beta) / A_j^k

    where A_l^m = (-1)^l / sqrt((l-m)! (l+m)!).  Note that
    ``rho^l Y_l^{-m}`` is exactly ``regular_terms(shift)[term_index(l, m)]``.
    """
    def A(l: int, m: int) -> float:
        return (-1.0) ** l / math.sqrt(
            math.factorial(l - m) * math.factorial(l + m)
        )

    out_idx, shift_idx, src_idx, coefs = [], [], [], []
    for j in range(degree + 1):
        for k in range(-j, j + 1):
            for l in range(j + 1):
                for m in range(-l, l + 1):
                    jj, kk = j - l, k - m
                    if abs(kk) > jj:
                        continue
                    out_idx.append(term_index(j, k))
                    shift_idx.append(term_index(l, m))
                    src_idx.append(term_index(jj, kk))
                    phase = 1j ** (abs(k) - abs(m) - abs(kk))
                    coefs.append(phase * A(l, m) * A(jj, kk) / A(j, k))
    # Stored by round: the first term of every output (in output order),
    # then every second term, ... so :func:`_m2m_rows` adds whole column
    # blocks yet each output still accumulates its terms in loop order.
    rnd = np.array([out_idx[:t].count(j) for t, j in enumerate(out_idx)])
    order = np.argsort(rnd, kind="stable")
    return (np.asarray(out_idx)[order], np.asarray(shift_idx)[order],
            np.asarray(src_idx)[order],
            np.asarray(coefs, dtype=np.complex128)[order],
            np.searchsorted(rnd[order], np.arange(1, rnd.max() + 2)))


def _m2m_rows(coeffs: np.ndarray, R: np.ndarray, degree: int) -> np.ndarray:
    """Row ``i`` of ``coeffs`` shifted by the vector whose
    ``regular_terms`` are ``R[i]``.  Elementwise per row: a row does not
    depend on the batch it is shifted in."""
    out_idx, shift_idx, src_idx, coefs, cuts = _m2m_tables(degree)
    contrib = R[:, shift_idx] * coeffs[:, src_idx] * coefs
    out = contrib[:, :cuts[0]].copy()
    for a, b in zip(cuts[:-1], cuts[1:]):
        out[:, out_idx[a:b]] += contrib[:, a:b]
    return out


def m2m_shift(coeffs: np.ndarray, shift: np.ndarray, degree: int) -> np.ndarray:
    """Translate an expansion centered at ``c`` to one at ``c - shift``...
    precisely: ``shift`` is the child center *relative to* the new center.
    """
    R = regular_terms(np.asarray(shift, dtype=np.float64)[None, :], degree)
    return _m2m_rows(coeffs[None, :], R, degree)[0]


def m2m_upward(tree: Tree, coeffs: np.ndarray, degree: int) -> None:
    """The M2M half of an upward pass, in place, for local trees and
    the merged top tree alike: every local internal node becomes the
    sum of its children's shifted expansions, deepest level first.  The
    shifts are geometry, so one call gives the harmonics of them all;
    the contraction stays per (level, child-count) bucket with a left
    fold over children in slot order — the repeated ``+=`` of a per-node
    scan, not a pairwise sum — so the result is bitwise that of
    per-child :func:`m2m_shift`."""
    groups = list(tree._internal_child_groups())
    if not groups:
        return
    R = regular_terms(np.concatenate(
        [(tree.center[kids] - tree.center[nodes][:, None, :]).reshape(-1, 3)
         for nodes, kids in groups]), degree)
    lo = 0
    for nodes, kids in groups:
        hi = lo + kids.size
        shifted = _m2m_rows(coeffs[kids.reshape(-1)], R[lo:hi], degree)
        shifted = shifted.reshape(*kids.shape, -1)
        acc = coeffs[nodes]
        for j in range(kids.shape[1]):
            acc = acc + shifted[:, j, :]
        coeffs[nodes] = acc
        lo = hi


def m2p_table(coeffs: np.ndarray, degree: int) -> np.ndarray:
    """Real ``(nterms, nnodes)`` table :func:`m2p` contracts with the
    rows of :func:`_solid_rows`.  With ``I = A + iB`` and
    ``I_l^{-m} = conj I_l^m``,

        Re sum_m I_l^m M_l^m = A_l^0 Re M_l^0 + sum_{m>0}
            [A_l^m (Re M_l^m + Re M_l^{-m}) + B_l^m (Im M_l^{-m} - Im M_l^m)]

    term for term the real part of the complex series: no conjugate
    symmetry of ``M`` is assumed."""
    flip, sign = _term_maps(degree)
    C = coeffs.T
    F = C[flip]
    return np.where(sign > 0, C.real + F.real,
                    np.where(sign < 0, C.imag - F.imag, C.real))


def m2p_row_bytes(degree: int) -> int:
    """Bytes :func:`m2p` holds per (node, target) pair at its peak: the
    harmonic rows and as many gathered table columns, the offset, its
    scaled copy with ``1/r^2``, the result (a level's recurrence
    temporaries are fewer rows than the columns not yet gathered)."""
    return 8 * (2 * n_terms(degree) + 8)


def m2p(table: np.ndarray, nodes: np.ndarray, rel: np.ndarray,
        degree: int) -> np.ndarray:
    """``sum q / r`` of expansion ``nodes[i]`` of an :func:`m2p_table` at
    offset ``rel[i]`` from its center (all offsets nonzero)."""
    T = _solid_rows(rel, degree, True)
    T *= table.take(nodes, axis=1)
    return T.sum(axis=0)


def point_masses(com: np.ndarray, mass: np.ndarray, softening: float,
                 nodes: np.ndarray, targets: np.ndarray,
                 force: bool) -> np.ndarray:
    """Potential ``-G m / r`` (or acceleration ``-G m dr / r^3`` with
    ``force``) of point mass ``nodes[i]`` at ``targets[i]``, with
    ``r^2`` softened by ``softening^2`` and a zero distance contributing
    exactly zero: the one point-mass cluster formula of every force
    path."""
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


class MultipoleExpansion3D:
    """Spherical-harmonic expansion machinery of a fixed degree."""

    def __init__(self, degree: int):
        if degree < 0:
            raise ValueError(f"negative multipole degree {degree}")
        self.degree = degree
        self.nterms = n_terms(degree)

    def p2m(self, rel_positions: np.ndarray, charges: np.ndarray) -> np.ndarray:
        """Moments of point charges about the origin of ``rel_positions``."""
        R = regular_terms(rel_positions, self.degree)
        return np.asarray(charges) @ R

    def m2m(self, coeffs: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """Shift moments; ``shift`` = old center relative to new center."""
        return m2m_shift(coeffs, shift, self.degree)

    def evaluate(self, coeffs: np.ndarray, rel_targets: np.ndarray) -> np.ndarray:
        """Potential sum ``q/r`` at targets relative to the center (real)."""
        rel = np.atleast_2d(rel_targets)
        return m2p(m2p_table(coeffs[None, :], self.degree),
                   np.zeros(rel.shape[0], dtype=np.intp), rel, self.degree)

    @property
    def wire_floats(self) -> int:
        """Floats on the wire for one expansion (complex coeffs)."""
        return 2 * self.nterms


class MultipoleExpansion2D:
    """Complex Laurent expansion: phi(z) = a0 log(z-c) + sum a_j (z-c)^-j."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("2-D expansions need degree >= 1")
        self.degree = degree
        self.nterms = degree + 1

    @staticmethod
    def _as_complex(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        if pts.shape[1] != 2:
            raise ValueError("2-D expansion needs (n, 2) points")
        return pts[:, 0] + 1j * pts[:, 1]

    def p2m(self, rel_positions: np.ndarray, charges: np.ndarray) -> np.ndarray:
        z = self._as_complex(rel_positions)
        q = np.asarray(charges, dtype=np.float64)
        coeffs = np.zeros(self.nterms, dtype=np.complex128)
        coeffs[0] = q.sum()
        zp = np.ones_like(z)
        for j in range(1, self.nterms):
            zp = zp * z
            coeffs[j] = -(q * zp).sum() / j
        return coeffs

    def m2m(self, coeffs: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """Shift by ``t`` = old center relative to new center (2-vector)."""
        t = complex(shift[0], shift[1])
        out = np.zeros_like(coeffs)
        out[0] = coeffs[0]
        for j in range(1, self.nterms):
            acc = -coeffs[0] * t ** j / j
            for s in range(1, j + 1):
                acc += coeffs[s] * t ** (j - s) * math.comb(j - 1, s - 1)
            out[j] = acc
        return out

    def evaluate(self, coeffs: np.ndarray, rel_targets: np.ndarray) -> np.ndarray:
        """Real log-potential sum ``q ln|z|`` at targets (relative)."""
        z = self._as_complex(rel_targets)
        if np.any(z == 0):
            raise ValueError("cannot evaluate a multipole expansion at its "
                             "own center")
        acc = coeffs[0] * np.log(z)
        zinv = 1.0 / z
        zp = np.ones_like(z)
        for j in range(1, self.nterms):
            zp = zp * zinv
            acc = acc + coeffs[j] * zp
        return acc.real


@dataclass
class MonopoleExpansion:
    """Degree-0 evaluator: the node is its center of mass (Section 5.1),
    softened; it reads only ``com``, ``mass`` and ``dims`` of ``tree``."""

    tree: Tree
    softening: float = 0.0
    degree: int = 0

    # Cluster interface of the evaluation pass: :func:`point_masses`
    # over all accepted (node, target) pairs of a chunk.
    @property
    def batch_row_bytes(self) -> int:
        return 8 * (6 * self.tree.dims + 8)

    def batch_potential(self, nodes: np.ndarray,
                        targets: np.ndarray) -> np.ndarray:
        return point_masses(self.tree.com, self.tree.mass, self.softening,
                            nodes, targets, False)

    def batch_force(self, nodes: np.ndarray,
                    targets: np.ndarray) -> np.ndarray:
        return point_masses(self.tree.com, self.tree.mass, self.softening,
                            nodes, targets, True)


class TreeMultipoles:
    """Per-node spherical-harmonic expansions for a whole tree.

    Leaf expansions come from P2M over the leaf's particles; internal
    expansions from M2M over children — so the tree merge path and the
    local path share the exact same operators.  Expansions are centered
    at the *geometric cell centers* (not the COM) so that merged top
    trees can shift them without knowing particle data.  Without
    ``particles``, a caller holding merged or fetched series sets
    ``coeffs`` before the first evaluation.
    """

    def __init__(self, tree: Tree, particles: ParticleSet | None,
                 degree: int):
        if tree.dims != 3:
            raise ValueError("TreeMultipoles requires a 3-D tree")
        self.tree = tree
        self.expansion = MultipoleExpansion3D(degree)
        self.degree = degree
        self.coeffs = np.zeros((tree.nnodes, self.expansion.nterms),
                               dtype=np.complex128)
        #: :func:`m2p_table` of ``coeffs``: derived, built on first use
        #: (the coefficients are final by then)
        self._table: np.ndarray | None = None
        if particles is not None:
            self._build(particles)

    def _build(self, particles: ParticleSet) -> None:
        """Upward pass: one harmonics call over every leaf particle, a
        batched P2M ``matmul`` per leaf length, then :func:`m2m_upward`.
        Bitwise equal to the per-node reverse scan it replaced (the
        harmonics are elementwise, the batched ``matmul`` reproduces the
        per-leaf one)."""
        tree = self.tree
        leaves = np.flatnonzero((tree.children == NO_CHILD).all(axis=1)
                                & (tree.remote_owner < 0)
                                & (tree.end > tree.start))
        lengths = (tree.end - tree.start)[leaves]
        by_length = np.argsort(lengths, kind="stable")
        leaves, lengths = leaves[by_length], lengths[by_length]
        # a leaf is one contiguous run of tree order
        offs = np.cumsum(lengths) - lengths
        idx = tree.order[np.arange(lengths.sum())
                         + np.repeat(tree.start[leaves] - offs, lengths)]
        R = regular_terms(particles.positions[idx]
                          - np.repeat(tree.center[leaves], lengths, axis=0),
                          self.degree)
        q = particles.masses[idx].astype(np.complex128)
        cuts = np.flatnonzero(np.diff(lengths, prepend=0, append=0))
        for a, b in zip(cuts[:-1], cuts[1:]):
            L = int(lengths[a])
            rows = slice(offs[a], offs[a] + (b - a) * L)
            # batched vector-matrix product == per-leaf ``charges @ R``
            self.coeffs[leaves[a:b]] = np.matmul(
                q[rows].reshape(b - a, 1, L),
                R[rows].reshape(b - a, L, -1))[:, 0, :]
        m2m_upward(tree, self.coeffs, self.degree)

    # Cluster interface of the evaluation pass: the multipole series of
    # every accepted (node, target) pair of a chunk in one :func:`m2p`.
    @property
    def batch_row_bytes(self) -> int:
        return m2p_row_bytes(self.degree)

    def batch_potential(self, nodes: np.ndarray,
                        targets: np.ndarray) -> np.ndarray:
        if self._table is None:
            self._table = m2p_table(self.coeffs, self.degree)
        rel = targets - self.tree.center.take(nodes, axis=0)
        return -kernels.G * m2p(self._table, nodes, rel, self.degree)

    def batch_force(self, nodes: np.ndarray,
                    targets: np.ndarray) -> np.ndarray:
        """Unsoftened monopole forces (vector forces are degree 0)."""
        return point_masses(self.tree.com, self.tree.mass, 0.0, nodes,
                            targets, True)
