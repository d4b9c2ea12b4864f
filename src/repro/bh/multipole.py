"""Multipole expansions: monopole, 3-D spherical harmonic, 2-D complex.

The paper's Section 5.2 computes gravitational *potentials* "conveniently
expressed as a series using Legendre's polynomials" of degree ``k`` (their
citation is Greengard's thesis).  We implement the classical spherical-
harmonic multipole machinery in Greengard's normalization:

    Y_l^m(theta, phi) = sqrt((l-|m|)! / (l+|m|)!) P_l^|m|(cos theta) e^{i m phi}

    P2M:  M_l^m = sum_j q_j rho_j^l Y_l^{-m}(alpha_j, beta_j)
    M2P:  phi(P) = sum_{l,m} M_l^m Y_l^m(theta, phi) / r^{l+1}
    M2M:  Greengard & Rokhlin (1987), Lemma 2.3 (expansion shift)

with the Condon-Shortley phase in the associated Legendre functions.  The
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


@lru_cache(maxsize=32)
def _y_norms(degree: int) -> dict[tuple[int, int], float]:
    """sqrt((l-m)!/(l+m)!) for 0 <= m <= l <= degree."""
    return {
        (l, m): math.sqrt(math.factorial(l - m) / math.factorial(l + m))
        for l in range(degree + 1) for m in range(l + 1)
    }


def spherical_harmonics(cos_t: np.ndarray, phi: np.ndarray,
                        degree: int) -> np.ndarray:
    """Y_l^m for all (l, m) up to ``degree``: shape (npts, nterms)."""
    npts = cos_t.shape[0]
    P = _legendre_table(cos_t, degree)
    norms = _y_norms(degree)
    out = np.empty((npts, n_terms(degree)), dtype=np.complex128)
    e_pos = [np.exp(1j * m * phi) for m in range(degree + 1)]
    for l in range(degree + 1):
        for m in range(l + 1):
            y = norms[(l, m)] * P[l][m] * e_pos[m]
            out[:, term_index(l, m)] = y
            if m:
                out[:, term_index(l, -m)] = np.conj(y)
    return out


def regular_terms(rel: np.ndarray, degree: int) -> np.ndarray:
    """rho^l Y_l^{-m}(alpha, beta) for each offset: shape (npts, nterms).

    Summed against charges this *is* the P2M operator; evaluated at a
    shift vector it feeds the M2M operator.
    """
    rel = np.atleast_2d(rel)
    r, cos_t, phi = spherical_coords(rel)
    Y = spherical_harmonics(cos_t, phi, degree)
    out = np.empty_like(Y)
    rpow = np.ones_like(r)
    for l in range(degree + 1):
        for m in range(-l, l + 1):
            out[:, term_index(l, m)] = rpow * Y[:, term_index(l, -m)]
        rpow = rpow * r
    return out


def irregular_terms(rel: np.ndarray, degree: int) -> np.ndarray:
    """Y_l^m(theta, phi) / r^{l+1} for each offset: shape (npts, nterms).

    ``phi(P) = irregular_terms(P - center) @ M`` evaluates the expansion.
    All offsets must be nonzero.
    """
    rel = np.atleast_2d(rel)
    r, cos_t, phi = spherical_coords(rel)
    if np.any(r == 0):
        raise ValueError("cannot evaluate a multipole expansion at its "
                         "own center")
    Y = spherical_harmonics(cos_t, phi, degree)
    out = np.empty_like(Y)
    rpow = 1.0 / r
    for l in range(degree + 1):
        for m in range(-l, l + 1):
            i = term_index(l, m)
            out[:, i] = rpow * Y[:, i]
        rpow = rpow / r
    return out


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
    return (np.asarray(out_idx), np.asarray(shift_idx),
            np.asarray(src_idx), np.asarray(coefs, dtype=np.complex128))


def m2m_shift(coeffs: np.ndarray, shift: np.ndarray, degree: int) -> np.ndarray:
    """Translate an expansion centered at ``c`` to one at ``c - shift``...
    precisely: ``shift`` is the child center *relative to* the new center.
    """
    R = regular_terms(np.asarray(shift, dtype=np.float64)[None, :], degree)[0]
    out_idx, shift_idx, src_idx, coefs = _m2m_tables(degree)
    contrib = R[shift_idx] * coeffs[src_idx] * coefs
    out = np.zeros(n_terms(degree), dtype=np.complex128)
    np.add.at(out, out_idx, contrib)
    return out


def m2m_shift_batch(coeffs: np.ndarray, shifts: np.ndarray,
                    degree: int) -> np.ndarray:
    """Batched M2M: row ``i`` of the result is bitwise equal to
    ``m2m_shift(coeffs[i], shifts[i], degree)``.

    ``np.add.at`` with broadcast 2-D indices accumulates in row-major
    order — per row, indices in table order — exactly the per-pair
    sequential scatter of the scalar operator.
    """
    coeffs = np.atleast_2d(coeffs)
    shifts = np.atleast_2d(np.asarray(shifts, dtype=np.float64))
    m = coeffs.shape[0]
    R = regular_terms(shifts, degree)
    out_idx, shift_idx, src_idx, coefs = _m2m_tables(degree)
    contrib = R[:, shift_idx] * coeffs[:, src_idx] * coefs[None, :]
    out = np.zeros((m, n_terms(degree)), dtype=np.complex128)
    np.add.at(out, (np.arange(m)[:, None], out_idx[None, :]), contrib)
    return out


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
        return (irregular_terms(rel_targets, self.degree) @ coeffs).real

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
    """Degree-0 evaluator: the node is its center of mass (Section 5.1)."""

    tree: Tree
    softening: float = 0.0
    degree: int = 0

    def node_potential(self, node: int, targets: np.ndarray) -> np.ndarray:
        return kernels.point_mass_potential(
            targets, self.tree.com[node], float(self.tree.mass[node]),
            softening=self.softening,
        )

    def node_force(self, node: int, targets: np.ndarray) -> np.ndarray:
        return kernels.point_mass_force(
            targets, self.tree.com[node], float(self.tree.mass[node]),
            softening=self.softening,
        )

    # Fused cluster interface for the interaction-list engine: one
    # gathered monopole evaluation over all accepted (node, target)
    # pairs, row-for-row the same arithmetic as the per-node kernels.
    @property
    def batch_row_bytes(self) -> int:
        return 8 * (6 * self.tree.dims + 8)

    def compiled_cluster_data(self, mode: str):
        """Point-mass data for the compiled kernel tier: monopole
        arithmetic covers both modes."""
        return self.tree.com, self.tree.mass, self.softening

    def batch_potential(self, nodes: np.ndarray,
                        targets: np.ndarray) -> np.ndarray:
        diff = targets - self.tree.com[nodes]
        r2 = np.einsum("ij,ij->i", diff, diff) + self.softening ** 2
        with np.errstate(divide="ignore"):
            inv_r = 1.0 / np.sqrt(r2)
        inv_r[r2 == 0.0] = 0.0
        return -kernels.G * self.tree.mass[nodes] * inv_r

    def batch_force(self, nodes: np.ndarray,
                    targets: np.ndarray) -> np.ndarray:
        diff = targets - self.tree.com[nodes]
        r2 = np.einsum("ij,ij->i", diff, diff) + self.softening ** 2
        zero = r2 == 0.0
        np.sqrt(r2, out=r2)
        with np.errstate(divide="ignore"):
            np.divide(1.0, r2, out=r2)                 # inv_r
        r2[zero] = 0.0
        inv_r3 = r2 * r2
        inv_r3 *= r2
        w = self.tree.mass[nodes] * inv_r3
        w *= -kernels.G
        return w[:, None] * diff


class TreeMultipoles:
    """Per-node spherical-harmonic expansions for a whole tree.

    Leaf expansions come from P2M over the leaf's particles; internal
    expansions from M2M over children — so the tree merge path and the
    local path share the exact same operators.  Expansions are centered
    at the *geometric cell centers* (not the COM) so that merged top
    trees can shift them without knowing particle data.
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
        if particles is not None:
            self._build(particles)

    def refresh(self, particles: ParticleSet, nodes: np.ndarray) -> None:
        """Recompute expansions for ``nodes`` only (tree repair: stale
        nodes on dirty root-paths), assuming every untouched node holds
        valid coefficients.  Bitwise equal to a full build restricted to
        those rows, because every grouped reduction in :meth:`_build`
        is per-row independent."""
        self.coeffs[nodes] = 0.0
        self._build(particles, nodes)

    def _build(self, particles: ParticleSet,
               nodes: np.ndarray | None = None) -> None:
        """Level-batched upward pass: grouped P2M over all leaves of one
        slice length, grouped M2M shifts per (level, child-count) bucket.
        Bitwise equal to the per-node reverse scan it replaced —
        batched ``matmul`` and row-major ``add.at`` reproduce the
        per-node reductions exactly.  ``nodes`` restricts the pass (see
        :meth:`refresh`)."""
        tree = self.tree
        nterms = self.expansion.nterms
        pos, masses = particles.positions, particles.masses
        restrict = None
        if nodes is not None:
            restrict = np.zeros(tree.nnodes, dtype=bool)
            restrict[nodes] = True
        local = tree.remote_owner < 0
        leaf_mask = (tree.children == NO_CHILD).all(axis=1) & local
        if restrict is not None:
            leaf_mask &= restrict
        leaves = np.flatnonzero(leaf_mask)
        lengths = (tree.end - tree.start)[leaves]
        for L in np.unique(lengths):
            if L == 0:
                continue
            sel = leaves[lengths == L]
            gather = tree.order[tree.start[sel][:, None]
                                + np.arange(int(L))[None, :]]
            rel = pos[gather] - tree.center[sel][:, None, :]
            R = regular_terms(rel.reshape(-1, 3), self.degree)
            R = R.reshape(sel.size, int(L), nterms)
            q = masses[gather].astype(np.complex128)
            # batched vector-matrix product == per-leaf ``charges @ R``
            self.coeffs[sel] = np.matmul(q[:, None, :], R)[:, 0, :]
        for nodes, kids in tree._internal_child_groups(restrict):
            c = kids.shape[1]
            shifts = (tree.center[kids.reshape(-1)]
                      - np.repeat(tree.center[nodes], c, axis=0))
            shifted = m2m_shift_batch(self.coeffs[kids.reshape(-1)],
                                      shifts, self.degree)
            shifted = shifted.reshape(nodes.size, c, nterms)
            # sequential left-fold over children in slot order — the
            # reference's repeated ``+=`` — not a pairwise sum
            acc = self.coeffs[nodes]
            for j in range(c):
                acc = acc + shifted[:, j, :]
            self.coeffs[nodes] = acc

    def node_potential(self, node: int, targets: np.ndarray) -> np.ndarray:
        """Gravitational potential (-G q / r convention) of the node's
        expansion at the given target positions."""
        rel = np.atleast_2d(targets) - self.tree.center[node]
        return -kernels.G * self.expansion.evaluate(self.coeffs[node], rel)

    def node_force(self, node: int, targets: np.ndarray) -> np.ndarray:
        """Monopole-level force (the paper advances particles with forces
        from monopoles; multipoles are used for potentials)."""
        return kernels.point_mass_force(
            targets, self.tree.com[node], float(self.tree.mass[node])
        )

    # Fused cluster interface: the multipole series of every accepted
    # (node, target) pair evaluated in one gather/einsum.
    @property
    def batch_row_bytes(self) -> int:
        # dominated by the (pairs, nterms) complex irregular-term and
        # gathered-coefficient blocks
        return 16 * self.expansion.nterms * 4 + 8 * 6 * self.tree.dims

    def compiled_cluster_data(self, mode: str):
        """Forces are monopole arithmetic (compiled-eligible); degree >= 1
        potentials need the complex spherical-harmonic series and stay
        on the numpy tier (``None`` → fall back)."""
        if mode == "potential":
            return None
        return self.tree.com, self.tree.mass, 0.0

    def batch_potential(self, nodes: np.ndarray,
                        targets: np.ndarray) -> np.ndarray:
        rel = targets - self.tree.center[nodes]
        I = irregular_terms(rel, self.degree)
        return -kernels.G * np.einsum("ij,ij->i", I,
                                      self.coeffs[nodes]).real

    def batch_force(self, nodes: np.ndarray,
                    targets: np.ndarray) -> np.ndarray:
        diff = targets - self.tree.com[nodes]
        r2 = np.einsum("ij,ij->i", diff, diff)
        with np.errstate(divide="ignore"):
            inv_r3 = r2 ** -1.5
        inv_r3[r2 == 0.0] = 0.0
        return -kernels.G * (self.tree.mass[nodes] * inv_r3)[:, None] * diff
