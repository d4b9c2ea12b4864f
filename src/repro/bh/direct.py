"""O(n^2) direct summation — the accuracy reference.

The paper's fractional percentage error (Section 5.2.2) compares treecode
potentials against the exact all-pairs result.  The sum is one visit of
every source through the P2P kernel
(:func:`~repro.bh.interaction_lists._p2p_group`), which holds a block of
target rows at a time, never the n x n distance matrix.
"""

from __future__ import annotations

import numpy as np

from repro.bh.interaction_lists import _p2p_group, _zeros, source_layout
from repro.bh.particles import ParticleSet


def _direct(particles: ParticleSet, target_positions: np.ndarray | None,
            softening: float, mode: str) -> np.ndarray:
    """Every source against the ``(n, d)`` targets in one P2P visit."""
    targets = np.asarray(particles.positions if target_positions is None
                         else np.atleast_2d(target_positions), dtype=float)
    nt, d = targets.shape
    values = _zeros(mode, d, nt)
    sp, sm, scale = source_layout(particles.positions.T, particles.masses)
    _p2p_group(values, np.arange(nt), np.zeros(1, np.intp), np.array([nt]),
               particles.n, targets.T, sp, sm, mode == "force",
               softening ** 2, scale)
    return values.T


def direct_potentials(particles: ParticleSet,
                      target_positions: np.ndarray | None = None,
                      softening: float = 0.0) -> np.ndarray:
    """Exact potential at each target (default: at every particle).

    A target on a source gets nothing from it (the kernel's zero-distance
    guard), so the self-term vanishes.
    """
    return _direct(particles, target_positions, softening, "potential")


def direct_forces(particles: ParticleSet,
                  target_positions: np.ndarray | None = None,
                  softening: float = 0.0) -> np.ndarray:
    """Exact acceleration at each target (default: at every particle)."""
    return _direct(particles, target_positions, softening, "force")
