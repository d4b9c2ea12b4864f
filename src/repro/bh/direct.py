"""O(n^2) direct summation — the accuracy reference.

The paper's fractional percentage error (Section 5.2.2) compares treecode
potentials against the exact all-pairs result; these routines provide it
without ever materialising the full n x n distance matrix (the pair
kernels chunk the targets by their working set).
"""

from __future__ import annotations

import numpy as np

from repro.bh import kernels
from repro.bh.particles import ParticleSet


def direct_potentials(particles: ParticleSet,
                      target_positions: np.ndarray | None = None,
                      softening: float = 0.0) -> np.ndarray:
    """Exact potential at each target (default: at every particle).

    When targets are the particles themselves, the self-term vanishes via
    the kernels' coincident-pair handling.
    """
    targets = (particles.positions if target_positions is None
               else np.atleast_2d(target_positions))
    return kernels.pair_potential(targets, particles.positions,
                                  particles.masses, softening=softening)


def direct_forces(particles: ParticleSet,
                  target_positions: np.ndarray | None = None,
                  softening: float = 0.0) -> np.ndarray:
    """Exact acceleration at each target (default: at every particle)."""
    targets = (particles.positions if target_positions is None
               else np.atleast_2d(target_positions))
    return kernels.pair_force(targets, particles.positions,
                              particles.masses, softening=softening)
