"""Energy diagnostics.

The simulation's particle advance (Euler or kick-drift-kick leapfrog,
Section 3's last phase) lives in :mod:`repro.core.stepping`; these are
the exact energies its runs are checked against.
"""

from __future__ import annotations

import numpy as np

from repro.bh.direct import direct_potentials
from repro.bh.particles import ParticleSet


def kinetic_energy(particles: ParticleSet) -> float:
    v2 = np.einsum("ij,ij->i", particles.velocities, particles.velocities)
    return float(0.5 * (particles.masses * v2).sum())


def potential_energy(particles: ParticleSet, softening: float = 0.0) -> float:
    """Exact pairwise potential energy (counts each pair once)."""
    phi = direct_potentials(particles, softening=softening)
    return float(0.5 * (particles.masses * phi).sum())
