"""Particle sets only the tests build."""

import numpy as np

from repro.bh.particles import ParticleSet


def uniform_cube(n: int, dims: int = 3, side: float = 1.0,
                 seed: int | None = 0) -> ParticleSet:
    """Uniform random particles in a cube of the given side, unit total
    mass."""
    if n <= 0:
        raise ValueError(f"need a positive particle count, got {n}")
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, side, size=(n, dims))
    return ParticleSet(positions=pos, masses=np.full(n, 1.0 / n))
