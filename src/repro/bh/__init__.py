"""Serial Barnes-Hut substrate: trees, multipoles, traversal, physics.

Everything the parallel formulations (:mod:`repro.core`) are built from:

* :mod:`~repro.bh.particles` — structure-of-arrays particle sets and boxes
* :mod:`~repro.bh.morton` — Morton keys
* :mod:`~repro.bh.distributions` — Plummer / Gaussian generators and the
  paper's named instances
* :mod:`~repro.bh.tree` — quad/oct trees with leaf capacity ``s`` and
  chain collapsing
* :mod:`~repro.bh.multipole` — monopole and spherical-harmonic multipole
  expansions (P2M / M2M / M2P)
* :mod:`~repro.bh.mac` — the Barnes-Hut alpha acceptance criterion
* :mod:`~repro.bh.traversal` — serial Barnes-Hut potentials
* :mod:`~repro.bh.direct` — the O(n^2) reference
* :mod:`~repro.bh.integrator` — energy diagnostics
"""

from repro.bh.particles import Box, ParticleSet
from repro.bh.morton import (
    morton_keys,
    morton_key_2d,
    morton_key_3d,
    morton_decode_2d,
    morton_decode_3d,
)
from repro.bh.distributions import (
    plummer,
    gaussian_blobs,
    make_instance,
    INSTANCES,
)
from repro.bh.tree import Tree, build_tree
from repro.bh.multipole import MonopoleExpansion
from repro.bh.mac import BarnesHutMAC
from repro.bh.traversal import TraversalResult, compute_potentials
from repro.bh.direct import direct_forces, direct_potentials

__all__ = [
    "Box",
    "ParticleSet",
    "morton_keys",
    "morton_key_2d",
    "morton_key_3d",
    "morton_decode_2d",
    "morton_decode_3d",
    "plummer",
    "gaussian_blobs",
    "make_instance",
    "INSTANCES",
    "Tree",
    "build_tree",
    "MonopoleExpansion",
    "BarnesHutMAC",
    "TraversalResult",
    "compute_potentials",
    "direct_forces",
    "direct_potentials",
]
