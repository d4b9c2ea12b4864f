"""repro: scalable parallel formulations of the Barnes-Hut method.

A full reproduction of Grama, Kumar & Sameh (Supercomputing '94 /
Parallel Computing 24, 1998): three function-shipping parallel treecode
formulations (SPSA, SPDA, DPDA) plus every substrate they need — a
serial Barnes-Hut treecode with spherical-harmonic multipoles, and a
virtual message-passing machine standing in for the paper's nCUBE2 and
CM5.

Quick start::

    from repro import (ParallelBarnesHut, SchemeConfig, plummer, NCUBE2)

    particles = plummer(20_000, seed=1)
    config = SchemeConfig(scheme="dpda", alpha=0.67, mode="potential")
    result = ParallelBarnesHut(particles, config, p=64,
                               profile=NCUBE2).run()
    print(result.parallel_time, result.phase_breakdown())

Subpackages:

* :mod:`repro.bh` — serial Barnes-Hut substrate
* :mod:`repro.machine` — the virtual message-passing machine
* :mod:`repro.core` — the paper's parallel formulations
* :mod:`repro.runtime` — process-per-rank backend (real parallelism,
  identical virtual accounting)
* :mod:`repro.analysis` — error / efficiency / load-model analysis
"""

from repro.bh import (
    Box,
    ParticleSet,
    build_tree,
    compute_potentials,
    direct_forces,
    direct_potentials,
    gaussian_blobs,
    make_instance,
    plummer,
)
from repro.core import ParallelBarnesHut, SchemeConfig
from repro.machine import CM5, NCUBE2, T3E, ZERO_COST, Engine, get_profile
from repro.analysis import (
    efficiency,
    format_table,
    fractional_percent_error,
    serial_time_estimate,
    speedup,
)

__version__ = "1.0.0"

__all__ = [
    "Box",
    "ParticleSet",
    "build_tree",
    "compute_potentials",
    "direct_forces",
    "direct_potentials",
    "gaussian_blobs",
    "make_instance",
    "plummer",
    "ParallelBarnesHut",
    "SchemeConfig",
    "CM5",
    "NCUBE2",
    "T3E",
    "ZERO_COST",
    "Engine",
    "get_profile",
    "efficiency",
    "format_table",
    "fractional_percent_error",
    "serial_time_estimate",
    "speedup",
    "__version__",
]
