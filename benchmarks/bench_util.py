"""Shared helpers for the paper-table and ablation benches.

Every bench regenerates one of the paper's tables or figures on scaled
instances (pure-Python traversal cannot reach 1.2M particles in bench
time; the ``SCALE_*`` constants record exactly how much each experiment
is scaled, and every emitted table header repeats it).
"""

from __future__ import annotations

import os

from repro import make_instance, ParallelBarnesHut, SchemeConfig
from repro.analysis import (
    efficiency as _efficiency,
    serial_time_estimate,
    format_table,
)
from repro.machine.costmodel import MachineProfile

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Default instance scale used by the table benches (fraction of the
#: paper's particle counts).
SCALE_TABLES = 0.0125
#: Scale for the 25 130-particle irregularity study (Table 4).
SCALE_T4 = 0.12
#: Scale for the multipole tables (5-7); the degree-k evaluation is the
#: expensive part, so these run a bit smaller.
SCALE_MULTIPOLE = 0.015

_instance_cache: dict[tuple[str, float, int], object] = {}


def instance(name: str, scale: float, seed: int = 1994):
    """Cached scaled instance (benches share particle sets)."""
    key = (name, scale, seed)
    if key not in _instance_cache:
        _instance_cache[key] = make_instance(name, scale=scale, seed=seed)
    return _instance_cache[key]


def run_sim(particles, *, scheme: str, p: int,
            profile: MachineProfile, alpha: float = 0.67,
            degree: int = 0, mode: str = "force", grid_level: int = 3,
            steps: int = 1, leaf_capacity: int = 16, root=None, **cfg_kw):
    """One parallel run with the bench defaults.

    ``root`` defaults to the particles' bounding cube; pass
    :func:`domain_root` to decompose over the paper's fixed 100^3
    simulation domain instead (essential for the Section 5.1.1
    irregularity study, where blob size *relative to the domain grid*
    is the whole point).
    """
    config = SchemeConfig(scheme=scheme, alpha=alpha, degree=degree,
                          mode=mode, grid_level=grid_level,
                          leaf_capacity=leaf_capacity, **cfg_kw)
    sim = ParallelBarnesHut(particles, config, p=p, profile=profile,
                            root=root)
    return sim.run(steps=steps)


def domain_root():
    """The paper's fixed 100x100x100 simulation domain as a root cell."""
    import numpy as np
    from repro.bh.particles import Box
    from repro.bh.distributions import DOMAIN_SIDE
    return Box(np.full(3, DOMAIN_SIDE / 2.0), DOMAIN_SIDE / 2.0)


def run_efficiency(result, degree: int, p: int,
                   profile: MachineProfile) -> float:
    """The paper's extrapolated efficiency: serial time from the
    instruction-count model over p x measured parallel time."""
    t_serial = serial_time_estimate(result.total_flops(degree), profile)
    return _efficiency(t_serial, result.parallel_time, p)


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name + ".txt"), "w") as fh:
        fh.write(text + "\n")


def table(name: str, headers, rows, title: str, precision: int = 2) -> str:
    text = format_table(headers, rows, title=title, precision=precision)
    emit(name, text)
    return text
