"""The four end-to-end workloads: instance, configuration, validation.

Every workload runs the public entry point
``ParallelBarnesHut(...).run(...)`` on the nCUBE2 profile with
``alpha = 0.67``; anything not named here is a product default, so a
later change of a default is measured as users would feel it.  Sizes
are what fits the benchmark's run-time cap on a 2-vCPU host (see
README.md, "Sizing"); the names carry the size actually run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import (NCUBE2, Box, ParallelBarnesHut, ParticleSet, SchemeConfig,
                   direct_forces, direct_potentials, plummer)
from repro.bh.distributions import INSTANCES, gaussian_blobs, random_centers

ALPHA = 0.67
#: Fixed validation sample size (particle indices drawn once per n).
SAMPLE = 512
#: Smoke size (``run.py --smoke``): every workload at about this n.
SMOKE_N = 1500
#: The Plummer model is truncated at 10 scale radii; a fixed root cube
#: of that size keeps the static cluster grid in the same place for
#: every seed.  (The default root, the particles' bounding cube, moves
#: the dense core across cluster boundaries from seed to seed: the
#: virtual step time of a p = 4 run then scatters by 25 %.)
PLUMMER_ROOT = Box(np.zeros(3), 10.0 * (1.0 + 1e-9))


def core_halo(n: int, seed: int, core_frac: float = 0.05,
              core_sigma: float = 0.02,
              core_center: float = 2.5) -> ParticleSet:
    """Uniform ball halo (r <= 10) plus a tight Gaussian core: the
    instance whose core needs ~8x smaller steps than its halo, so block
    timesteps keep the active fraction near 0.2.

    The core sits inside one static cluster.  At the origin it straddles
    all eight clusters and both ranks, and how many core particles stray
    across the rank boundary mid-macro-step (each stray forces an
    exchange and a forest rebuild) is a matter of the seed: step wall
    time was bimodal, 0.72-1.26 s/step over eight seeds.
    """
    rng = np.random.default_rng(seed)
    nc = int(n * core_frac)
    nh = n - nc
    u = rng.normal(size=(nh, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    halo = u * (10.0 * rng.uniform(0.2, 1.0, nh)[:, None] ** (1.0 / 3.0))
    core = core_center + rng.normal(size=(nc, 3)) * core_sigma
    return ParticleSet(np.vstack([halo, core]), np.full(n, 1.0 / n),
                       np.zeros((n, 3)))


def _plummer(n: int, seed: int) -> ParticleSet:
    return plummer(n, seed=seed)


def _s10g(n: int, seed: int) -> ParticleSet:
    """Paper section 5.1.1's ``s_10g_a`` geometry — the ten blob centres
    ``make_instance`` draws at its default seed — with the particles
    drawn from ``seed``."""
    centers = random_centers(10, 3, np.random.default_rng(1994))
    return gaussian_blobs(n, centers, INSTANCES["s_10g_a"].sigma(),
                          seed=seed)


@dataclass(frozen=True)
class Workload:
    name: str
    make: object                 # (n, seed) -> ParticleSet
    n: int
    config: SchemeConfig
    p: int
    dt: float | None
    root: Box | None = None      # None: the particles' bounding cube
    #: Steps per timed ``run``; 2 so step 1 runs on measured loads.
    steps: int = 2
    #: Timed runs per pass never drop below this, whatever the budget.
    min_samples: int = 3
    #: Validation fails above this RMS relative error.
    err_limit: float = 3e-2
    checkpointed: bool = False


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="plummer10k-spda-serial",
        make=_plummer, n=10_000,
        config=SchemeConfig(scheme="spda", alpha=ALPHA, mode="force"),
        # one rank has no loads to re-assign: single steps, twice the
        # samples
        p=1, dt=0.01, root=PLUMMER_ROOT, steps=1,
        min_samples=4,
    ),
    Workload(
        name="plummer3k-spda-virt2",
        make=_plummer, n=3_000,
        config=SchemeConfig(scheme="spda", alpha=ALPHA, mode="force"),
        p=2, dt=0.01, root=PLUMMER_ROOT,
    ),
    Workload(
        name="s10g8k-dpda-deg3-virt2",
        make=_s10g, n=8_000,
        config=SchemeConfig(scheme="dpda", alpha=ALPHA, mode="potential",
                            degree=3),
        p=2, dt=None, min_samples=4, err_limit=1e-3,
    ),
    Workload(
        name="corehalo3k-spsa-block-virt2",
        make=core_halo, n=3_000,
        # grid_level=1: 8 static clusters of ~375 particles, above
        # build_tree's SMALL_BUILD_CUTOFF, so subtree refreshes really
        # repair (at the default level every one falls back to rebuild).
        config=SchemeConfig(scheme="spsa", alpha=ALPHA, mode="force",
                            integrator="kdk", timestep="block",
                            softening=0.01, max_rungs=4, grid_level=1),
        p=2, dt=0.02, checkpointed=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def instance(w: Workload, seed: int, smoke: bool = False) -> ParticleSet:
    return w.make(min(w.n, SMOKE_N) if smoke else w.n, seed)


def simulation(w: Workload, particles: ParticleSet, workdir: str,
               backend: str = "virtual") -> ParallelBarnesHut:
    """The workload's simulation object (``backend`` overrides only for
    the traced run's cross-backend contract check)."""
    checkpoints = dict(checkpoint_every=1, checkpoint_dir=workdir) \
        if w.checkpointed else {}
    return ParallelBarnesHut(particles, w.config, p=w.p, profile=NCUBE2,
                             root=w.root, backend=backend,
                             **checkpoints)


def force_rel_err(w: Workload, particles: ParticleSet, result,
                  corrupt: bool = False) -> float:
    """RMS relative error of ``result.values`` against the direct sum
    on a fixed sample, at the positions the values were evaluated at.

    Euler and pure-evaluation runs report values at the step's starting
    positions — the input positions for a one-step run.  A KDK macro
    step ends with every particle a finisher, so its values belong to
    the final positions.  ``corrupt`` scales the reference (the smoke
    test's deliberately wrong reference).
    """
    if w.config.integrator == "kdk":
        where = ParticleSet(result.positions, particles.masses,
                            result.velocities)
    else:
        where = particles
    idx = np.random.default_rng(512).choice(
        particles.n, size=min(SAMPLE, particles.n), replace=False)
    direct = (direct_potentials if w.config.mode == "potential"
              else direct_forces)
    ref = direct(where, where.positions[idx], softening=w.config.softening)
    if corrupt:
        ref = ref * 1.5
    got = result.values[idx]
    return float(np.sqrt(np.sum((got - ref) ** 2) / np.sum(ref ** 2)))
