#!/usr/bin/env python
"""Two-cluster encounter: the paper's g_1192768 motif, scaled down.

The paper's largest instance is two Gaussian clusters in one domain.
This example throws two such clusters at each other and follows the
encounter with the SPDA formulation, demonstrating the part of the paper
that static assignment cannot do: as the clusters move and merge, the
measured per-cluster loads shift and SPDA re-partitions the Morton-ordered
cluster list every step.

Usage: python examples/galaxy_collision.py [n_particles] [steps]
"""

import sys

import numpy as np

from repro import NCUBE2, ParallelBarnesHut, SchemeConfig
from repro.bh.particles import ParticleSet


def two_cluster_encounter(n: int, seed: int = 7) -> ParticleSet:
    """Two Gaussian clusters with closing bulk velocities."""
    rng = np.random.default_rng(seed)
    half = n // 2
    c1 = np.array([30.0, 45.0, 50.0])
    c2 = np.array([70.0, 55.0, 50.0])
    pos = np.concatenate((
        rng.normal(c1, 4.0, size=(half, 3)),
        rng.normal(c2, 4.0, size=(n - half, 3)),
    ))
    pos = np.clip(pos, 0.0, 100.0 - 1e-9)
    vel = np.zeros((n, 3))
    vel[:half, 0] = +0.5   # moving right
    vel[half:, 0] = -0.5   # moving left
    return ParticleSet(positions=pos, masses=np.full(n, 1.0 / n),
                       velocities=vel)


def separation(positions: np.ndarray, n: int) -> float:
    """Distance between the two clusters' centroids."""
    return float(np.linalg.norm(positions[: n // 2].mean(axis=0)
                                - positions[n // 2:].mean(axis=0)))


def main(n: int = 4000, steps: int = 3) -> None:
    particles = two_cluster_encounter(n)
    start = separation(particles.positions, n)
    from repro.bh.particles import Box
    root = Box(np.full(3, 50.0), 50.0)

    config = SchemeConfig(scheme="spda", alpha=0.8, mode="force",
                          softening=0.5, grid_level=3, leaf_capacity=16)
    sim = ParallelBarnesHut(particles, config, p=16, profile=NCUBE2,
                            root=root)
    print(f"two {n // 2}-particle clusters, SPDA on a virtual "
          f"16-processor nCUBE2, {steps} steps\n")
    result = sim.run(steps=steps, dt=0.05)

    print(f"virtual parallel time: {result.parallel_time:.2f} s")
    print(f"force computations:    {result.force_computations()}\n")

    print("per-step particle counts per processor (SPDA rebalancing):")
    for s, step in enumerate(result.steps):
        counts = [sr.n_local for sr in step]
        shipped = sum(sr.force.records_shipped for sr in step)
        print(f"  step {s}: min={min(counts):5d} max={max(counts):5d} "
              f"shipped records={shipped}")

    sep = separation(result.positions, n)
    print(f"\ncluster separation after {steps} steps: {sep:.2f} "
          f"(started at {start:.2f})")
    assert sep < start, "clusters should be approaching"
    print("phase breakdown (max over processors):")
    for phase, t in sorted(result.phase_breakdown().items(),
                           key=lambda kv: -kv[1]):
        print(f"  {phase:<28s} {t:10.3f} s")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    main(n, steps)
