"""Tests for the energy diagnostics and the simulation's kick-drift-kick
leapfrog advance."""

import numpy as np
import pytest

from repro import ParallelBarnesHut, SchemeConfig
from repro.bh.direct import direct_forces
from repro.bh.integrator import kinetic_energy, potential_energy
from repro.bh.particles import Box, ParticleSet
from repro.machine.profiles import ZERO_COST


def circular_binary():
    """Two equal masses on a circular orbit about their barycenter.

    Separation 2, masses 1 each: orbital speed of each body is
    v = sqrt(G m_other * r_body / sep^2) = sqrt(1 * 1 / 4) = 0.5.
    """
    ps = ParticleSet(
        positions=np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        masses=np.array([1.0, 1.0]),
        velocities=np.array([[0.0, -0.5, 0.0], [0.0, 0.5, 0.0]]),
    )
    return ps


def total_energy(ps: ParticleSet) -> float:
    return kinetic_energy(ps) + potential_energy(ps)


def kdk(ps: ParticleSet, steps: int, dt: float,
        softening: float = 0.0) -> ParticleSet:
    """``steps`` KDK leapfrog steps of one rank; every pair is a
    particle-particle interaction (the MAC accepts no cell)."""
    cfg = SchemeConfig(scheme="spda", mode="force", integrator="kdk",
                       alpha=1e-9, softening=softening)
    res = ParallelBarnesHut(ps, cfg, p=1, profile=ZERO_COST,
                            root=Box(np.zeros(3), 8.0)).run(steps=steps,
                                                            dt=dt)
    return ParticleSet(res.positions, ps.masses, res.velocities)


class TestEnergies:
    def test_kinetic(self):
        ps = circular_binary()
        assert kinetic_energy(ps) == pytest.approx(0.5 * (0.25 + 0.25))

    def test_potential(self):
        ps = circular_binary()
        assert potential_energy(ps) == pytest.approx(-0.5)

    def test_total(self):
        assert total_energy(circular_binary()) == pytest.approx(0.25 - 0.5)


class TestLeapfrog:
    def test_energy_conservation_binary(self):
        ps = circular_binary()
        end = kdk(ps, 200, dt=0.01)
        assert total_energy(end) == pytest.approx(total_energy(ps), abs=1e-5)

    def test_circular_orbit_radius_stable(self):
        end = kdk(circular_binary(), 250, dt=0.02)
        sep = np.linalg.norm(end.positions[1] - end.positions[0])
        assert sep == pytest.approx(2.0, rel=1e-3)

    def test_momentum_conserved(self):
        rng = np.random.default_rng(0)
        ps = ParticleSet(positions=rng.normal(0, 1, (20, 3)),
                         masses=rng.uniform(0.5, 1.5, 20),
                         velocities=rng.normal(0, 0.1, (20, 3)))
        p0 = (ps.masses[:, None] * ps.velocities).sum(axis=0)
        end = kdk(ps, 20, dt=0.01, softening=0.05)
        p1 = (end.masses[:, None] * end.velocities).sum(axis=0)
        np.testing.assert_allclose(p1, p0, atol=1e-10)

    def test_time_reversibility(self):
        """Leapfrog is symmetric: integrating forward then backward with
        negated velocities returns to the start."""
        ps = circular_binary()
        mid = kdk(ps, 50, dt=0.02)
        mid.velocities *= -1.0
        end = kdk(mid, 50, dt=0.02)
        np.testing.assert_allclose(end.positions, ps.positions, atol=1e-9)

    def test_returns_new_accelerations(self):
        """A KDK run's values are the accelerations at its final
        positions (the next step's opening kick)."""
        ps = circular_binary()
        cfg = SchemeConfig(scheme="spda", mode="force", integrator="kdk",
                           alpha=1e-9)
        res = ParallelBarnesHut(ps, cfg, p=1, profile=ZERO_COST,
                                root=Box(np.zeros(3), 8.0)).run(steps=1,
                                                                dt=0.01)
        end = ParticleSet(res.positions, ps.masses, res.velocities)
        assert not np.allclose(end.positions, ps.positions)
        np.testing.assert_allclose(res.values, direct_forces(end))
