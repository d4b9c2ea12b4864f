"""Physics gates on the force path: energy, centre of mass, momentum.

A 1 000-particle Plummer sphere (softening 0.01, SPDA, p = 2), put at
rest at the origin, is advanced 100 kick-drift-kick steps of dt = 0.01,
once with a fixed and once with a block timestep.  A treecode conserves
none of the three exactly (an accepted cluster term has no equal and
opposite partner), so each gate is a ceiling: twice the drift measured
before the far-field evaluators were unified (2-vCPU x86-64, numpy
2.4).  A force-path change that alters the physics moves these numbers
by orders of magnitude; one that only reorders sums moves their last
digits.
"""

import numpy as np
import pytest

from repro import ParallelBarnesHut, SchemeConfig, plummer
from repro.bh.integrator import kinetic_energy, potential_energy
from repro.bh.particles import ParticleSet
from repro.machine.profiles import ZERO_COST

SOFTENING = 0.01

#: Relative total-energy drift, centre-of-mass drift and momentum
#: change after 100 steps, as measured; the gates are twice these.
MEASURED = {
    "fixed": (3.930e-5, 7.429e-5, 8.216e-5),
    "block": (4.586e-5, 7.469e-5, 8.146e-5),
}


def total_energy(ps: ParticleSet, softening: float) -> float:
    return kinetic_energy(ps) + potential_energy(ps, softening)


@pytest.mark.parametrize("timestep", ["fixed", "block"])
def test_conservation_over_100_kdk_steps(timestep):
    ps = plummer(1000, seed=1)
    ps.velocities -= ps.masses @ ps.velocities / ps.masses.sum()
    ps.positions -= ps.center_of_mass()
    e0 = total_energy(ps, SOFTENING)
    com0, p0 = ps.center_of_mass(), ps.masses @ ps.velocities

    cfg = SchemeConfig(scheme="spda", mode="force", softening=SOFTENING,
                       integrator="kdk", timestep=timestep)
    res = ParallelBarnesHut(ps, cfg, p=2, profile=ZERO_COST).run(
        steps=100, dt=0.01)
    end = ParticleSet(res.positions, ps.masses, res.velocities)

    drift = (abs(total_energy(end, SOFTENING) - e0) / abs(e0),
             np.linalg.norm(end.center_of_mass() - com0),
             np.linalg.norm(end.masses @ end.velocities - p0))
    for name, got, ref in zip(("energy", "centre of mass", "momentum"),
                              drift, MEASURED[timestep]):
        assert got < 2 * ref, (name, got, ref)
