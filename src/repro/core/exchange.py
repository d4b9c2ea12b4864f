"""The balancing exchange (§3.3): one all-to-all personalized
communication moves every particle to its owner, for all three schemes.

A :class:`Shard` carries particles, their Morton keys and a tuple of
per-particle *state* arrays (block-timestep rungs and stored
accelerations, or none).  Keys are recomputable from positions, so they
ride free; the state is not, so its bytes are charged.
"""

from __future__ import annotations

import numpy as np

from repro.bh.particles import ParticleSet
from repro.machine.comm import Comm

PHASE_SETUP = "setup"
PHASE_BALANCE = "load balancing"

#: flops charged per particle for balance bookkeeping / binning.
BALANCE_FLOPS_PER_PARTICLE = 5.0


class Shard:
    """One outgoing particle chunk, its Morton keys and its state."""

    __slots__ = ("particles", "keys", "state")

    def __init__(self, particles: ParticleSet, keys: np.ndarray,
                 state: tuple[np.ndarray, ...] = ()):
        self.particles = particles
        self.keys = keys
        self.state = state

    @property
    def nbytes(self) -> int:
        return self.particles.nbytes + sum(a.nbytes for a in self.state)


def exchange_particles(comm: Comm, particles: ParticleSet,
                       owners: np.ndarray, keys: np.ndarray,
                       state: tuple[np.ndarray, ...] = ()):
    """Send every particle to ``owners[i]`` with its key and state rows;
    returns the received ``(particles, keys, state)`` in source order."""
    outgoing = []
    shipped = 0
    for dst in range(comm.size):
        idx = np.flatnonzero(owners == dst)
        if dst != comm.rank:
            shipped += idx.size
        outgoing.append(Shard(particles.subset(idx), keys[idx],
                              tuple(a[idx] for a in state))
                        if idx.size else None)
    comm.metrics.counter("sim.particles_shipped").inc(shipped)
    comm.compute(BALANCE_FLOPS_PER_PARTICLE * particles.n)
    incoming = comm.alltoall(outgoing)
    shards = [sh for sh in incoming if sh is not None and sh.particles.n]
    if not shards:
        # Nothing arrived: zero rows of this rank's own layout.
        none = np.zeros(0, dtype=np.int64)
        return (particles.subset(none), keys[none],
                tuple(a[none] for a in state))
    return (ParticleSet.concatenate([sh.particles for sh in shards]),
            np.concatenate([sh.keys for sh in shards]),
            tuple(np.concatenate(arrays, axis=0)
                  for arrays in zip(*(sh.state for sh in shards))))
