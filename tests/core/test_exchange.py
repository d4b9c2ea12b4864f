"""The balancing exchange conserves particles: every particle a rank
sends arrives exactly once, at its new owner, bit for bit — position,
velocity, mass, id, Morton key and (block timesteps) rung and stored
acceleration — and ``sim.particles_shipped`` counts the ones that left
their rank."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bh.morton import morton_keys
from repro.bh.particles import ParticleSet
from repro.core.exchange import exchange_particles
from repro.machine.engine import Engine
from repro.machine.profiles import ZERO_COST

BITS = 10


def _shards(p, d, sizes, bins, seed):
    """Per-rank ``(particles, owners, keys, rungs, accel)`` with globally
    unique ids and owners drawn uniformly from the ``p`` ranks."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(sum(sizes))
    out, lo = [], 0
    for n in sizes:
        ps = ParticleSet(positions=rng.random((n, d)),
                         masses=rng.uniform(0.5, 2.0, n),
                         velocities=rng.normal(size=(n, d)),
                         ids=ids[lo:lo + n])
        lo += n
        out.append((ps, rng.integers(0, p, n),
                    morton_keys(ps.positions, np.zeros(d), 1.0, BITS),
                    rng.integers(0, 4, n) if bins else None,
                    rng.normal(size=(n, d)) if bins else None))
    return out


def _exchange_rank(comm, particles, owners, keys, rungs, accel):
    state = () if rungs is None else (rungs, accel)
    got, keys, state = exchange_particles(comm, particles, owners, keys,
                                          state)
    rungs, accel = state or (None, None)
    return ((got, keys, rungs, accel),
            comm.metrics.counter("sim.particles_shipped").value)


def _union(parts):
    """All ranks' ``(ids, positions, velocities, masses, rungs, accel)``
    concatenated, then sorted by id."""
    columns = [None if column[0] is None else np.concatenate(column)
               for column in zip(*parts)]
    order = np.argsort(columns[0])
    return [None if c is None else c[order] for c in columns]


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 5), d=st.sampled_from((2, 3)), data=st.data(),
       bins=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_exchange_conserves_particles(p, d, data, bins, seed):
    sizes = data.draw(st.lists(st.integers(0, 30), min_size=p, max_size=p))
    shards = _shards(p, d, sizes, bins, seed)
    report = Engine(p, ZERO_COST).run(_exchange_rank, rank_args=shards)
    owner_of = dict(zip(np.concatenate([s[0].ids for s in shards]),
                        np.concatenate([s[1] for s in shards])))

    sent, received = [], []
    for rank, (ps, owners, _, rungs, accel) in enumerate(shards):
        sent.append((ps.ids, ps.positions, ps.velocities, ps.masses, rungs,
                     accel))
        (got, keys, rungs, accel), shipped = report.values[rank]
        received.append((got.ids, got.positions, got.velocities, got.masses,
                         rungs, accel))
        assert (rungs is None) == (accel is None) == (not bins)
        assert all(owner_of[i] == rank for i in got.ids)
        assert np.array_equal(
            keys, morton_keys(got.positions, np.zeros(d), 1.0, BITS))
        assert shipped == np.count_nonzero(owners != rank)

    for want, got in zip(_union(sent), _union(received)):
        if want is None:
            assert got is None
            continue
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
