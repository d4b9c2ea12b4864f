"""Pickle round-trip safety for everything the process backend ships.

The process runtime moves these objects across OS process boundaries
(worker arguments, result envelopes); any unpicklable field — a lock, a
lambda, an open handle — would only surface as a crash deep inside a
parallel run.  This pins down, object by object, that a round trip
through pickle is lossless.
"""

import pickle

import numpy as np

from repro import ParticleSet, SchemeConfig, plummer
from repro.core.bins import ShipStats
from repro.core.checkpoint import RankCheckpoint
from repro.core.function_shipping import ForceResult
from repro.core.simulation import StepResult
from repro.machine.clock import PhaseTimings
from repro.machine.comm import CommStats
from repro.machine.faults import FaultPlan
from repro.machine.metrics import MetricsRegistry


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def assert_particles_equal(a: ParticleSet, b: ParticleSet):
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.masses, b.masses)
    assert np.array_equal(a.velocities, b.velocities)
    assert np.array_equal(a.ids, b.ids)


def test_particle_set_roundtrip():
    ps = plummer(50, seed=3)
    assert_particles_equal(ps, roundtrip(ps))
    empty = ParticleSet.empty(3)
    assert roundtrip(empty).n == 0


def test_scheme_config_roundtrip():
    cfg = SchemeConfig(scheme="dpda", alpha=0.55, degree=2,
                       mode="potential", grid_level=2, leaf_capacity=8)
    assert roundtrip(cfg) == cfg


def test_fault_plan_roundtrip():
    plan = FaultPlan(seed=77, delay_rate=0.2, delay_seconds=1e-3,
                     crash={2: 0.5}, slowdown={1: 2.0})
    back = roundtrip(plan)
    assert back == plan
    # Decisions derive from the plan's hash seed: they must survive too.
    from repro.machine.faults import FaultInjector
    a, b = FaultInjector(plan, 4), FaultInjector(back, 4)
    delays = [a.delay(0, 1, 3) for _ in range(20)]
    assert delays == [b.delay(0, 1, 3) for _ in range(20)]
    assert any(delays)


def _step_result() -> StepResult:
    force = ForceResult(values=np.random.default_rng(0).random((5, 3)),
                        mac_tests=10, cluster_interactions=20,
                        p2p_interactions=30, records_shipped=4,
                        records_served=2,
                        ship=ShipStats(request_bins_sent=1,
                                       request_records_sent=7),
                        walks_built=3)
    return StepResult(n_local=5, force=force, moved_in=1,
                      virtual_seconds=0.25)


def test_step_and_force_results_roundtrip():
    sr = _step_result()
    back = roundtrip(sr)
    assert back.n_local == sr.n_local
    assert back.moved_in == sr.moved_in
    assert back.virtual_seconds == sr.virtual_seconds
    assert np.array_equal(back.force.values, sr.force.values)
    assert back.force.ship == sr.force.ship
    assert back.force.p2p_interactions == sr.force.p2p_interactions


def test_rank_checkpoint_roundtrip():
    ps = plummer(20, seed=4)
    ckpt = RankCheckpoint(
        rank=1, step=3, particles=ps,
        cluster_owners=np.arange(8),
        cluster_load=np.linspace(0, 1, 8),
        key_boundaries=np.array([0, 100, 200]),
        my_particle_loads=np.ones(20),
        last_values=np.zeros((20, 3)),
        clock_now=12.5,
        phase_seconds={"force computation": 9.0, "tree build": 2.5},
        results=[_step_result()],
    )
    back = roundtrip(ckpt)
    assert (back.rank, back.step, back.clock_now) == (1, 3, 12.5)
    assert_particles_equal(back.particles, ps)
    assert np.array_equal(back.cluster_owners, ckpt.cluster_owners)
    assert np.array_equal(back.cluster_load, ckpt.cluster_load)
    assert np.array_equal(back.key_boundaries, ckpt.key_boundaries)
    assert np.array_equal(back.my_particle_loads, ckpt.my_particle_loads)
    assert np.array_equal(back.last_values, ckpt.last_values)
    assert back.phase_seconds == ckpt.phase_seconds
    assert len(back.results) == 1
    # None-able fields stay None through the trip.
    sparse = RankCheckpoint(rank=0, step=0, particles=ps,
                            cluster_owners=None, cluster_load=None,
                            key_boundaries=None, my_particle_loads=None,
                            last_values=None, clock_now=0.0,
                            phase_seconds={})
    back = roundtrip(sparse)
    assert back.cluster_load is None and back.last_values is None


def test_rank_checkpoint_accounting_fields_roundtrip(tmp_path):
    """The recovery-era fields (comm accounting, sequence counters)
    survive both pickle and the durable on-disk format."""
    from repro.core.checkpoint import DiskCheckpointStore

    ps = plummer(10, seed=6)
    reg = MetricsRegistry()
    reg.counter("sim.particles_shipped").inc(4)
    reg.histogram("comm.recv_wait_seconds").observe(0.125)
    ckpt = RankCheckpoint(
        rank=2, step=5, particles=ps,
        cluster_owners=None, cluster_load=None, key_boundaries=None,
        my_particle_loads=None, last_values=None, clock_now=3.5,
        phase_seconds={},
        comm_stats=CommStats(messages_sent=9, bytes_sent=512,
                             bytes_by_tag={7: 512}),
        metrics=reg, coll_seq=17, seq=42,
    )
    back = roundtrip(ckpt)
    assert back.comm_stats == ckpt.comm_stats
    assert back.metrics.snapshot() == reg.snapshot()
    assert (back.coll_seq, back.seq) == (17, 42)

    store = DiskCheckpointStore(tmp_path / "ckpt", size=3)
    store.save(ckpt)
    disk = DiskCheckpointStore(tmp_path / "ckpt", size=3).get(2, 5)
    assert disk.comm_stats == ckpt.comm_stats
    assert disk.metrics.snapshot() == reg.snapshot()
    assert (disk.coll_seq, disk.seq) == (17, 42)
    # Pre-recovery-era checkpoints default the new fields.
    legacy = RankCheckpoint(rank=0, step=0, particles=ps,
                            cluster_owners=None, cluster_load=None,
                            key_boundaries=None, my_particle_loads=None,
                            last_values=None, clock_now=0.0,
                            phase_seconds={})
    assert legacy.comm_stats is None and legacy.metrics is None
    assert (legacy.coll_seq, legacy.seq) == (0, 0)


def test_machine_accounting_objects_roundtrip():
    stats = CommStats(messages_sent=3, bytes_sent=100,
                      bytes_by_tag={1: 60, 2: 40},
                      delays_injected=2)
    assert roundtrip(stats) == stats
    timings = PhaseTimings({"force computation": 1.5, "other": 0.25})
    assert roundtrip(timings) == timings
    reg = MetricsRegistry()
    reg.counter("c").inc(5)
    reg.gauge("g").set(2.0)
    reg.histogram("h").observe(0.5)
    assert roundtrip(reg).snapshot() == reg.snapshot()
