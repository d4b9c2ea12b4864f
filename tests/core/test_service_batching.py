"""The per-drain owner-side service against the per-bin oracle.

``FunctionShippingEngine._serve`` walks each requested subtree once per
drain for all the records that name it; ``tests/oracles/service.py``
keeps the service it replaced, which walked every (bin, key) on its
own.  Batching targets changes no accept/open decision, so everything
the virtual machine can see — clocks, phase timings, comm stats,
interaction counters, loads and the balancing decision they feed —
must be *equal*, and values equal to summation order.
"""

import time

import numpy as np
import pytest

from repro.bh.distributions import plummer
from repro.bh.interaction_lists import build_interaction_lists
from repro.bh.particles import Box, ParticleSet
from repro.core.bins import TAG_REQUEST, TAG_RESULT, RequestBin
from repro.core.config import SchemeConfig
from repro.core.forest import build_forest
from repro.core.function_shipping import FunctionShippingEngine
from repro.core.simulation import ParallelBarnesHut, _RankState
from repro.machine.comm import Comm
from repro.machine.engine import Engine
from repro.machine.faults import FaultPlan
from repro.machine.profiles import NCUBE2
from repro.runtime import ProcessEngine
from tests.oracles.service import serve_per_bin

N = 320
SCHEMES = ("spsa", "spda", "dpda")
KINDS = {"force": dict(mode="force", degree=0, dt=1e-3),
         "potential3": dict(mode="potential", degree=3, dt=None)}
LOOKUPS = ("hashed", "sorted")
# Small bins: many bins per (requester, owner) pair, most of them
# mixing several branch keys.
BIN_CAPACITY = 24
BLOCK = dict(scheme="dpda", softening=0.01, integrator="kdk",
             timestep="block", dt_eta=0.1, max_rungs=5)
BLOCK_DT = 0.05
# Delays on the bin traffic push a bin's virtual arrival past the
# sentinel that announces it.
FAULTS = FaultPlan(seed=4, delay_rate=0.4, delay_seconds=1e-3,
                   tags=[TAG_REQUEST, TAG_RESULT])


def _config(scheme="spda", mode="force", degree=0, lookup="hashed", **kw):
    return SchemeConfig(scheme=scheme, alpha=0.67, mode=mode, degree=degree,
                        branch_lookup=lookup, bin_capacity=BIN_CAPACITY,
                        **kw)


def _rank_main(comm, cfg, root, bits, steps, dt, shard):
    """``steps`` real steps, then the next step's decomposition; returns
    what the host cannot read off the :class:`RunReport`."""
    state = _RankState(comm, cfg, root, bits, shard)
    loads = []
    forces = state.forces

    def spy_forces(cells, dt):
        force, forest, requester_flops = forces(cells, dt)
        loads.append({
            "interactions": {st.key: st.tree.interactions.copy()
                             for st in forest.subtrees},
            "requester_flops": requester_flops.copy(),
            "index_probes": forest.fs.top.branch_index.probes,
        })
        return force, forest, requester_flops

    state.forces = spy_forces
    results = [state.step(i, dt) for i in range(steps)]
    ids, values = state.particles.ids.copy(), state._last_values
    cells = state.decompose(steps)
    return {
        "steps": results, "loads": loads, "ids": ids, "values": values,
        "next": (cells, state.particles.ids, state.cluster_owners,
                 state.key_boundaries),
    }


def _two_clusters(n=400):
    """Two tight clusters, each inside its own octant of a fixed root:
    membership of the owned cells is stable across substeps, so block
    stepping repairs subtrees from one substep's forest to the next
    instead of rebuilding them."""
    rng = np.random.default_rng(1)
    pos = np.vstack([rng.normal(size=(n // 2, 3)) * 0.3 + 2.5,
                     rng.normal(size=(n - n // 2, 3)) * 0.3 + 7.5])
    return ParticleSet(pos, np.full(n, 1.0 / n),
                       rng.normal(size=(n, 3)) * 0.01)


def _run(cfg, p, dt, engine=Engine, particles=None, root=None,
         **engine_kw):
    if particles is None:
        particles = plummer(N, seed=11)
    sim = ParallelBarnesHut(particles, cfg, p=p, root=root, bits=10)
    return engine(p, NCUBE2, recv_timeout=60.0, **engine_kw).run(
        _rank_main, cfg, sim.root, sim.bits, 2, dt,
        rank_args=[(shard,) for shard in sim._shards()])


def _run_block(**kw):
    return _run(_config(**BLOCK), 2, BLOCK_DT, particles=_two_clusters(),
                root=Box(np.zeros(3), 10.0), **kw)


def _same(a, b):
    """Exact equality over nested dicts / sequences / arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _assert_same_machine(a, b, values_rtol):
    """Everything but walk counts and values equal; values to
    ``values_rtol`` of the largest magnitude (0 = bitwise)."""
    assert a.phase_max() == b.phase_max()
    for ra, rb in zip(a.ranks, b.ranks):
        assert ra.time == rb.time
        assert ra.timings.seconds == rb.timings.seconds
        assert ra.stats == rb.stats
        va, vb = ra.value, rb.value
        for sa, sb in zip(va["steps"], vb["steps"]):
            assert (sa.n_local, sa.moved_in) == (sb.n_local, sb.moved_in)
            fa, fb = sa.force, sb.force
            for name in ("mac_tests", "cluster_interactions",
                         "p2p_interactions", "records_shipped",
                         "records_served", "ship"):
                assert getattr(fa, name) == getattr(fb, name), name
        assert _same(va["loads"], vb["loads"])
        assert _same(va["next"], vb["next"])
        assert np.array_equal(va["ids"], vb["ids"])
        scale = np.abs(vb["values"]).max()
        assert np.abs(va["values"] - vb["values"]).max() \
            <= values_rtol * scale


def _vs_oracle(monkeypatch, run, *args, **kw):
    batch = run(*args, **kw)
    with monkeypatch.context() as m:
        m.setattr(FunctionShippingEngine, "_serve", serve_per_bin)
        oracle = run(*args, **kw)
    _assert_same_machine(batch, oracle, values_rtol=1e-12)
    return batch, oracle


def _bins(report):
    return sum(s.force.ship.request_bins_sent
               for r in report.ranks for s in r.value["steps"])


def _walks(report):
    return [[s.force.walks_built for s in r.value["steps"]]
            for r in report.ranks]


@pytest.mark.parametrize("lookup", LOOKUPS)
@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_batch_equals_per_bin_oracle(monkeypatch, scheme, kind, p, lookup):
    k = KINDS[kind]
    cfg = _config(scheme, k["mode"], k["degree"], lookup)
    batch, oracle = _vs_oracle(monkeypatch, _run, cfg, p, k["dt"])
    # the comparison is not vacuous: bins were served, many per drain,
    # and the batch walked fewer times than there were bins
    built = [sum(b for rank in _walks(rep) for b in rank)
             for rep in (batch, oracle)]
    assert _bins(batch) > 4 * p and built[0] < built[1]


def test_batch_equals_oracle_under_block_timesteps(monkeypatch):
    batch, _ = _vs_oracle(monkeypatch, _run_block)
    summary = batch.metrics_summary().snapshot()
    assert _bins(batch) > 100
    for fired in ("repair.repairs", "repair.nodes_reused"):
        assert summary[fired]["value"] > 0, fired


def test_batch_equals_oracle_when_bins_arrive_after_their_sentinel(
        monkeypatch):
    collect_raw, late = Comm.collect_raw, []

    def spy(self, src, tag, stop):
        # complete() collects up to the sentinel, then — only if
        # announced bins are still missing — one message at a time with
        # a stop that accepts anything
        if stop(None):
            late.append((self.rank, src))
        return collect_raw(self, src, tag, stop)

    monkeypatch.setattr(Comm, "collect_raw", spy)
    batch, _ = _vs_oracle(monkeypatch, _run, _config("dpda"), 2, 1e-3,
                          fault_plan=FAULTS)
    assert late
    assert batch.fault_summary()["delays_injected"] > 0


@pytest.mark.parametrize("lookup", LOOKUPS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_process_backend_gives_the_thread_signature(scheme, kind, lookup):
    k = KINDS[kind]
    cfg = _config(scheme, k["mode"], k["degree"], lookup)
    threads = _run(cfg, 2, k["dt"])
    procs = _run(cfg, 2, k["dt"], engine=ProcessEngine)
    _assert_same_machine(threads, procs, values_rtol=0.0)
    assert _walks(threads) == _walks(procs)


def test_process_backend_signature_block_and_faults():
    _assert_same_machine(_run_block(), _run_block(engine=ProcessEngine),
                         values_rtol=0.0)
    faulty = dict(fault_plan=FAULTS)
    _assert_same_machine(
        _run(_config("dpda"), 2, 1e-3, **faulty),
        _run(_config("dpda"), 2, 1e-3, engine=ProcessEngine, **faulty),
        values_rtol=0.0)


def _walk_census(comm, cfg, root, bits, shard):
    """Two ``fs.run()`` over one forest, and — from a top-tree walk of
    the test's own — how many walks each should have needed."""
    state = _RankState(comm, cfg, root, bits, shard)
    fs = build_forest(state, state.decompose(0)).fs
    first, second = fs.run(), fs.run()
    tree = fs.top.tree
    reached = build_interaction_lists(
        tree, state.particles.positions, fs.mac).remote_targets
    branches = {(int(tree.remote_owner[n]), int(tree.remote_key[n]))
                for n in reached}
    remote = {b for b in branches if b[0] != comm.rank}
    requested = {key for asked in comm.allgather(remote)
                 for owner, key in asked if owner == comm.rank}
    own = len(branches) - len(remote)
    return first.walks_built, second.walks_built, own, len(requested)


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_one_walk_per_requested_subtree_and_none_retained(scheme, p):
    cfg = _config(scheme)
    sim = ParallelBarnesHut(plummer(N, seed=11), cfg, p=p, bits=10)
    report = Engine(p, NCUBE2, recv_timeout=60.0).run(
        _walk_census, cfg, sim.root, sim.bits,
        rank_args=[(shard,) for shard in sim._shards()])
    for first, second, own, requested in report.values:
        assert requested > 0
        # top-tree walk + own-branch descents + one per requested key
        assert first == 1 + own + requested
        # unchanged forest, same targets: nothing was kept, so every
        # walk is made again
        assert second == first


def _rogue_request(comm, cfg, root, bits, pick_key, shard):
    """Rank 0 slips rank 1 a hand-built request bin ahead of the real
    traffic of an otherwise ordinary force phase."""
    state = _RankState(comm, cfg, root, bits, shard)
    fs = build_forest(state, state.decompose(0)).fs
    if comm.rank == 0:
        rogue = RequestBin(
            slots=np.zeros(1, dtype=np.int64),
            keys=np.array([pick_key(fs.top.branch_index)], dtype=np.int64),
            coords=state.particles.positions[:1])
        comm.send(rogue, 1, tag=TAG_REQUEST, nbytes=rogue.nbytes)
    fs.run()


@pytest.mark.parametrize("lookup", LOOKUPS)
@pytest.mark.parametrize("pick_key, complaint", [
    (lambda index: next(b.key for b in index if b.owner == 2),
     "is owned by rank 2, not 1"),
    (lambda index: max(b.key for b in index) + 1, "not present"),
], ids=["third-rank", "no-index"])
def test_request_for_a_branch_the_owner_lacks_fails_fast(
        pick_key, complaint, lookup):
    cfg = _config("spda", lookup=lookup)
    sim = ParallelBarnesHut(plummer(N, seed=11), cfg, p=4, bits=10)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError) as failure:
        Engine(4, NCUBE2, recv_timeout=20.0).run(
            _rogue_request, cfg, sim.root, sim.bits, pick_key,
            rank_args=[(shard,) for shard in sim._shards()])
    assert time.monotonic() - t0 < 20.0        # not the watchdog
    # the index's own complaint is the root cause: not a bare
    # KeyError(key) from the subtree table, not a released mailbox
    assert isinstance(failure.value.__cause__, KeyError)
    assert str(failure.value).startswith("virtual rank 1 failed: KeyError")
    assert complaint in str(failure.value)
