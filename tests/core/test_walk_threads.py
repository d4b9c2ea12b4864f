"""A traversal split over threads gives the bits of one thread.

Every walk of these small runs is split (``THREAD_WORK`` at 0, chunks of
8 targets), so T = 2, 3 and 8 threads each walk interleaved chunks of
every batch: monopole forces and degree-3 potential series alike.  T is set through the affinity mask the pool reads
(``pool.host_cpus``), the host's CPUs repeated round robin: T = 8 on a
2-CPU host shares them.  Final states, clocks, phase timings, comm
counters and force counts must equal T = 1's bit for bit, on both
backends; at the engine level, so must the per-node counts and target
weights.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import ParallelBarnesHut, SchemeConfig, plummer
from repro.bh import interaction_lists as il
from repro.bh import pool
from repro.bh.mac import BarnesHutMAC
from repro.bh.multipole import MonopoleExpansion, TreeMultipoles
from repro.bh.tree import build_tree
from repro.machine.profiles import NCUBE2
from tests.core.test_block_sim import DT, N, P, block_config

THREADS = (1, 2, 3, 8)
HOST_CPUS = pool.host_cpus()


def _mask(monkeypatch, cpus: int) -> None:
    """An affinity mask of ``cpus`` entries, the host's CPUs in turn."""
    monkeypatch.setattr(pool, "host_cpus", lambda: tuple(
        HOST_CPUS[i % len(HOST_CPUS)] for i in range(cpus)))


@pytest.fixture
def split_every_walk(monkeypatch):
    """Every walk split over the engine's CPUs; the pool's runs counted (in this process: forked ranks count their
    own)."""
    monkeypatch.setattr(il, "THREAD_WORK", 0)
    monkeypatch.setattr(il, "WALK_CHUNK", 8)
    runs = []
    real = pool.run

    def counted(cpus, tasks):
        runs.append(len(tasks))
        return real(cpus, tasks)

    monkeypatch.setattr(pool, "run", counted)
    return runs


def _fingerprint(result) -> dict:
    return dict(
        values=result.values.tobytes(), positions=result.positions.tobytes(),
        velocities=result.velocities.tobytes(),
        t_p=result.parallel_time.hex(),
        clocks=[r.time.hex() for r in result.run.ranks],
        phases=[{k: v.hex() for k, v in r.timings.seconds.items()}
                for r in result.run.ranks],
        stats=[dataclasses.asdict(r.stats) for r in result.run.ranks],
        force=result.force_computations())


class TestThreadCountInvariance:
    @pytest.mark.parametrize("backend", ["virtual", "process"])
    @pytest.mark.parametrize("stepping", ["fixed", "block"])
    @pytest.mark.parametrize("scheme", ["spsa", "spda", "dpda"])
    def test_same_bits_for_any_thread_count(self, monkeypatch,
                                            split_every_walk, scheme,
                                            stepping, backend):
        cfg = (block_config(scheme) if stepping == "block"
               else SchemeConfig(scheme=scheme, mode="force", alpha=0.8))
        prints = []
        for t in THREADS:       # a process rank gets cpus // P of them
            _mask(monkeypatch, t * P if backend == "process" else t)
            prints.append(_fingerprint(ParallelBarnesHut(
                plummer(N, seed=5), cfg, p=P, profile=NCUBE2,
                backend=backend).run(steps=2, dt=DT)))
        for t, got in zip(THREADS[1:], prints[1:]):
            assert got == prints[0], t
        if backend == "virtual":
            assert max(split_every_walk) == 8       # the walks were split

    @pytest.mark.parametrize("backend", ["virtual", "process"])
    def test_degree3_potentials_same_bits(self, monkeypatch,
                                          split_every_walk, backend):
        """The paper's Section 5.2 shape: DPDA degree-3 potentials, the
        series evaluated inside the split walks."""
        cfg = SchemeConfig(scheme="dpda", mode="potential", degree=3,
                           alpha=0.8)
        prints = []
        for t in THREADS:
            _mask(monkeypatch, t * P if backend == "process" else t)
            prints.append(_fingerprint(ParallelBarnesHut(
                plummer(N, seed=5), cfg, p=P, profile=NCUBE2,
                backend=backend).run(steps=2)))
        for t, got in zip(THREADS[1:], prints[1:]):
            assert got == prints[0], t
        if backend == "virtual":
            assert max(split_every_walk) == 8

    def test_engine_counts_and_weights(self, split_every_walk):
        _assert_engine_runs_agree(0)
        assert split_every_walk == [2, 3, 8]

    def test_engine_series_counts_and_weights(self, split_every_walk):
        _assert_engine_runs_agree(3)
        assert split_every_walk == [2, 3, 8]


def _assert_engine_runs_agree(degree: int) -> None:
    """One engine walk at T = 1, 2, 3, 8 (monopole forces, or a
    degree-``degree`` potential): values, per-node counts, target
    weights and totals bit for bit."""
    ps = plummer(1500, seed=3)
    tree = build_tree(ps, leaf_capacity=8)
    targets = np.vstack([ps.positions, ps.positions[::7] * 0.5])
    evaluator, mode = ((TreeMultipoles(tree, ps, degree), "potential")
                       if degree else (MonopoleExpansion(tree), "force"))
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # hand the GIL over at every chance
    try:
        for t in THREADS:
            tree.interactions[:] = 0
            weights = np.zeros(len(targets))
            res = il.TraversalEngine(
                tree, ps, BarnesHutMAC(0.67), cpus=(0,) * t).compute(
                targets, evaluator, mode=mode,
                count_node_interactions=True, target_weights=weights)
            got.append((res.values.tobytes(), tree.interactions.tobytes(),
                        weights.tobytes(), res.mac_tests,
                        res.cluster_interactions, res.p2p_interactions))
    finally:
        sys.setswitchinterval(interval)
    assert tree.interactions.any()
    assert all(g == got[0] for g in got[1:])


class TestPool:
    def test_workers_are_pinned_one_per_cpu(self):
        cpus = pool.host_cpus()[:2]
        assert pool.run(cpus, [lambda: os.sched_getaffinity(0)] * len(cpus)
                        ) == [{c} for c in cpus]

    def test_a_failing_task_raises_after_all_return(self):
        done = []

        def fail():
            raise KeyError("walk")

        with pytest.raises(KeyError, match="walk"):
            pool.run((0, 0), [fail, lambda: done.append(1)])
        assert done == [1]

    def test_fewer_chunks_than_threads_keep_the_pool(self,
                                                     split_every_walk):
        ps = plummer(200, seed=4)
        tree = build_tree(ps, leaf_capacity=8)
        il.TraversalEngine(tree, ps, BarnesHutMAC(0.67),
                           cpus=(0, 0, 0)).compute(
            ps.positions[:12], MonopoleExpansion(tree), mode="force")
        assert split_every_walk == [2] and pool._pool.cpus == (0, 0, 0)

    def test_rank_cpus(self, monkeypatch):
        monkeypatch.setattr(pool, "host_cpus", lambda: (0, 1, 2, 3, 4))
        assert pool.rank_cpus(2, "virtual") == [(0, 1, 2, 3, 4)] * 2
        assert pool.rank_cpus(2, "process") == [(0, 1), (2, 3)]
        assert pool.rank_cpus(7, "process") == [
            (0,), (1,), (2,), (3,), (4,), (0,), (1,)]

    def test_no_thread_starts_at_import(self):
        code = ("import threading; import repro, repro.__main__; "
                "from repro.bh import pool; "
                "assert threading.active_count() == 1 and pool._pool is None")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_threaded_run_then_process_run(self, monkeypatch,
                                           split_every_walk):
        """Process ranks fork a host whose pool is running: each child
        starts without the parent's workers and makes its own."""
        _mask(monkeypatch, 2)
        ps, cfg = plummer(N, seed=7), SchemeConfig(scheme="spda",
                                                    mode="force", alpha=0.8)
        first = ParallelBarnesHut(ps, cfg, p=1).run(steps=1, dt=DT)
        assert split_every_walk and pool._pool is not None
        second = ParallelBarnesHut(ps, cfg, p=1, backend="process").run(
            steps=1, dt=DT)
        assert _fingerprint(second) == _fingerprint(first)
