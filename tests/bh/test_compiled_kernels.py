"""Tests for the compiled kernel tier (:mod:`repro.bh.compiled`).

Three contracts, in decreasing strictness:

1. *Thread-count invariance* — ``kernel_threads`` never changes a
   bit: the numpy tier is one serial loop that ignores it, and the
   slotted numba tier must produce **bitwise identical** values for 1,
   2 and 8 threads on the same interaction lists.  The perf-regression
   trajectory and cross-backend bitwise tests depend on this.
2. *Exactness vs the reference* — every tier matches the serial numpy
   tier to 1e-12 (relative) and every interaction counter exactly (the
   counters come from the walk, which tiers never touch).
3. *Graceful degradation* — a ``numba`` request without numba installed
   resolves to numpy with a one-line warning, exactly once per process;
   ``auto`` never warns.

The numba-gated classes run only when the ``[perf]`` extra is
installed (CI exercises both matrix legs).
"""

import threading

import numpy as np
import pytest

from repro.bh import compiled
from repro.bh import interaction_lists as il
from repro.bh.distributions import plummer
from repro.bh.interaction_lists import (
    TraversalEngine,
    build_interaction_lists,
    evaluate_interaction_lists,
)
from repro.bh.mac import BarnesHutMAC
from repro.bh.multipole import MonopoleExpansion, TreeMultipoles
from repro.bh.tree import build_tree
from repro.core.config import SchemeConfig
from repro.core.simulation import ParallelBarnesHut
from repro.machine.profiles import ZERO_COST

N = 600
SOFTENING = 0.05
PS = plummer(N, seed=11)
TREE = build_tree(PS, leaf_capacity=8)
MAC = BarnesHutMAC(0.67)

HAVE_NUMBA = compiled.available()


def _engine(tier="numpy", threads=None, softening=SOFTENING):
    return TraversalEngine(TREE, PS, MAC, softening=softening,
                           kernel_tier=tier, kernel_threads=threads)


def _evaluator():
    return MonopoleExpansion(TREE, softening=SOFTENING)


class TestTierResolution:
    def test_bad_tier_name_rejected(self):
        with pytest.raises(ValueError, match="kernel tier"):
            compiled.resolve_tier("cuda")
        with pytest.raises(ValueError, match="kernel tier"):
            TraversalEngine(TREE, PS, MAC, kernel_tier="fortran")

    def test_numpy_resolves_to_numpy(self):
        assert compiled.resolve_tier("numpy") == "numpy"

    def test_auto_resolves_quietly(self, capsys, monkeypatch):
        monkeypatch.setattr(compiled, "_warned_missing", False)
        expected = "numba" if HAVE_NUMBA else "numpy"
        assert compiled.resolve_tier("auto", warn=True) == expected
        assert "falling back" not in capsys.readouterr().err

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed")
    def test_missing_numba_warns_exactly_once(self, capsys, monkeypatch):
        monkeypatch.setattr(compiled, "_warned_missing", False)
        assert compiled.resolve_tier("numba", warn=True) == "numpy"
        err = capsys.readouterr().err
        assert "falling back to numpy kernels" in err
        assert "repro[perf]" in err
        assert compiled.resolve_tier("numba", warn=True) == "numpy"
        assert capsys.readouterr().err == ""  # once per process

    def test_quiet_without_warn_flag(self, capsys, monkeypatch):
        monkeypatch.setattr(compiled, "_warned_missing", False)
        compiled.resolve_tier("numba")
        assert capsys.readouterr().err == ""

    def test_thread_count_validated(self):
        with pytest.raises(ValueError, match="kernel_threads"):
            TraversalEngine(TREE, PS, MAC, kernel_threads=0)
        lists = build_interaction_lists(TREE, PS.positions, MAC)
        with pytest.raises(ValueError, match="kernel_threads"):
            evaluate_interaction_lists(TREE, lists, PS, _evaluator(),
                                       kernel_threads=-1)

    def test_numba_version_matches_availability(self):
        ver = compiled.numba_version()
        assert (ver is None) == (not HAVE_NUMBA)


class TestThreadedNumpy:
    @pytest.mark.parametrize("mode", ["potential", "force"])
    def test_thread_count_invariance_bitwise(self, mode):
        """The numpy tier ignores ``kernel_threads``: 1, 2, 4 and 8 are
        bit-for-bit the default (``None``)."""
        base = _engine().compute(PS.positions, _evaluator(), mode=mode)
        for t in (1, 2, 4, 8):
            res = _engine(threads=t).compute(PS.positions, _evaluator(),
                                             mode=mode)
            assert np.array_equal(base.values, res.values)
            assert res.p2p_interactions == base.p2p_interactions

    def test_multipole_potentials_stay_exact_and_invariant(self):
        """Degree>=1 cluster potentials run on the numpy batch path in
        every tier; a thread count must not disturb them."""
        ev = TreeMultipoles(TREE, PS, degree=2)
        ref = TraversalEngine(TREE, PS, MAC).compute(
            PS.positions, ev, mode="potential")
        res = TraversalEngine(TREE, PS, MAC, kernel_threads=4).compute(
            PS.positions, ev, mode="potential")
        assert np.array_equal(res.values, ref.values)

    def test_serial_default_unchanged(self):
        """``kernel_threads=None`` must stay the legacy serial loop —
        bit-for-bit, not just close."""
        before = _engine().compute(PS.positions, _evaluator(),
                                   mode="force")
        again = _engine(tier="auto" if not HAVE_NUMBA else "numpy") \
            .compute(PS.positions, _evaluator(), mode="force")
        assert np.array_equal(before.values, again.values)


class TestScratchReuse:
    """The P2P kernel scratch is one flat buffer per thread
    (``interaction_lists._thread_scratch``), shared by cached and
    streamed evaluations and never attached to the lists."""

    def test_p2p_scratch_reused_across_evaluations(self):
        """Warm evaluations on a cached walk must reuse the thread's
        P2P scratch buffer instead of reallocating it each call."""
        eng = _engine(threads=2)
        first = eng.compute(PS.positions, _evaluator(), mode="force")
        buf = il._thread_scratch.buf
        assert buf.size, "the P2P pass should build scratch"
        assert buf.nbytes <= il.DEFAULT_WORKING_SET_BYTES
        second = eng.compute(PS.positions, _evaluator(), mode="force")
        assert il._thread_scratch.buf is buf
        assert np.array_equal(first.values, second.values)
        assert eng.walks_built == 1 and eng.walks_reused == 1
        assert not hasattr(eng.lists_for(PS.positions), "_scratch")

    def test_serial_path_also_reuses_scratch(self):
        eng = _engine(threads=None)
        eng.compute(PS.positions, _evaluator(), mode="potential")
        buf = il._thread_scratch.buf
        eng.compute(PS.positions, _evaluator(), mode="potential")
        eng.compute_once(PS.positions, _evaluator(), mode="potential")
        assert il._thread_scratch.buf is buf

    def test_scratch_is_per_thread_and_lazy(self):
        """Rank threads evaluate concurrently, so each gets its own
        buffer, allocated by its first P2P pass (none at import)."""
        seen = {}

        def worker():
            seen["before"] = hasattr(il._thread_scratch, "buf")
            _engine().compute_once(PS.positions, _evaluator())
            seen["buf"] = il._thread_scratch.buf

        _engine().compute_once(PS.positions, _evaluator())
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert seen["before"] is False
        assert seen["buf"] is not il._thread_scratch.buf


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed "
                                           "(the [perf] extra)")
class TestNumbaTier:
    @pytest.mark.parametrize("mode", ["potential", "force"])
    def test_matches_numpy_reference(self, mode):
        ref = _engine().compute(PS.positions, _evaluator(), mode=mode)
        res = _engine(tier="numba", threads=2).compute(
            PS.positions, _evaluator(), mode=mode)
        scale = max(1.0, float(np.max(np.abs(ref.values))))
        assert np.max(np.abs(res.values - ref.values)) < 1e-12 * scale
        assert res.mac_tests == ref.mac_tests
        assert res.cluster_interactions == ref.cluster_interactions
        assert res.p2p_interactions == ref.p2p_interactions

    @pytest.mark.parametrize("mode", ["potential", "force"])
    def test_thread_count_invariance_bitwise(self, mode):
        base = _engine(tier="numba", threads=1).compute(
            PS.positions, _evaluator(), mode=mode)
        for t in (2, 8):
            res = _engine(tier="numba", threads=t).compute(
                PS.positions, _evaluator(), mode=mode)
            assert np.array_equal(base.values, res.values)

    def test_auto_selects_numba(self):
        assert _engine(tier="auto").kernel_tier == "numba"

    def test_warm_up_compiles(self):
        compiled.warm_up("force")
        compiled.warm_up("potential")
        assert compiled._kernel_cache is not None

    def test_multipole_potentials_fall_back_per_pass(self):
        """Degree>=1 potentials are not compiled-eligible: the numba
        tier must transparently use the numpy cluster pass and still
        match the reference."""
        ev = TreeMultipoles(TREE, PS, degree=2)
        assert ev.compiled_cluster_data("potential") is None
        ref = TraversalEngine(TREE, PS, MAC).compute(
            PS.positions, ev, mode="potential")
        res = TraversalEngine(TREE, PS, MAC, kernel_tier="numba",
                              kernel_threads=2).compute(
            PS.positions, ev, mode="potential")
        scale = max(1.0, float(np.max(np.abs(ref.values))))
        assert np.max(np.abs(res.values - ref.values)) < 1e-12 * scale


class TestEndToEnd:
    @pytest.mark.parametrize("scheme", ["spda", "dpda"])
    def test_simulation_with_kernel_threads(self, scheme):
        """Both shipping engines accept the tier config, stay within
        tolerance of the serial tier, and record the tier in metrics."""
        cfg_serial = SchemeConfig(scheme=scheme)
        cfg_threaded = SchemeConfig(scheme=scheme, kernel_tier="auto",
                                    kernel_threads=2)
        ref = ParallelBarnesHut(PS, cfg_serial, p=4,
                                profile=ZERO_COST).run()
        res = ParallelBarnesHut(PS, cfg_threaded, p=4,
                                profile=ZERO_COST).run()
        scale = max(1.0, float(np.max(np.abs(ref.values))))
        assert np.max(np.abs(res.values - ref.values)) < 1e-10 * scale
        tier = "numba" if HAVE_NUMBA else "numpy"
        counter = res.metrics_summary().counter(f"force.kernel_tier.{tier}")
        assert counter.value >= 1

    def test_tier_recorded_for_serial_default(self):
        res = ParallelBarnesHut(PS, SchemeConfig(), p=2,
                                profile=ZERO_COST).run()
        assert res.metrics_summary().counter(
            "force.kernel_tier.numpy").value >= 1

    def test_thread_invariance_full_simulation(self):
        """End to end: the whole simulation is bitwise invariant to the
        kernel thread count (same tier, different counts)."""
        runs = [ParallelBarnesHut(
                    PS, SchemeConfig(kernel_threads=t), p=4,
                    profile=ZERO_COST).run().values
                for t in (1, 2, 8)]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])
