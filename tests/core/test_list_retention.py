"""Interaction lists are single-use on the step path.

Every force evaluation of a step — top-tree walk, own-branch descents,
served drains — streams through ``TraversalEngine.compute``, the
engine's one evaluation method: build a chunk's lists, evaluate, drop.
So between force phases no ``InteractionLists`` object is alive
anywhere in the process, and the footprint of a batch is one chunk's,
not the batch's.
"""

import gc
import tracemalloc

import pytest

from repro import ParallelBarnesHut, SchemeConfig, plummer
from repro.bh import interaction_lists as il
from repro.bh.mac import BarnesHutMAC
from repro.bh.multipole import MonopoleExpansion
from repro.bh.tree import build_tree
from repro.core.function_shipping import FunctionShippingEngine
from repro.machine.collectives import barrier
from repro.machine.profiles import NCUBE2
from tests.core.test_block_sim import DT, N, P, block_config

CASES = {
    "spda-fixed-p2": (SchemeConfig(scheme="spda", mode="force", alpha=0.8),
                      2),
    "dpda-block-kdk": (block_config("dpda"), P),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_lists_alive_between_force_phases(monkeypatch, case):
    cfg, p = CASES[case]
    # Rendezvous through the machine (thread ranks run to block: parked
    # on a wall-only barrier, the first arrival would keep the baton and
    # the others never run): while rank 0 takes the census every rank
    # sits between two force phases, none mid-walk.  No clock is
    # asserted, so the barriers' virtual cost is immaterial.
    alive, run = [], FunctionShippingEngine.run

    def run_then_census(self, targets_idx=None):
        result = run(self, targets_idx)
        barrier(self.comm)
        if self.comm.rank == 0:
            alive.append(sum(isinstance(o, il.InteractionLists)
                             for o in gc.get_objects()))
        barrier(self.comm)
        return result

    monkeypatch.setattr(FunctionShippingEngine, "run", run_then_census)
    ParallelBarnesHut(plummer(N, seed=5), cfg, p=p,
                      profile=NCUBE2).run(steps=2, dt=DT)
    assert len(alive) >= 2 and not any(alive), alive
    assert not any(isinstance(o, il.InteractionLists)
                   for o in gc.get_objects())


def test_a_batch_holds_one_chunk_of_lists(monkeypatch):
    chunk = 256
    monkeypatch.setattr(il, "STREAM_CHUNK_TARGETS", chunk)
    ps = plummer(4000, seed=3)
    tree = build_tree(ps, leaf_capacity=8)
    engine = il.TraversalEngine(tree, ps, BarnesHutMAC(0.67))
    evaluator = MonopoleExpansion(tree)
    targets = ps.positions[tree.order]

    def peak(lo, hi):
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        engine.compute(targets[lo:hi], evaluator, mode="force")
        return tracemalloc.get_traced_memory()[1] - before

    peak(0, 8 * chunk)              # grows the thread's scratch buffer
    tracemalloc.start()
    try:
        # chunks differ (a Plummer core holds more pairs per target
        # than its halo), so the yardstick is the heaviest of the eight
        alone = max(peak(lo, lo + chunk)
                    for lo in range(0, 8 * chunk, chunk))
        together = peak(0, 8 * chunk)
    finally:
        tracemalloc.stop()
    assert engine.stream_chunks == 8 + 8 + 8
    assert alone > 100 * chunk          # lists were built and traced
    assert together <= 1.25 * alone
    assert engine.lists_peak_bytes <= alone
