"""Every force evaluation of a step walks in C.

The top-tree walk, the own-branch descents, the served drains and the
block steps' substeps all go through ``TraversalEngine.compute``, whose
one C call walks and evaluates a batch.  With the list-building walk
made to raise, every scheme runs to the end with fixed and block steps
on both backends (process ranks fork after the patch, so they inherit
it).
"""

import numpy as np
import pytest

from repro import ParallelBarnesHut, SchemeConfig, plummer
from repro.bh import interaction_lists as il
from repro.machine.profiles import NCUBE2
from tests.core.test_block_sim import DT, N, P, block_config


def _refuse(*args, **kwargs):
    raise AssertionError("a step built interaction lists")


@pytest.mark.parametrize("backend", ["virtual", "process"])
@pytest.mark.parametrize("stepping", ["fixed", "block"])
@pytest.mark.parametrize("scheme", ["spsa", "spda", "dpda"])
def test_every_step_walks_in_c(monkeypatch, scheme, stepping, backend):
    monkeypatch.setattr(il, "_walk_dfs", _refuse)
    monkeypatch.setattr(il, "build_interaction_lists", _refuse)
    cfg = (block_config(scheme) if stepping == "block"
           else SchemeConfig(scheme=scheme, mode="force", alpha=0.8))
    result = ParallelBarnesHut(plummer(N, seed=5), cfg, p=P,
                               profile=NCUBE2, backend=backend
                               ).run(steps=2, dt=DT)
    assert np.isfinite(result.values).all() and result.values.any()
