"""Perf-regression bench: level-synchronous tree pipeline vs reference.

Two sections, both *validating before they report*:

* ``pipeline`` entries time the per-phase building blocks on one
  Plummer set — tree build, monopole pass, upward interaction sum,
  multipole (P2M/M2M) pass, and the MAC walk — vectorized
  (:func:`repro.bh.tree.build_tree`, the level-batched upward passes,
  the frontier walk) against the node-at-a-time references
  (:func:`repro.bh.tree.build_tree_reference` and friends, kept verbatim
  from the seed).  Every `Tree` array, monopole, interaction sum, and
  multipole coefficient must be *exactly* equal before a speedup is
  printed; the headline number is the combined build+monopole+multipole
  speedup (target >= 3x at n=10,000).
* ``sim`` entries run the same SPSA/SPDA/DPDA demo configuration twice
  end-to-end — once with the whole vectorized pipeline, once with every
  piece patched back to the reference path (recursive builder, scalar
  upward passes, depth-first walk) — and report
  the host wall-clock per step.  Virtual times, interaction counts, and
  forces (to 1e-9, fp accumulation order) must agree.

Emits ``BENCH_tree_pipeline.json``.  ``--smoke`` shrinks everything for
CI.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

import numpy as np

import repro.bh.interaction_lists as il
import repro.core.tree_build as tree_build
from repro.bh.distributions import plummer
from repro.bh.interaction_lists import build_interaction_lists
from repro.bh.mac import BarnesHutMAC
from repro.bh.multipole import TreeMultipoles
from repro.bh.tree import Tree, build_tree, build_tree_reference
from repro.core.config import SchemeConfig
from repro.core.simulation import ParallelBarnesHut

from bench_util import bench_case, emit_bench_json

ALPHA = 0.67
LEAF_CAPACITY = 8
DEGREE = 2
WALK_TARGETS = 256      # frontier regime (per-rank batch sizes)


def _best_of(fn, reps: int) -> tuple[float, object]:
    best = float("inf")
    out = None
    for _ in range(reps):
        t0 = time.process_time()
        out = fn()
        dt = time.process_time() - t0
        best = min(best, dt)
    return best, out


def _tree_arrays_equal(a: Tree, b: Tree) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("children", "depth", "path_key", "center", "half",
                  "start", "end", "order", "mass", "com")
    )


# ------------------------------------------------------------- pipeline
def bench_pipeline(n: int, reps: int, seed: int) -> dict:
    particles = plummer(n, seed=seed)

    t_build_ref, tree_ref = _best_of(
        lambda: build_tree_reference(particles,
                                     leaf_capacity=LEAF_CAPACITY), reps)
    t_build_vec, tree = _best_of(
        lambda: build_tree(particles, leaf_capacity=LEAF_CAPACITY), reps)
    if not _tree_arrays_equal(tree_ref, tree):
        raise SystemExit(f"n={n}: vectorized build deviates from reference")

    t_mono_ref, _ = _best_of(
        lambda: tree.compute_monopoles_reference(particles), reps)
    mass_ref, com_ref = tree.mass.copy(), tree.com.copy()
    t_mono_vec, _ = _best_of(
        lambda: tree.compute_monopoles(particles), reps)
    if not (np.array_equal(mass_ref, tree.mass)
            and np.array_equal(com_ref, tree.com)):
        raise SystemExit(f"n={n}: vectorized monopoles deviate")

    base = (np.arange(tree.nnodes, dtype=np.int64) * 7919) % 1013

    def up_ref():
        tree.interactions[:] = base
        tree.sum_interactions_up_reference()
        return tree.interactions.copy()

    def up_vec():
        tree.interactions[:] = base
        tree.sum_interactions_up()
        return tree.interactions.copy()

    t_up_ref, ints_ref = _best_of(up_ref, reps)
    t_up_vec, ints_vec = _best_of(up_vec, reps)
    if not np.array_equal(ints_ref, ints_vec):
        raise SystemExit(f"n={n}: vectorized interaction sums deviate")
    tree.interactions[:] = 0

    def multi_ref():
        tm = TreeMultipoles(tree, None, DEGREE)
        tm._build_reference(particles)
        return tm.coeffs

    def multi_vec():
        tm = TreeMultipoles(tree, None, DEGREE)
        tm._build(particles)
        return tm.coeffs

    t_multi_ref, coeffs_ref = _best_of(multi_ref, reps)
    t_multi_vec, coeffs_vec = _best_of(multi_vec, reps)
    if not np.array_equal(coeffs_ref, coeffs_vec):
        raise SystemExit(f"n={n}: vectorized multipole coeffs deviate")

    mac = BarnesHutMAC(ALPHA)
    walk_tg = particles.positions[:WALK_TARGETS]
    t_walk_dfs, lists_dfs = _best_of(
        lambda: build_interaction_lists(tree, walk_tg, mac,
                                        method="dfs"), reps)
    t_walk_fr, lists_fr = _best_of(
        lambda: build_interaction_lists(tree, walk_tg, mac,
                                        method="frontier"), reps)
    pairs_dfs = set(zip(lists_dfs.cluster_node.tolist(),
                        lists_dfs.cluster_tgt.tolist()))
    pairs_fr = set(zip(lists_fr.cluster_node.tolist(),
                       lists_fr.cluster_tgt.tolist()))
    if (lists_dfs.mac_tests != lists_fr.mac_tests
            or pairs_dfs != pairs_fr
            or lists_dfs.p2p_interactions != lists_fr.p2p_interactions):
        raise SystemExit(f"n={n}: frontier walk deviates from depth-first")

    ref_total = t_build_ref + t_mono_ref + t_multi_ref
    vec_total = t_build_vec + t_mono_vec + t_multi_vec
    return bench_case(
        f"pipeline/n{n}",
        params={
            "kind": "pipeline",
            "n": n,
            "distribution": "plummer",
            "leaf_capacity": LEAF_CAPACITY,
            "degree": DEGREE,
            "reps": reps,
            "walk_targets": WALK_TARGETS,
        },
        metrics={
            "seconds_build_reference": t_build_ref,
            "seconds_build_vectorized": t_build_vec,
            "seconds_monopole_reference": t_mono_ref,
            "seconds_monopole_vectorized": t_mono_vec,
            "seconds_upward_reference": t_up_ref,
            "seconds_upward_vectorized": t_up_vec,
            "seconds_multipole_reference": t_multi_ref,
            "seconds_multipole_vectorized": t_multi_vec,
            "seconds_walk_dfs": t_walk_dfs,
            "seconds_walk_frontier": t_walk_fr,
            "speedup_build": t_build_ref / t_build_vec,
            "speedup_monopole": t_mono_ref / t_mono_vec,
            "speedup_upward": t_up_ref / t_up_vec,
            "speedup_multipole": t_multi_ref / t_multi_vec,
            "speedup_walk": t_walk_dfs / t_walk_fr,
            "speedup_combined": ref_total / vec_total,
        },
        validated=True,    # every array compared exactly above
    )


# ------------------------------------------------------------------ sim
@contextlib.contextmanager
def legacy_pipeline():
    """Patch every vectorized piece back to the reference path: the
    recursive builder (ignoring precomputed key slices, as the seed
    re-quantized per cell), the scalar multipole pass and the
    depth-first walk."""
    saved = (tree_build.build_tree, TreeMultipoles._build,
             il.FRONTIER_AUTO_NODE_TARGET_RATIO)

    def reference_build(sub, box=None, leaf_capacity=8, max_depth=None,
                        keys=None, **kw):
        return build_tree_reference(sub, box=box,
                                    leaf_capacity=leaf_capacity,
                                    max_depth=max_depth, **kw)

    tree_build.build_tree = reference_build
    TreeMultipoles._build = TreeMultipoles._build_reference
    il.FRONTIER_AUTO_NODE_TARGET_RATIO = float("inf")   # always DFS
    try:
        yield
    finally:
        (tree_build.build_tree, TreeMultipoles._build,
         il.FRONTIER_AUTO_NODE_TARGET_RATIO) = saved


def bench_sim(scheme: str, n: int, p: int, steps: int, seed: int) -> dict:
    particles = plummer(n, seed=seed)
    cfg = SchemeConfig(scheme=scheme, alpha=ALPHA, mode="force", degree=0,
                      leaf_capacity=LEAF_CAPACITY)

    def run():
        sim = ParallelBarnesHut(particles, cfg, p=p)
        t0 = time.process_time()
        out = sim.run(steps=steps, dt=0.005)
        return time.process_time() - t0, out

    # Interleave the two modes and keep the best of two runs each, to
    # damp host noise (these are wall-ish process times, not virtual).
    t_vec, res_vec = run()
    with legacy_pipeline():
        t_ref, res_ref = run()
    t2, _ = run()
    t_vec = min(t_vec, t2)
    with legacy_pipeline():
        t2, _ = run()
    t_ref = min(t_ref, t2)

    diff = float(np.max(np.abs(res_vec.values - res_ref.values)))
    if diff > 1e-9:
        raise SystemExit(f"{scheme}: pipelines disagree on forces "
                         f"({diff:.3e} > 1e-9)")
    if res_vec.force_computations() != res_ref.force_computations():
        raise SystemExit(f"{scheme}: pipelines disagree on interaction "
                         f"counts")
    return bench_case(
        f"sim/{scheme}",
        params={
            "kind": "sim",
            "scheme": scheme,
            "n": n,
            "p": p,
            "steps": steps,
        },
        metrics={
            "virtual_step_time": res_vec.last_step_time,
            "wall_seconds_reference": t_ref / steps,
            "wall_seconds_vectorized": t_vec / steps,
            "wall_speedup": t_ref / t_vec,
            "values_max_diff": diff,
        },
        validated=True,    # forces + interaction counts checked above
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[10_000],
                    help="particle counts for the pipeline section")
    ap.add_argument("--sim-n", type=int, default=20_000,
                    help="particle count for the end-to-end section")
    ap.add_argument("--procs", type=int, default=4)
    ap.add_argument("--steps", type=int, default=2)
    ap.add_argument("--reps", type=int, default=3,
                    help="repetitions per timing (best-of, default 3)")
    ap.add_argument("--seed", type=int, default=1994)
    ap.add_argument("--smoke", action="store_true",
                    help="CI sizes: n=2000, sim-n=1200, p=4, 2 steps")
    args = ap.parse_args(argv)
    if args.smoke:
        args.n, args.sim_n = [2000], 1200
        args.procs, args.steps, args.reps = 4, 2, 2

    entries = []
    for n in args.n:
        e = bench_pipeline(n, args.reps, args.seed)
        entries.append(e)
        m = e["metrics"]
        print(f"n={n:>7}  build {m['speedup_build']:.2f}x  "
              f"monopole {m['speedup_monopole']:.2f}x  "
              f"upward {m['speedup_upward']:.2f}x  "
              f"multipole {m['speedup_multipole']:.2f}x  "
              f"walk[{WALK_TARGETS}] {m['speedup_walk']:.2f}x  "
              f"combined {m['speedup_combined']:.2f}x")
    for scheme in ("spsa", "spda", "dpda"):
        e = bench_sim(scheme, args.sim_n, args.procs, args.steps,
                      args.seed)
        entries.append(e)
        m = e["metrics"]
        print(f"{scheme}: step {m['wall_seconds_reference']:.3f}s -> "
              f"{m['wall_seconds_vectorized']:.3f}s wall "
              f"({m['wall_speedup']:.2f}x)  max|diff| "
              f"{m['values_max_diff']:.2e}")
    path = emit_bench_json("tree_pipeline", entries)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
