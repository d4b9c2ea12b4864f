"""Compiled-kernel-tier bench: validate every tier, then measure.

Times the warm evaluation pass (cached interaction lists, the
build-once/evaluate-many steady state) of the same walk under each
kernel tier:

* ``numpy`` — the serial chunked numpy loop (the reference tier).
* ``numba`` — the fused compiled kernels (skipped, honestly, when the
  ``[perf]`` extra is not installed).

The bench *validates before it reports*: the numba tier's values must
match the numpy reference to 1e-12 (relative to the largest value) in
both modes, the interaction counters must be exactly equal, and the
results must be bitwise invariant to the thread count (1, 2 and 8
threads) — else it exits nonzero without writing a result.

The acceptance target (>= 5x warm evaluation at n=50,000) needs real
cores and numba; every row records the cpu count and the numba version
so a single-core or numba-less host reports honestly instead of failing
spuriously.  No ``benchmarks/e2e`` workload runs the numba tier, so this
is the one place numba is timed against numpy.

Writes ``results/compiled_kernels.txt``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.bh import compiled
from repro.bh.distributions import plummer
from repro.bh.interaction_lists import TraversalEngine
from repro.bh.mac import BarnesHutMAC
from repro.bh.multipole import MonopoleExpansion
from repro.bh.tree import build_tree

from bench_util import table

ALPHA = 0.67
LEAF_CAPACITY = 8
SOFTENING = 0.05

TARGET_SPEEDUP = 5.0
TARGET_N = 50_000
TARGET_CPUS = 4


def _best_of(fn, reps: int) -> tuple[float, object]:
    # wall clock, not process time: the compiled tier spends CPU on
    # many cores at once and process_time would punish it.
    best = float("inf")
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = min(best, dt)
    return best, out


def _engine(tree, particles, tier: str, threads: int | None):
    return TraversalEngine(tree, particles, BarnesHutMAC(ALPHA),
                           softening=SOFTENING, kernel_tier=tier,
                           kernel_threads=threads)


def _validate(label: str, res, ref, scale: float) -> None:
    diff = float(np.max(np.abs(res.values - ref.values)))
    if diff > 1e-12 * scale:
        raise SystemExit(f"{label}: deviates from the numpy reference "
                         f"by {diff:.3e} (> 1e-12 relative)")
    if not (res.mac_tests == ref.mac_tests
            and res.cluster_interactions == ref.cluster_interactions
            and res.p2p_interactions == ref.p2p_interactions):
        raise SystemExit(f"{label}: interaction counters differ from "
                         "the numpy reference")


def _check_thread_invariance(label: str, tree, particles, tier: str
                             ) -> None:
    """Same lists, 1/2/8 threads: results must be bitwise identical."""
    base = None
    for t in (1, 2, 8):
        eng = _engine(tree, particles, tier, t)
        for mode in ("force", "potential"):
            res = eng.compute(particles.positions,
                              MonopoleExpansion(tree,
                                                softening=SOFTENING),
                              mode=mode)
            if base is None:
                base = {}
            if mode not in base:
                base[mode] = res.values
            elif not np.array_equal(base[mode], res.values):
                raise SystemExit(f"{label} ({mode}): results depend on "
                                 f"the thread count (t={t})")


def bench_one(n: int, reps: int, threads: int,
              seed: int = 1994) -> list[list]:
    """Rows of the result table for one ``n``; the last column is the
    acceptance-target state."""
    particles = plummer(n, seed=seed)
    tree = build_tree(particles, leaf_capacity=LEAF_CAPACITY)
    evaluator = MonopoleExpansion(tree, softening=SOFTENING)
    cpu_count = os.cpu_count() or 1
    numba_ok = compiled.available()

    tiers: list[tuple[str, str, int | None]] = [
        ("numpy", "numpy", None),
    ]
    if numba_ok:
        compiled.warm_up("force")
        compiled.warm_up("potential")
        tiers.append(("numba", "numba", threads))
    else:
        print(f"n={n}: numba not installed — compiled tier skipped "
              "(install the [perf] extra)", file=sys.stderr)

    # ---- validate every tier before any timing is reported
    ref_eng = _engine(tree, particles, "numpy", None)
    ref = {mode: ref_eng.compute(particles.positions, evaluator,
                                 mode=mode)
           for mode in ("force", "potential")}
    for label, tier, t in tiers[1:]:
        eng = _engine(tree, particles, tier, t)
        for mode in ("force", "potential"):
            scale = max(1.0, float(np.max(np.abs(ref[mode].values))))
            _validate(f"n={n} {label} ({mode})",
                      eng.compute(particles.positions, evaluator,
                                  mode=mode),
                      ref[mode], scale)
        _check_thread_invariance(f"n={n} {label}", tree, particles, tier)

    # ---- warm evaluation timings (lists cached, arithmetic only)
    rows = []
    t_base = None
    for label, tier, t in tiers:
        eng = _engine(tree, particles, tier, t)
        eng.compute(particles.positions, evaluator, mode="force")  # warm
        t_eval, _ = _best_of(
            lambda: eng.compute(particles.positions, evaluator,
                                mode="force"),
            reps,
        )
        assert eng.walks_built == 1 and eng.walks_reused >= reps
        if t_base is None:
            t_base = t_eval
        speedup = t_base / t_eval if t_eval > 0 else float("inf")
        eligible = (label == "numba" and cpu_count >= TARGET_CPUS
                    and n >= TARGET_N)
        state = ("not eligible on this host" if not eligible else
                 "met" if speedup >= TARGET_SPEEDUP else "missed")
        rows.append([n, label, 0 if t is None else t, t_eval, speedup,
                     cpu_count, compiled.numba_version() or "-", state])
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small-n validation run for CI")
    ap.add_argument("--n", type=int, nargs="+", default=None,
                    help=f"particle counts (default: {TARGET_N}, "
                         "smoke: 2000)")
    ap.add_argument("--reps", type=int, default=3,
                    help="repetitions per timing (best-of, default 3)")
    ap.add_argument("--threads", type=int, default=None,
                    help="thread count for the numba tier "
                         "(default: cpu count)")
    ap.add_argument("--seed", type=int, default=1994)
    args = ap.parse_args(argv)
    ns = args.n if args.n is not None else \
        ([2000] if args.smoke else [TARGET_N])
    reps = 2 if args.smoke and args.reps == 3 else args.reps
    threads = args.threads if args.threads is not None else \
        (os.cpu_count() or 1)

    rows = []
    for n in ns:
        rows.extend(bench_one(n, reps, threads, args.seed))
    table("compiled_kernels",
          ["n", "tier", "threads", "warm eval (s)", "x vs numpy", "cpus",
           "numba", f">={TARGET_SPEEDUP:g}x target"],
          rows,
          title=f"Compiled kernel tier: warm force evaluation, validated "
                f"(alpha={ALPHA}, s={LEAF_CAPACITY}, best of {reps})",
          precision=3)
    # The speedup gate only binds where it is physically measurable.
    missed = [row for row in rows if row[-1] == "missed"]
    if missed:
        print(f"speedup target missed for "
              f"{[(row[0], row[1]) for row in missed]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
