"""Recovery bench: checkpoint overhead and crash-recovery cost.

Two questions, both answered with real wall-clock on the process
backend:

1. **Checkpoint overhead** — what does durable checkpointing (one
   versioned fsync'd file per rank per step) cost a fault-free run?
   The acceptance target is <= 10% wall-time overhead at n >= 20,000,
   p = 4 with per-step checkpoints.
2. **Recovery cost** — with a rank SIGKILL'd mid-run, how much real
   time does detect + quiesce + respawn + rollback add over the
   uninterrupted checkpointed run?

The bench *validates before it reports*: the checkpointed run and the
crashed-and-recovered run must both be bitwise identical (positions,
velocities, values, virtual clock) to the plain run, else it exits
nonzero without writing a result.

The overhead gate only binds where it is physically measurable: the
cpu count and whether the target was eligible are recorded in the table
so a single-core CI box reports honestly.  ``benchmarks/e2e`` prices a
checkpoint save and load but never kills a rank, so recovery wall
seconds live here.

Writes ``results/process_recovery.txt``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import numpy as np

from repro import ParallelBarnesHut, SchemeConfig
from repro.bh.distributions import plummer
from repro.machine.faults import FaultPlan
from repro.machine.profiles import NCUBE2

from bench_util import table

TARGET_OVERHEAD = 0.10     # fraction of plain wall-time
TARGET_N = 20_000
TARGET_P = 4


def _run(particles, p: int, steps: int, *, ckpt_dir=None, plan=None,
         scheme: str = "spda"):
    cfg = SchemeConfig(scheme=scheme, alpha=0.67, mode="force")
    ps = particles.subset(np.arange(particles.n))
    sim = ParallelBarnesHut(
        ps, cfg, p=p, profile=NCUBE2, backend="process",
        recv_timeout=1800.0, fault_plan=plan,
        checkpoint_dir=ckpt_dir,
        checkpoint_every=1 if ckpt_dir else None,
        restart_backoff=0.01,
    )
    t0 = time.perf_counter()
    result = sim.run(steps=steps, dt=1e-3)
    return result, time.perf_counter() - t0


def _validate(ref, other, label: str) -> None:
    checks = [
        ("values", np.array_equal(ref.values, other.values)),
        ("positions", np.array_equal(ref.positions, other.positions)),
        ("velocities", np.array_equal(ref.velocities, other.velocities)),
        ("parallel_time", ref.parallel_time == other.parallel_time),
    ]
    bad = [name for name, ok in checks if not ok]
    if bad:
        print(f"VALIDATION FAILED ({label}): runs differ in {bad}",
              file=sys.stderr)
        sys.exit(1)


def bench_one(n: int, p: int, steps: int, seed: int = 1994) -> bool:
    """Validate, time and tabulate one configuration; ``False`` when the
    checkpoint-overhead target was eligible on this host and missed."""
    particles = plummer(n, seed=seed)
    cpu_count = os.cpu_count() or 1

    plain_res, plain_wall = _run(particles, p, steps)

    with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as d:
        ckpt_res, ckpt_wall = _run(particles, p, steps,
                                   ckpt_dir=os.path.join(d, "clean"))
        _validate(plain_res, ckpt_res, "checkpointing")

        kill_plan = FaultPlan(seed=7, kill={1: 1})
        rec_res, rec_wall = _run(particles, p, steps,
                                 ckpt_dir=os.path.join(d, "crash"),
                                 plan=kill_plan)
        _validate(plain_res, rec_res, "crash recovery")
        if rec_res.recoveries != 1:
            print(f"VALIDATION FAILED: expected 1 recovery, got "
                  f"{rec_res.recoveries}", file=sys.stderr)
            sys.exit(1)

    overhead = (ckpt_wall - plain_wall) / plain_wall if plain_wall else 0.0
    recovery_cost = rec_wall - ckpt_wall
    snap = rec_res.metrics_summary().snapshot()
    eligible = cpu_count >= 2 and n >= TARGET_N and p >= TARGET_P
    state = ("not eligible on this host" if not eligible else
             "met" if overhead <= TARGET_OVERHEAD else "missed")
    table("process_recovery",
          ["run", "wall (s)", "vs plain"],
          [["plain", plain_wall, "-"],
           ["checkpoint every step", ckpt_wall, f"{overhead * 100:+.1f}%"],
           ["rank 1 SIGKILLed, recovered", rec_wall,
            f"{(rec_wall - plain_wall) / plain_wall * 100:+.1f}%"]],
          title=f"Process-backend recovery, validated bitwise: spda p={p} "
                f"n={n}, {steps} steps, cpus={cpu_count}\n"
                f"recovery {snap['recovery.wall_seconds']['sum'] * 1e3:.0f} "
                f"ms (quiesce "
                f"{snap['recovery.quiesce_seconds']['sum'] * 1e3:.0f} ms), "
                f"{recovery_cost:+.2f} s over the checkpointed run, "
                f"{snap['recovery.rollback_steps']['value']:g} step(s) "
                f"rolled back; <= {TARGET_OVERHEAD * 100:g}% checkpoint "
                f"overhead target: {state}")
    return state != "missed"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="small-n validation run for CI")
    ap.add_argument("--n", type=int, default=None,
                    help="particle count (default: 20000, smoke: 600)")
    ap.add_argument("--p", type=int, default=TARGET_P)
    ap.add_argument("--steps", type=int, default=2)
    args = ap.parse_args(argv)
    n = args.n if args.n is not None else (600 if args.smoke else TARGET_N)
    if not bench_one(n, args.p, args.steps):
        print("checkpoint-overhead target missed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
