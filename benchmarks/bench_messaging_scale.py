"""Perf bench: wall seconds per step where the step is messaging.

At the paper's processor counts a step of this repo is messages, not
physics: Plummer n = 20 000 under SPDA has ~78 particles per rank at
p = 256, and every rank exchanges request bins, result bins and
end-of-stream sentinels with every other.  This bench times two steps
of that run at p = 64 and p = 256 and prints, per p, wall seconds per
step, messages per step and the virtual makespan ``T_p`` (exact, as
``float.hex``), so a messaging change can be judged on wall while its
``T_p`` is checked bit for bit.

Validation before timing (the bench refuses to report otherwise): at
p = 16, a run whose mailboxes are the list-and-scan ``ScanMailbox`` of
``tests/oracles/mailbox.py`` must give the same ``T_p``, per-rank
clocks, message and byte counts, shipping counters and values as the
product.  ``mailbox.max_pending`` is printed for both but not compared:
with more than two rank threads, which woken rank takes the baton next
is the OS's choice, and the queue's high-water mark follows it.

Run from ``benchmarks/`` with ``PYTHONPATH=../src`` (or from the repo
root with ``PYTHONPATH=src``).  Writes ``results/messaging_scale.txt``.
``--smoke`` validates and times p = 16 at n = 4 000 only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro import NCUBE2, ParallelBarnesHut, SchemeConfig, plummer
import repro.machine.transport as transport

from bench_util import table

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.oracles.mailbox import ScanMailbox  # noqa: E402

N_FULL = 20_000
N_SMOKE = 4_000
P_FULL = (64, 256)
P_GATE = 16
STEPS = 2
DT = 0.01
SEED = 1994


def run(n: int, p: int):
    """Two timed steps; returns ``(result, wall seconds per step)``."""
    cfg = SchemeConfig(scheme="spda", alpha=0.67, mode="force")
    sim = ParallelBarnesHut(plummer(n, seed=SEED), cfg, p=p, profile=NCUBE2,
                            recv_timeout=1800.0)
    t0 = time.perf_counter()
    result = sim.run(steps=STEPS, dt=DT)
    return result, (time.perf_counter() - t0) / STEPS


def max_pending(result) -> int:
    snap = result.metrics_summary().snapshot()
    return int(snap["mailbox.max_pending"]["value"])


def fail(msg: str) -> None:
    raise SystemExit(f"VALIDATION FAILED: {msg}")


def gate(n: int) -> None:
    print(f"validate: indexed vs scanning mailboxes, p={P_GATE}, n={n} ...")
    heaps, _ = run(n, P_GATE)
    real = transport.Mailbox
    transport.Mailbox = ScanMailbox
    try:
        scan, _ = run(n, P_GATE)
    finally:
        transport.Mailbox = real
    checks = {
        "T_p": heaps.parallel_time == scan.parallel_time,
        "per-rank clocks": ([r.time for r in heaps.run.ranks]
                            == [r.time for r in scan.run.ranks]),
        "messages": heaps.run.total_messages == scan.run.total_messages,
        "bytes": heaps.run.total_bytes == scan.run.total_bytes,
        "ship counters": ([[r.force.ship for r in s] for s in heaps.steps]
                          == [[r.force.ship for r in s] for s in scan.steps]),
        "values": np.array_equal(heaps.values, scan.values),
    }
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        fail(f"indexed mailbox differs from the scan in {bad}")
    print(f"  equal: T_p {heaps.parallel_time.hex()}, "
          f"{heaps.run.total_messages} messages; max_pending "
          f"{max_pending(heaps)} (scan {max_pending(scan)}, not compared)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help=f"p={P_GATE} at n={N_SMOKE} only (CI)")
    args = ap.parse_args(argv)
    n = N_SMOKE if args.smoke else N_FULL
    procs = (P_GATE,) if args.smoke else P_FULL

    gate(n)
    rows = []
    for p in procs:
        print(f"timing: p={p}, n={n}, {STEPS} steps ...")
        result, wall = run(n, p)
        msgs = result.run.total_messages / STEPS
        print(f"  {wall:.3f} s/step, {msgs:.0f} messages/step, "
              f"T_p {result.parallel_time.hex()}")
        rows.append([p, wall, f"{msgs:.0f}", max_pending(result),
                     result.parallel_time.hex()])
    table("messaging_scale",
          ["p", "wall s/step", "messages/step", "max_pending", "T_p (hex)"],
          rows,
          title=f"Messaging at scale: Plummer n={n}, spda, force, "
                f"{STEPS} steps, nCUBE2, seed {SEED}; validated against "
                f"the scanning mailbox at p={P_GATE}; cpus={os.cpu_count()}",
          precision=3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
