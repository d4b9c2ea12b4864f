"""One fresh interpreter of the end-to-end benchmark (run by ``run.py``).

``--mode setup``    times set-up only.
``--mode measure``  set-up, one cold validated step, then timed
                    ``run(steps=S)`` calls until the budget is spent.
``--mode trace``    the traced run: untraced base, product trace, the
                    layer probes, the cross-backend contract check.

Prints one JSON object as the last line of standard output.
"""

import time
T0 = time.perf_counter()     # set-up is timed from the first statement

import argparse
import json
import os
import resource
import statistics
import sys

import workloads as wl


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--workload", required=True, choices=sorted(wl.BY_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, default=0.0,
                    help="seconds of timed runs in this pass")
    ap.add_argument("--min-samples", type=int, default=None)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--no-machine-probes", action="store_true",
                    help="skip the probes that do not depend on the "
                         "workload (a full traced run takes them once)")
    ap.add_argument("--corrupt-reference", action="store_true")
    return ap.parse_args(argv)


class Ops:
    """Operation accounting: every timed run and every check is one
    operation; an exception or a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def signature(result, steps: int) -> dict:
    """The exact per-step quantities that must repeat bit for bit.
    Floats travel as hex so JSON cannot round them."""
    return {
        "virtual_step_s": (result.parallel_time / steps).hex(),
        "interactions_per_step": result.force_computations() / steps,
        "comm.messages": result.run.total_messages / steps,
        "comm.bytes": result.run.total_bytes / steps,
    }


def timed_run(sim, w, ops: Ops, first_sig: dict | None, **kwargs):
    """One timed ``run(steps=S)``: (wall s/step, result, signature).
    Counts one operation; a run whose exact counters differ from the
    first repeat's is a failed operation."""
    t0 = time.perf_counter()
    try:
        result = sim.run(steps=w.steps, dt=w.dt, **kwargs)
    except Exception as exc:        # the benchmark must report, not die
        ops.check(False, f"run raised {type(exc).__name__}: {exc}")
        return None, None, first_sig
    wall = (time.perf_counter() - t0) / w.steps
    sig = signature(result, w.steps)
    ops.check(first_sig is None or sig == first_sig,
              f"counters differ between repeats: {sig} != {first_sig}")
    return wall, result, sig


def cold_validated_step(sim, w, particles, ops: Ops, corrupt: bool = False):
    """``run(steps=1)`` on a fresh simulation, checked against the
    direct sum: (cold_first_step_s, force_rel_err).  Never part of a
    timing sample: it is also the warm-up."""
    t0 = time.perf_counter()
    result = sim.run(steps=1, dt=w.dt)
    cold = time.perf_counter() - t0
    err = wl.force_rel_err(w, particles, result, corrupt=corrupt)
    ops.check(err <= w.err_limit,
              f"force_rel_err {err:.3e} above {w.err_limit:.0e}")
    return cold, err


def peak_rss_mb() -> float:
    """This interpreter's high-water mark (``ru_maxrss`` is KiB on
    Linux); every rank of a virtual-backend workload lives in it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def measure(args, w, particles, sim, out: dict) -> None:
    ops = Ops()
    cold, err = cold_validated_step(sim, w, particles, ops,
                                    args.corrupt_reference)
    floor = args.min_samples if args.min_samples is not None \
        else w.min_samples
    samples: list[float] = []
    sig = None
    t_start = time.perf_counter()
    while len(samples) < floor \
            or time.perf_counter() - t_start < args.budget:
        wall, _, sig = timed_run(sim, w, ops, sig)
        if wall is None:
            break
        samples.append(wall)
    out.update(cold_first_step_s=cold, force_rel_err=err, samples=samples,
               signature=sig, peak_rss_mb=peak_rss_mb(),
               ops_attempted=ops.attempted, ops_failed=len(ops.failures),
               failures=ops.failures)


def trace(args, w, particles, sim, out: dict) -> None:
    import probes

    ops = Ops()
    rec = probes.SpanRecorder(w.name)
    metrics: dict[str, float] = {}
    calib = [probes.calibrate(rec)]

    cold, err = cold_validated_step(sim, w, particles, ops)
    # Untraced base for trace.overhead_ratio and the demoted timings.
    base: list[float] = []
    sig = None
    cpu0 = cpu_seconds()
    for _ in range(2):
        wall, result, sig = timed_run(sim, w, ops, sig)
        if wall is not None:
            base.append(wall)
    step_cpu = (cpu_seconds() - cpu0) / (2 * w.steps)
    with rec.span("product.traced_run"):
        traced_wall, result, sig = timed_run(sim, w, ops, sig, trace=True,
                                             wall_trace=True)
    if result is not None and base:
        metrics.update(probes.product_trace_metrics(result, w, particles.n))
        base_wall = statistics.median(base)
        interactions = result.force_computations() / w.steps
        metrics.update({
            "cold_first_step_s": cold,
            "force_rel_err": err,
            "step_cpu_s": step_cpu,
            "interactions_per_s": interactions / base_wall,
            # base = untraced step_wall_s of this same interpreter
            "trace.overhead_ratio": traced_wall / base_wall,
        })
    metrics.update(probes.layer_probes(rec, w, particles, sim.root,
                                       args.workdir))
    if not args.no_machine_probes:
        metrics.update(probes.machine_probes(rec))
    calib.append(probes.calibrate(rec))
    metrics["calib.direct2k_s"] = statistics.median(calib)

    # Cross-backend contract: one OS process per rank must reproduce the
    # thread ranks' exact counters bit for bit (one operation).  Its wall
    # time is the process backend's only number here: with p = nproc it
    # scatters too much for an end-to-end bound on this host.
    other = wl.simulation(w, particles,
                          os.path.join(args.workdir, "process-backend"),
                          backend="process")
    with rec.span("product.process_backend_run"):
        pwall, _, _ = timed_run(other, w, ops, sig)
    if pwall is not None:
        metrics["runtime.process.step_wall_s"] = pwall
    if args.trace_out:
        rec.dump(args.trace_out)
    out.update(metrics=metrics, ops_attempted=ops.attempted,
               ops_failed=len(ops.failures), failures=ops.failures)


def main(argv=None) -> int:
    args = parse_args(argv)
    w = wl.BY_NAME[args.workload]
    particles = wl.instance(w, args.seed, args.smoke)
    sim = wl.simulation(w, particles, args.workdir)
    out = {"workload": w.name, "mode": args.mode, "seed": args.seed,
           "n": particles.n, "setup_s": time.perf_counter() - T0,
           "kernel_tier": sim.kernel_tier}
    if args.mode == "measure":
        measure(args, w, particles, sim, out)
    elif args.mode == "trace":
        trace(args, w, particles, sim, out)
    sys.stdout.flush()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
