"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``instances``
    List the paper's named problem instances.
``profiles``
    List the virtual machine profiles and their parameters.
``run``
    Run one parallel Barnes-Hut simulation and print the paper-style
    summary (virtual time, phase breakdown, accuracy vs direct summation
    when feasible).  ``--trace-out`` / ``--metrics-out`` additionally
    write a Chrome trace-event JSON (open it in https://ui.perfetto.dev)
    and a metrics snapshot.
``trace``
    Run one traced simulation and print the observability report:
    critical path (whole run and per step), phase waterfall, the
    src x dst traffic matrix and — on the process backend, where the
    trace carries wall tracks — the virtual-vs-wall skew report;
    optionally write the trace file.

Examples
--------
::

    python -m repro instances
    python -m repro run --instance g_160535 --scale 0.01 --scheme dpda \\
        --procs 64 --machine cm5 --alpha 0.67 --degree 4 --mode potential
    python -m repro run --backend process --procs 4 --live \\
        --events-out events.jsonl --trace-out trace.json
    python -m repro trace --scheme dpda --procs 8 --steps 2 \\
        --out trace.json
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def _cmd_instances(args) -> int:
    from repro.analysis import format_table
    from repro.bh.distributions import INSTANCES

    rows = [
        [s.name, s.n, s.kind, s.blobs,
         s.containment if s.containment is not None else "-",
         s.description]
        for s in sorted(INSTANCES.values(), key=lambda s: s.name)
    ]
    print(format_table(
        ["name", "n", "kind", "blobs", "containment", "used in"],
        rows, title="Named instances (paper Section 5)",
    ))
    return 0


def _cmd_profiles(args) -> int:
    from repro.analysis import format_table
    from repro.machine.profiles import CM5, NCUBE2, T3E, ZERO_COST

    rows = [
        [p.name, p.topology_kind, p.t_s * 1e6, p.t_h * 1e6,
         p.t_w * 1e6, p.flops_per_second / 1e6,
         p.memory_bytes // (1024 * 1024)]
        for p in (NCUBE2, CM5, T3E, ZERO_COST)
    ]
    print(format_table(
        ["machine", "topology", "t_s (us)", "t_h (us)", "t_w (us/B)",
         "Mflop/s", "MB/node"],
        rows, title="Virtual machine profiles", precision=3,
    ))
    return 0


class _InputError(Exception):
    """An option combination ``SchemeConfig`` or ``ParallelBarnesHut``
    refused, or a fault plan that does not load: ``main`` reports it as
    one line, not a traceback."""


def _run_sim(sim, args, trace: bool):
    """``sim.run``, reporting the option combinations it refuses (its
    ``ValueError``; a failed rank surfaces as a ``RuntimeError``) as an
    :class:`_InputError`."""
    try:
        return sim.run(steps=args.steps, dt=args.dt, trace=trace)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _build_sim(args):
    """Shared setup for ``run`` and ``trace``: instance, config, sim."""
    from repro import ParallelBarnesHut, SchemeConfig, make_instance
    from repro.machine.faults import FaultPlan
    from repro.machine.profiles import get_profile

    particles = make_instance(args.instance, scale=args.scale,
                              seed=args.seed)
    profile = get_profile(args.machine)
    plan_path = getattr(args, "fault_plan", None)
    try:
        fault_plan = FaultPlan.load(plan_path) if plan_path else None
    except (OSError, TypeError, ValueError) as exc:
        raise _InputError(f"fault plan {plan_path}: {exc}") from exc
    try:
        config = SchemeConfig(
            scheme=args.scheme, alpha=args.alpha, degree=args.degree,
            mode=args.mode, grid_level=args.grid_level,
            leaf_capacity=args.leaf_capacity,
            softening=args.softening, integrator=args.integrator,
            timestep=args.timestep, dt_eta=args.dt_eta,
            max_rungs=args.max_rungs,
        )
        sim = ParallelBarnesHut(
            particles, config, p=args.procs, profile=profile,
            fault_plan=fault_plan,
            checkpoint_every=getattr(args, "checkpoint_every", None),
            checkpoint_dir=getattr(args, "checkpoint_dir", None),
            max_restarts=getattr(args, "max_restarts", 3),
            resume=getattr(args, "resume", False),
            backend=args.backend,
            events_out=getattr(args, "events_out", None),
            live=getattr(args, "live", False),
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    return particles, profile, fault_plan, sim


def _write_trace(result, path: str) -> None:
    result.trace.write_chrome(path)
    events = len(result.trace.to_chrome()["traceEvents"])
    print(f"\ntrace written to {path} ({events} events; open in "
          f"https://ui.perfetto.dev or chrome://tracing)")


def _write_metrics(result, path: str) -> None:
    with open(path, "w") as fh:
        # sort_keys makes the file byte-stable across runs: snapshot()
        # sorts metric names, this sorts the keys inside each entry.
        json.dump(result.metrics_summary().snapshot(), fh, indent=2,
                  sort_keys=True)
    print(f"metrics written to {path}")


def _cmd_run(args) -> int:
    from repro import direct_potentials, fractional_percent_error

    particles, profile, fault_plan, sim = _build_sim(args)
    print(f"{args.instance} (scale {args.scale}: {particles.n} particles) "
          f"| {args.scheme.upper()} on {profile.name} x{args.procs} "
          f"| alpha={args.alpha} degree={args.degree} mode={args.mode}")
    if fault_plan is not None:
        print(f"fault plan: {args.fault_plan} "
              f"(seed {fault_plan.seed}, delay {fault_plan.delay_rate}, "
              f"crashes {fault_plan.crash or '-'}, "
              f"slowdowns {fault_plan.slowdown or '-'}, "
              f"kills {fault_plan.kill or '-'}, "
              f"stalls {fault_plan.stall_heartbeat or '-'})"
              + (f" | checkpoint every {args.checkpoint_every}"
                 if args.checkpoint_every else ""))
    if args.checkpoint_dir:
        print(f"checkpoints: {args.checkpoint_dir}"
              + (" (resuming)" if args.resume else ""))

    result = _run_sim(sim, args, trace=bool(args.trace_out))

    if result.resumed_from is not None:
        print(f"\nresumed from checkpointed step {result.resumed_from}")
    print(f"\nvirtual parallel time   {result.parallel_time:10.3f} s")
    print(f"last-step time          {result.last_step_time:10.3f} s")
    print(f"force computations F    {result.force_computations():10d}")
    print(f"force load imbalance    {result.load_imbalance():10.2f}x")
    print("phase breakdown (max over processors):")
    for phase, t in sorted(result.phase_breakdown().items(),
                           key=lambda kv: -kv[1]):
        print(f"  {phase:<26s} {t:10.3f} s")
    if args.timestep == "block":
        ms = result.metrics_summary()

        def counter(name):
            try:
                return ms.counter(name).value
            except KeyError:
                return 0

        subs = counter("timestep.substeps") // max(args.procs, 1)
        targets = counter("timestep.force_targets")
        denom = max(subs * particles.n, 1)
        print("block timesteps:")
        print(f"  {'substeps':<26s} {subs:10d}")
        print(f"  {'active fraction':<26s} {targets / denom:10.3f}")
        bins = []
        r = 0
        while True:
            b = counter(f"timestep.bin_{r}")
            if b == 0 and r >= args.max_rungs:
                break
            bins.append(b)
            r += 1
        print(f"  {'rung occupancy':<26s} {bins}")
        for name in ("repair.repairs", "repair.full_rebuilds",
                     "repair.nodes_reused", "repair.nodes_rebuilt",
                     "timestep.midmacro_exchanges"):
            print(f"  {name:<26s} {counter(name):10d}")
    faults = result.fault_summary()
    if fault_plan is not None or any(faults.values()):
        print("fault/recovery counters:")
        for k, v in faults.items():
            print(f"  {k:<26s} {v:10d}")
        print(f"  {'checkpoint_recoveries':<26s} {result.recoveries:10d}")
    if result.host_metrics is not None and result.recoveries:
        rb = result.host_metrics.counter("recovery.rollback_steps").value
        wall = result.host_metrics.histogram("recovery.wall_seconds")
        print(f"recovery: {result.recoveries} restart(s), "
              f"{rb} step(s) of progress re-executed, "
              f"{wall.total:.2f} s real recovery time")

    if args.check and args.mode == "potential":
        exact = direct_potentials(particles)
        err = fractional_percent_error(result.values, exact)
        print(f"fractional % error      {err:10.4f} %")
    elif args.check:
        from repro import direct_forces
        exact = direct_forces(particles)
        rel = np.linalg.norm(result.values - exact, axis=1) \
            / np.linalg.norm(exact, axis=1)
        print(f"median force rel error  {np.median(rel):10.2e}")

    if args.trace_out:
        _write_trace(result, args.trace_out)
    if args.metrics_out:
        _write_metrics(result, args.metrics_out)
    return 0


def _cmd_trace(args) -> int:
    from repro.analysis import (
        critical_path,
        format_bytes_matrix,
        format_critical_path,
        phase_waterfall,
        step_critical_paths,
    )

    particles, profile, fault_plan, sim = _build_sim(args)
    print(f"{args.instance} (scale {args.scale}: {particles.n} particles) "
          f"| {args.scheme.upper()} on {profile.name} x{args.procs} "
          f"| alpha={args.alpha} degree={args.degree} mode={args.mode} "
          f"| {args.steps} step(s), traced")
    result = _run_sim(sim, args, trace=True)
    trace = result.trace

    print(f"\nvirtual parallel time   {result.parallel_time:10.3f} s")
    cp = critical_path(trace)
    print("\n" + format_critical_path(cp, max_segments=args.max_segments))
    if args.steps > 1:
        print("\nper-step critical paths:")
        for step, scp in step_critical_paths(trace).items():
            kinds = scp.by_kind()
            print(f"  step {step}: {scp.length:10.6f} s "
                  f"({scp.hops()} hop(s); "
                  f"compute {kinds.get('compute', 0.0):.6f}, "
                  f"network {kinds.get('network', 0.0):.6f})")
    print("\n" + phase_waterfall(trace, width=args.waterfall_width))
    print("\n" + format_bytes_matrix(trace))
    if trace.has_wall:
        from repro.analysis import format_skew_report
        print("\n" + format_skew_report(trace))

    if args.out:
        _write_trace(result, args.out)
    if args.metrics_out:
        _write_metrics(result, args.metrics_out)
    return 0


def _add_sim_args(cmd: argparse.ArgumentParser) -> None:
    """Simulation options shared by ``run`` and ``trace``."""
    cmd.add_argument("--instance", default="g_160535",
                     help="named instance (see `instances`)")
    cmd.add_argument("--scale", type=float, default=0.01,
                     help="fraction of the paper's particle count")
    cmd.add_argument("--seed", type=int, default=1994)
    cmd.add_argument("--scheme", choices=("spsa", "spda", "dpda"),
                     default="spda")
    cmd.add_argument("--procs", type=int, default=16,
                     help="virtual processor count")
    cmd.add_argument("--backend", choices=("virtual", "process"),
                     default="virtual",
                     help="virtual: thread-per-rank in one interpreter; "
                          "process: one OS process per rank (same "
                          "virtual times, real multi-core wall clock)")
    cmd.add_argument("--machine", default="ncube2",
                     help="ncube2 | cm5 | t3e | zero")
    cmd.add_argument("--alpha", type=float, default=0.67)
    cmd.add_argument("--degree", type=int, default=0,
                     help="multipole degree (0 = monopole)")
    cmd.add_argument("--mode", choices=("force", "potential"),
                     default="force")
    cmd.add_argument("--grid-level", type=int, default=3,
                     help="static cluster grid level (r = 8^level in 3-D)")
    cmd.add_argument("--leaf-capacity", type=int, default=16,
                     help="the paper's s: max particles per leaf")
    cmd.add_argument("--steps", type=int, default=1)
    cmd.add_argument("--dt", type=float, default=None, metavar="DT",
                     help="advance particles by DT per step (default: "
                          "compute forces only, no advance)")
    cmd.add_argument("--softening", type=float, default=0.0,
                     help="Plummer softening for force kernels "
                          "(required > 0 for --timestep block)")
    cmd.add_argument("--integrator", choices=("euler", "kdk"),
                     default="euler",
                     help="particle advance: euler (original loop, "
                          "bitwise default) or kdk leapfrog")
    cmd.add_argument("--timestep", choices=("fixed", "block"),
                     default="fixed",
                     help="fixed: every particle advances by dt each "
                          "step; block: power-of-two per-particle bins "
                          "with incremental tree repair (needs "
                          "--integrator kdk and --softening > 0)")
    cmd.add_argument("--dt-eta", type=float, default=0.2,
                     help="rung criterion accuracy: "
                          "dt_i = eta*sqrt(softening/|a|)")
    cmd.add_argument("--max-rungs", type=int, default=4, metavar="R",
                     help="power-of-two timestep bins (rung r steps "
                          "dt/2^r)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel Barnes-Hut reproduction "
                    "(Grama, Kumar & Sameh, SC'94)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("instances", help="list the paper's named instances")
    sub.add_parser("profiles", help="list virtual machine profiles")

    run = sub.add_parser("run", help="run one parallel simulation")
    _add_sim_args(run)
    run.add_argument("--check", action="store_true",
                     help="compare against O(n^2) direct summation")
    run.add_argument("--fault-plan", metavar="PATH",
                     help="JSON fault plan (seeded message delays, "
                          "rank crashes and slowdowns, worker kills and "
                          "heartbeat stalls)")
    run.add_argument("--checkpoint-every", type=int, metavar="N",
                     help="checkpoint every N steps; recover rank "
                          "crashes and worker losses by rollback "
                          "instead of failing")
    run.add_argument("--checkpoint-dir", metavar="PATH",
                     help="durable checkpoint directory (survives the "
                          "host process; enables --resume)")
    run.add_argument("--resume", action="store_true",
                     help="resume from the newest common checkpoint in "
                          "--checkpoint-dir")
    run.add_argument("--max-restarts", type=int, default=3, metavar="N",
                     help="worker-loss respawn budget on the process "
                          "backend (default 3)")
    run.add_argument("--trace-out", metavar="PATH",
                     help="write a Chrome trace-event JSON of the run "
                          "(open in Perfetto / chrome://tracing)")
    run.add_argument("--metrics-out", metavar="PATH",
                     help="write the machine-wide metrics snapshot JSON")
    run.add_argument("--events-out", metavar="PATH",
                     help="append a JSON-lines run event stream here "
                          "(run_start/step/checkpoint/worker_lost/"
                          "recovery/run_end; process backend only)")
    run.add_argument("--live", action="store_true",
                     help="single-line live telemetry on stderr while "
                          "the run executes (process backend only)")

    trace = sub.add_parser(
        "trace", help="run one traced simulation and print the "
                      "critical path, waterfall and traffic matrix")
    _add_sim_args(trace)
    trace.add_argument("--out", metavar="PATH",
                       help="write the Chrome trace-event JSON here")
    trace.add_argument("--metrics-out", metavar="PATH",
                       help="write the machine-wide metrics snapshot JSON")
    trace.add_argument("--max-segments", type=int, default=30,
                       help="chain segments to print")
    trace.add_argument("--waterfall-width", type=int, default=72,
                       help="time bins per waterfall row")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "instances":
        return _cmd_instances(args)
    if args.command == "profiles":
        return _cmd_profiles(args)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "trace":
            return _cmd_trace(args)
    except _InputError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
