"""End-to-end benchmark of ``ParallelBarnesHut.run`` with layer probes.

    python benchmarks/e2e/run.py [--seed 1994]          all four workloads
    python benchmarks/e2e/run.py --trace                 the traced run
    python benchmarks/e2e/run.py --smoke                 small and quick
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S \\
                                 --trace 0|1             one workload
    python benchmarks/e2e/run.py --compare A.json B.json

This file is only the driver: every set-up, pass and traced run happens
in a fresh child interpreter (``child.py``), the passes of different
workloads interleaved so that machine drift lands on all of them.  See
README.md for the design and the vocabulary; ``BENCHMARK.json`` at the
repository root names every metric, its unit, direction and bound.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
#: Recorded ``virtual_step_s`` / ``interactions_per_step`` by workload
#: and seed (``--record-exact`` writes it).
EXACT_FILE = HERE / "exact.json"
#: What the driver runs (``--workload``): two measuring passes sharing
#: ``--seconds``, and set-up sampled in nine fresh interpreters (the two
#: passes included).
PASSES = 2
SETUP_SAMPLES = 9
#: The full interleaved run has time for more: four passes as long as
#: the driver's (so each workload is measured for twice as long) and
#: 21 set-up samples.  Three of these runs have to agree (README, A/A).
FULL_PASSES = 4
FULL_SETUP_SAMPLES = 21
#: The longest child (a traced run) takes ~35 s; one that hangs must
#: still leave a driver invocation inside its 180 s.
CHILD_TIMEOUT_S = 120
#: Exactly reproducible metrics: at equal seed any difference is a
#: behaviour change, whatever BENCHMARK.json's bound allows across seeds.
EXACT = ("virtual_step_s", "interactions_per_step")
#: How far an exact metric may sit above its record in exact.json.  On
#: one machine the record repeats to the last bit; across CPU types
#: numpy's sums may round differently, and one cell-opening decision
#: that flips moves the counts by about 1e-6.  A change of behaviour
#: moves them by far more than this.
EXACT_TOL = 1e-4


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # No more runnable threads than the workload's ranks: BLAS stays
    # single-threaded; the numba tier (when present) may use the cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["NUMBA_NUM_THREADS"] = str(os.cpu_count() or 1)
    env["PYTHONHASHSEED"] = "0"
    # One malloc arena: with glibc's per-thread arenas the rank threads'
    # peak RSS scattered 137-182 MiB on one workload; with one, +-0.2 %.
    env["MALLOC_ARENA_MAX"] = "1"
    env["TMPDIR"] = str(workdir)        # nothing written outside the tree
    return env


def run_child(mode: str, workload: str, seed: int, workdir: Path,
              *extra: str) -> dict:
    """One fresh interpreter; its last stdout line is its JSON report.
    A child that dies or hangs yields ``{"error": ...}``."""
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir), *extra]
    # Its own process group, so that a child that hangs is killed with
    # whatever rank processes it started.
    proc = subprocess.Popen(cmd, env=child_env(workdir), cwd=str(HERE),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"{mode} child timed out after {CHILD_TIMEOUT_S}s"}
    if proc.returncode != 0:
        return {"error": f"{mode} child exited with {proc.returncode}"}
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"{mode} child printed no report"}


# ------------------------------------------------------------ untraced
def quartiles(values: list[float]) -> dict:
    """Median with the detail the JSON keeps beside it."""
    out = {"value": statistics.median(values), "n": len(values),
           "min": min(values), "samples": values}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out.update(q1=q[0], q3=q[2])
    return out


def summarise(passes: list[dict], setups: list[float], units: dict,
              recorded: dict | None) -> dict:
    """End-to-end metrics and operation counts of one workload from its
    pass reports and its set-up samples.  ``recorded`` is this
    (workload, seed)'s entry of ``exact.json``, if it has one."""
    attempted = failed = 0
    failures: list[str] = []
    good = []
    for rep in passes:
        if "error" in rep:
            attempted += 1
            failed += 1
            failures.append(rep["error"])
            continue
        good.append(rep)
        attempted += rep["ops_attempted"]
        failed += rep["ops_failed"]
        failures += rep["failures"]
    metrics: dict[str, dict] = {}
    exact = None
    if good:
        samples = [s for rep in good for s in rep["samples"]]
        sig = good[0]["signature"]
        # Determinism guard across passes: exact counters and the
        # validated error must repeat bit for bit.
        attempted += 1
        same = all(rep["signature"] == sig
                   and rep["force_rel_err"] == good[0]["force_rel_err"]
                   for rep in good)
        if not same:
            failed += 1
            failures.append("exact metrics differ between passes")
        if samples and sig:
            exact = {m: sig[m] for m in EXACT}
            metrics = {
                "setup_s": quartiles(setups),
                "step_wall_s": quartiles(samples),
                "peak_rss_mb": {"value": max(r["peak_rss_mb"]
                                             for r in good), "n": len(good)},
                "virtual_step_s": {
                    "value": float.fromhex(sig["virtual_step_s"]), "n": 1},
                "interactions_per_step": {
                    "value": sig["interactions_per_step"], "n": 1},
            }
            for name, m in metrics.items():
                m["unit"] = units[name]
        if exact and recorded:
            # At a recorded seed the exact metrics may not worsen at
            # all, whatever BENCHMARK.json has to allow across seeds.
            attempted += 1
            worse = [m for m in EXACT if metrics[m]["value"] > (
                1.0 + EXACT_TOL) * exact_value(recorded[m])]
            if worse:
                failed += 1
                failures.append(
                    f"{', '.join(worse)} worse than recorded in exact.json: "
                    f"{exact} against {recorded}")
    return {"metrics": metrics, "attempted": attempted,
            "failed": failed, "failures": failures, "exact": exact,
            "n": good[0]["n"] if good else None,
            "kernel_tier": good[0]["kernel_tier"] if good else None}


def exact_value(v) -> float:
    """``exact.json`` keeps floats as hex so JSON cannot round them."""
    return float.fromhex(v) if isinstance(v, str) else float(v)


def load_exact() -> dict:
    if not EXACT_FILE.exists():
        return {}
    with open(EXACT_FILE) as fh:
        return json.load(fh)


def run_untraced(names: list[str], seed: int, seconds: float, smoke: bool,
                 workdir: Path, units: dict, corrupt: bool = False) -> dict:
    if smoke:
        n_pass, n_setup = 1, 3
    elif len(names) == 1:
        n_pass, n_setup = PASSES, SETUP_SAMPLES
    else:
        n_pass, n_setup = FULL_PASSES, FULL_SETUP_SAMPLES
    extra = ["--budget", str(0.0 if smoke else seconds / PASSES)]
    if smoke:
        extra += ["--smoke", "--min-samples", "2"]
    if corrupt:
        extra.append("--corrupt-reference")
    # One round per set-up sample, every workload in every round (W1 W2
    # W3 W4); the measuring passes spread evenly among the set-up-only
    # rounds (M S S S S S S S M for one workload), so that each
    # workload's timed samples straddle the run instead of sitting in
    # one window.
    rounds = ["setup"] * n_setup
    for k in range(n_pass):
        rounds[round(k * (n_setup - 1) / max(n_pass - 1, 1))] = "measure"
    passes: dict[str, list] = {name: [] for name in names}
    setups: dict[str, list] = {name: [] for name in names}
    for mode in rounds:
        for name in names:
            if mode == "measure":
                rep = run_child("measure", name, seed, workdir, *extra)
                passes[name].append(rep)
            else:
                rep = run_child("setup", name, seed, workdir,
                                *(["--smoke"] if smoke else []))
            if "error" not in rep:
                setups[name].append(rep["setup_s"])
    recorded = {} if smoke else load_exact()
    return {name: summarise(passes[name], setups[name], units,
                            recorded.get(name, {}).get(str(seed)))
            for name in names}


def record_exact(results: dict, seed: int) -> None:
    """Merge this run's exact metrics into ``exact.json``."""
    doc = load_exact()
    for name, res in results.items():
        if res["exact"] and not res["failed"]:
            doc.setdefault(name, {})[str(seed)] = res["exact"]
    with open(EXACT_FILE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -------------------------------------------------------------- traced
def workload_free(metric: str) -> bool:
    """Per-layer metrics of ``probes.machine_probes``: no instance goes
    into them."""
    return metric.startswith("machine.") or (
        metric.startswith("runtime.process.")
        and metric != "runtime.process.step_wall_s")


def run_traced(names: list[str], seed: int, smoke: bool, workdir: Path,
               units: dict) -> dict:
    out = {}
    shared: dict[str, float] = {}
    for name in names:
        # The workload-free probes run in the first traced child only;
        # the other workloads' rows repeat its numbers.
        rep = run_child("trace", name, seed, workdir,
                        "--trace-out", str(RESULTS / f"trace-{name}.json"),
                        *(["--smoke"] if smoke else []),
                        *(["--no-machine-probes"] if shared else []))
        if "error" in rep:
            out[name] = {"metrics": {}, "attempted": 1, "failed": 1,
                         "failures": [rep["error"]]}
            continue
        if not shared:
            shared = {m: v for m, v in rep["metrics"].items()
                      if workload_free(m)}
        metrics = {**shared, **rep["metrics"]}
        missing = sorted(set(units) - set(metrics))
        failures = rep["failures"] + [f"per-layer metric {m} not produced"
                                      for m in missing]
        out[name] = {
            "metrics": {m: {"value": metrics[m], "unit": units[m]}
                        for m in units if m in metrics},
            "attempted": rep["ops_attempted"] + 1,
            "failed": rep["ops_failed"] + bool(missing),
            "failures": failures, "n": rep["n"],
            "kernel_tier": rep["kernel_tier"],
        }
    return out


# ----------------------------------------------------------- reporting
def installed(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def host_context(results: dict) -> dict:
    tiers = {r.get("kernel_tier") for r in results.values()} - {None}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": installed("numpy"), "numba": installed("numba"),
            "kernel_tier": sorted(tiers), "machine": platform.machine(),
            "loadavg": list(os.getloadavg())}


def print_workload(name: str, res: dict) -> None:
    print(f"{name}  (n={res.get('n')}, ops_failed / ops_attempted = "
          f"{res['failed']} / {res['attempted']})")
    for metric, m in res["metrics"].items():
        detail = ""
        if "q1" in m:
            detail = (f"  (median of {m['n']}; q1 {m['q1']:.6g}, "
                      f"q3 {m['q3']:.6g}, min {m['min']:.6g})")
        print(f"  {metric:<42} {m['value']:>14.6g} {m['unit']}{detail}")
    for f in res["failures"]:
        print(f"  FAILED: {f}")


def last_line(res: dict) -> str:
    """The driver's contract: one JSON object, exactly these keys."""
    return json.dumps({
        "correct": res["failed"] == 0 and bool(res["metrics"]),
        "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in res["metrics"].items()},
    })


def write_out(path: str, section: str, results: dict, args) -> None:
    """Write (or merge into) a result file: the untraced and the traced
    run of one baseline, workload by workload, share one file."""
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc.pop("claim", None)
    doc["host"] = host_context(results)
    doc["seed"] = args.seed
    doc["smoke"] = args.smoke
    doc.setdefault(section, {}).update(results)
    doc["claim"] = None          # this benchmark measures; it claims nothing
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ------------------------------------------------------------- compare
def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Apply BENCHMARK.json's bounds to two result files."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    same_seed = a.get("seed") == b.get("seed")
    worst = 0
    print(f"{'workload':<30} {'metric':<22} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'spread':>7} {'bound':>7}  status")
    for name in a.get("end_to_end", {}):
        ma = a["end_to_end"][name]["metrics"]
        mb = b.get("end_to_end", {}).get(name, {}).get("metrics", {})
        for m in spec["end_to_end"]:
            key = m["name"]
            if key not in ma or key not in mb:
                print(f"{name:<30} {key:<22} missing")
                worst = 1
                continue
            va, vb = ma[key]["value"], mb[key]["value"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (vb - va) / abs(va) if va else 0.0
            # How well each file knows its median: half-width of the
            # ~95 % interval, 1.57 IQR / sqrt(n) (the box-plot notch).
            spread = max(1.57 * (x["q3"] - x["q1"])
                         / (x["n"] ** 0.5 * x["value"])
                         for x in (ma[key], mb[key])) \
                if "q1" in ma[key] and "q1" in mb[key] else 0.0
            if spread > m["bound"]:
                status = "unresolved"
            elif worse > m["bound"]:
                status = "regressed"
            elif key in EXACT and same_seed and va != vb:
                status = "changed"
            else:
                status = "ok"
            worst |= status != "ok"
            print(f"{name:<30} {key:<22} {va:>12.6g} {vb:>12.6g} "
                  f"{worse:>+9.2%} {spread:>7.2%} {m['bound']:>7.2%}  "
                  f"{status}")
    if not same_seed:
        print("seeds differ: exact metrics are compared by bound only")
    for name in a.get("per_layer", {}):
        ca = a["per_layer"][name]["metrics"].get("calib.direct2k_s")
        cb = b.get("per_layer", {}).get(name, {}).get("metrics", {}) \
            .get("calib.direct2k_s")
        if ca and cb:
            print(f"calib.direct2k_s drift on {name}: "
                  f"{cb['value'] / ca['value'] - 1.0:+.2%} (B vs A)")
    return worst


# ----------------------------------------------------------------- main
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=None,
                    help="run one workload and end with the one-line "
                         "JSON result (default: all four, interleaved)")
    ap.add_argument("--seed", type=int, default=1994)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds of timed runs per workload (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1),
                    help="1: the traced run (per-layer metrics) instead "
                         "of the untraced one")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload and metric at n ~ 1500, one "
                         "pass, two timed runs")
    ap.add_argument("--out", default=None,
                    help="write (merge) the detailed results into this file")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--record-exact", action="store_true",
                    help="record this seed's exact metrics in exact.json "
                         "(a benchmark-only PR re-measuring the baseline)")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help=argparse.SUPPRESS)    # test_smoke.py only
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            print(f"run.py: unknown workload {args.workload!r}; "
                  f"known: {names}", file=sys.stderr)
            return 2
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=str(HERE)))
    try:
        sections = {}
        if args.trace or args.smoke:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            sections["per_layer"] = run_traced(names, args.seed, args.smoke,
                                               workdir, units)
        if not args.trace:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            sections["end_to_end"] = run_untraced(
                names, args.seed, seconds, args.smoke, workdir, units,
                corrupt=args.corrupt_reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for section, results in sections.items():
        print(f"== {section} (seed {args.seed}"
              f"{', smoke' if args.smoke else ''}) ==")
        for name in names:
            print_workload(name, results[name])
        if args.out:
            write_out(args.out, section, results, args)
        if args.record_exact and section == "end_to_end" and not args.smoke:
            record_exact(results, args.seed)
    failed = sum(r["failed"] for res in sections.values()
                 for r in res.values())
    if args.workload is not None and not args.smoke:
        (results,) = sections.values()
        print(last_line(results[args.workload]))
    else:
        print(json.dumps({
            "ops_failed": failed,
            "ops_attempted": sum(r["attempted"] for res in sections.values()
                                 for r in res.values()),
            "claim": None,
        }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
