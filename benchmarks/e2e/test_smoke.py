"""Smoke test of the end-to-end benchmark.

Run with ``pytest benchmarks/e2e`` (about a minute); outside tier-1's
``testpaths`` on purpose.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=600)


def printed_units(stdout: str) -> dict:
    """``{(section, workload): {metric: unit}}`` from the printed report."""
    out: dict = {}
    section = workload = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            section = line.split()[1]
        elif line.startswith("  ") and not line.startswith("  FAILED"):
            metric, _value, unit = line.split()[:3]
            out[(section, workload)][metric] = unit
        elif "(n=" in line:
            workload = line.split()[0]
            out[(section, workload)] = {}
    return out


@pytest.fixture(scope="module")
def smoke() -> subprocess.CompletedProcess:
    return run("--smoke")


def test_smoke_runs_clean(smoke):
    assert smoke.returncode == 0, smoke.stdout + smoke.stderr
    summary = json.loads(smoke.stdout.strip().splitlines()[-1])
    assert summary["ops_failed"] == 0
    assert summary["ops_attempted"] >= 4 * len(WORKLOADS)
    assert list(summary)[-1] == "claim" and summary["claim"] is None


def test_every_metric_is_printed_with_its_unit(smoke):
    printed = printed_units(smoke.stdout)
    for section in ("end_to_end", "per_layer"):
        for workload in WORKLOADS:
            got = printed[(section, workload)]
            for m in SPEC[section]:
                assert got.get(m["name"]) == m["unit"], \
                    (section, workload, m["name"])


def test_names_are_plain():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"]
                         + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_wrong_reference_fails_validation():
    proc = run("--smoke", "--workload", WORKLOADS[0], "--corrupt-reference")
    assert proc.returncode == 1
    assert "FAILED: force_rel_err" in proc.stdout
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["ops_failed"] == 1


def test_recorded_exact_metric_may_not_worsen():
    """At a seed ``exact.json`` has, a worse ``interactions_per_step``
    is a failed operation however far inside BENCHMARK.json's bound;
    a better one is not."""
    spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
    e2e_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(e2e_run)
    sig = {"virtual_step_s": (70.5).hex(), "interactions_per_step": 1000.0,
           "comm.messages": 0.0, "comm.bytes": 0.0}
    rep = {"samples": [1.0, 1.1], "signature": sig, "force_rel_err": 1e-3,
           "peak_rss_mb": 100.0, "ops_attempted": 3, "ops_failed": 0,
           "failures": [], "n": 1500, "kernel_tier": "numpy"}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for recorded_count, ops_failed in ((990.0, 1), (1000.0, 0), (1010.0, 0)):
        recorded = {"virtual_step_s": (70.5).hex(),
                    "interactions_per_step": recorded_count}
        res = e2e_run.summarise([rep], [0.25, 0.26], units, recorded)
        assert res["failed"] == ops_failed, res["failures"]
        assert res["attempted"] == 5
