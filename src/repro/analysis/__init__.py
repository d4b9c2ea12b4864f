"""Measurement and modelling utilities for the reproduction.

* :mod:`~repro.analysis.flops` — the paper's instruction-count model and
  serial-time extrapolation (the paper computes efficiencies "by
  extrapolating force computation rates on a single processor").
* :mod:`~repro.analysis.error` — fractional percentage error (Section 5.2.2).
* :mod:`~repro.analysis.metrics` — speedup/efficiency/phase breakdowns.
* :mod:`~repro.analysis.kruskal_weiss` — the Section 4.1 load-imbalance
  bound and the r >= p log p cluster-count rule.
* :mod:`~repro.analysis.tables` — paper-style text tables for benches.
* :mod:`~repro.analysis.critical_path` — longest send/wait/compute chain
  through a machine trace.
* :mod:`~repro.analysis.trace_report` — src x dst traffic matrix and the
  text phase waterfall.
* :mod:`~repro.analysis.skew_report` — per-phase virtual-vs-wall skew
  and measured wall load imbalance from a dual-clock trace.
"""

from repro.analysis.flops import (
    FLOPS_PER_MAC,
    interaction_flops,
    serial_time_estimate,
)
from repro.analysis.error import fractional_error, fractional_percent_error
from repro.analysis.metrics import (
    efficiency,
    speedup,
    phase_table,
)
from repro.analysis.kruskal_weiss import (
    expected_completion_time,
    min_clusters,
)
from repro.analysis.tables import format_table
from repro.analysis.critical_path import (
    CriticalPath,
    Segment,
    critical_path,
    format_critical_path,
    step_critical_paths,
)
from repro.analysis.trace_report import (
    bytes_matrix,
    format_bytes_matrix,
    phase_waterfall,
)
from repro.analysis.skew_report import (
    PhaseSkew,
    format_skew_report,
    per_rank_wall_seconds,
    phase_skew,
    wall_load_imbalance,
)

__all__ = [
    "FLOPS_PER_MAC",
    "interaction_flops",
    "serial_time_estimate",
    "fractional_error",
    "fractional_percent_error",
    "efficiency",
    "speedup",
    "phase_table",
    "expected_completion_time",
    "min_clusters",
    "format_table",
    "CriticalPath",
    "Segment",
    "critical_path",
    "format_critical_path",
    "step_critical_paths",
    "bytes_matrix",
    "format_bytes_matrix",
    "phase_waterfall",
    "PhaseSkew",
    "format_skew_report",
    "per_rank_wall_seconds",
    "phase_skew",
    "wall_load_imbalance",
]
