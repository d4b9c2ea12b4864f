"""Virtual-vs-wall skew analysis of a dual-clock trace.

A dual-clock trace (``wall_trace``, either backend) records every
phase twice: once on the virtual clock (what the cost model charged)
and once on the wall clock (what the hardware measured).  The *skew* of
a phase is the disagreement between the two — the places the model says
are expensive but the machine finds cheap, and vice versa.  This is the
measured-profile view Valdarnini-style treecode papers ground their
scaling claims in, computed from our own trace artifact.

Wall seconds and virtual seconds are different units, so raw ratios
mean little across machines; the reports therefore compare *shares*:
each phase's fraction of total virtual time against its fraction of
total wall time.  A phase whose wall share exceeds its virtual share is
under-modelled (the cost model flatters it); the reverse means
over-modelled.

Everything operates on the :class:`~repro.machine.trace.Trace`
artifact only, so reports can be produced from a saved trace without
re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.trace import PhaseSpan, Trace

#: Wall-span categories that correspond to clock phases (transport /
#: checkpoint / recovery spans are wall-only mechanics with no virtual
#: counterpart, so skew is undefined for them).
_WALL_PHASE_CAT = "wall:phase"


@dataclass
class PhaseSkew:
    """One phase's virtual-vs-wall comparison, machine-wide."""

    name: str
    virtual_seconds: float     # summed over all ranks (depth-1 spans)
    wall_seconds: float
    virtual_share: float       # fraction of total virtual seconds
    wall_share: float          # fraction of total wall seconds

    @property
    def skew(self) -> float:
        """``wall_share - virtual_share``: positive = under-modelled."""
        return self.wall_share - self.virtual_share


def _sum_by_phase(spans: list[PhaseSpan], cat: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in spans:
        if s.cat != cat or s.depth != 1:
            # Depth-1 only: nested spans double-count their parents.
            continue
        out[s.name] = out.get(s.name, 0.0) + s.duration
    return out


def _wall_covered(virtual: list[PhaseSpan],
                  wall: list[PhaseSpan]) -> list[PhaseSpan]:
    """One rank's virtual spans inside the steps its wall track covers.

    A recovered run's wall track holds only the attempt that finished —
    the steps re-executed after the rollback — while its virtual track
    holds every step.  A step's spans end before its ``cat="step"``
    marker does, so each marker claims the spans recorded since the
    previous one.  A track without step markers counts whole.
    """
    if not any(s.cat == "step" for s in virtual):
        return virtual
    covered = {s.name for s in wall if s.cat == "wall:step"}
    out: list[PhaseSpan] = []
    pending: list[PhaseSpan] = []
    for s in virtual:
        if s.cat != "step":
            pending.append(s)
            continue
        if s.name in covered:
            out.extend(pending)
        pending = []
    return out


def phase_skew(trace: Trace) -> list[PhaseSkew]:
    """Per-phase virtual-vs-wall skew, sorted by |skew| descending.

    Both clocks cover the same window: the virtual side counts only the
    steps the wall tracks recorded.  Raises ``ValueError`` on a trace
    without wall tracks — skew needs both clocks.
    """
    if not trace.has_wall:
        raise ValueError(
            "trace has no wall tracks; run with wall tracing enabled "
            "(process backend, wall_trace=True)"
        )
    virt = _sum_by_phase(
        [s for v, w in zip(trace.phases, trace.wall_phases)
         for s in _wall_covered(v, w)], "phase")
    wall = _sum_by_phase(trace.all_wall_phases(), _WALL_PHASE_CAT)
    v_total = sum(virt.values())
    w_total = sum(wall.values())
    rows = []
    for name in sorted(set(virt) | set(wall)):
        v = virt.get(name, 0.0)
        w = wall.get(name, 0.0)
        rows.append(PhaseSkew(
            name=name, virtual_seconds=v, wall_seconds=w,
            virtual_share=(v / v_total if v_total else 0.0),
            wall_share=(w / w_total if w_total else 0.0),
        ))
    rows.sort(key=lambda r: (-abs(r.skew), r.name))
    return rows


def wall_load_imbalance(trace: Trace,
                        phase: str | None = None) -> float:
    """Measured wall-time load imbalance: ``max/mean`` of per-rank wall
    seconds (1.0 = perfectly balanced), over one phase or all phases.

    The wall analogue of ``RunReport.load_imbalance`` — the virtual
    number says how imbalanced the *model* thinks the ranks are; this
    says how imbalanced the hardware found them.
    """
    if not trace.has_wall:
        raise ValueError(
            "trace has no wall tracks; run with wall tracing enabled"
        )
    per_rank = []
    for spans in trace.wall_phases:
        total = sum(s.duration for s in spans
                    if s.cat == _WALL_PHASE_CAT and s.depth == 1
                    and (phase is None or s.name == phase))
        per_rank.append(total)
    mean = sum(per_rank) / len(per_rank) if per_rank else 0.0
    if mean == 0.0:
        return 1.0
    return max(per_rank) / mean


def per_rank_wall_seconds(trace: Trace) -> list[float]:
    """Total depth-1 wall phase seconds per rank."""
    return [
        sum(s.duration for s in spans
            if s.cat == _WALL_PHASE_CAT and s.depth == 1)
        for spans in trace.wall_phases
    ]


def format_skew_report(trace: Trace) -> str:
    """The skew analysis as an aligned text table."""
    rows = phase_skew(trace)
    lines = [
        "virtual-vs-wall phase skew (shares of each clock's total;",
        "positive skew = phase is under-modelled by the cost model):",
        f"{'phase':<26s} {'virt s':>12s} {'wall s':>10s} "
        f"{'virt %':>8s} {'wall %':>8s} {'skew':>8s}",
    ]
    for r in rows:
        lines.append(
            f"{r.name:<26s} {r.virtual_seconds:>12.6f} "
            f"{r.wall_seconds:>10.4f} {100 * r.virtual_share:>7.1f}% "
            f"{100 * r.wall_share:>7.1f}% {100 * r.skew:>+7.1f}%"
        )
    imb = wall_load_imbalance(trace)
    per_rank = per_rank_wall_seconds(trace)
    lines.append("")
    lines.append("per-rank wall seconds (clock phases): "
                 + "  ".join(f"r{r}={t:.4f}"
                             for r, t in enumerate(per_rank)))
    lines.append(f"wall load imbalance (max/mean): {imb:.3f}")
    return "\n".join(lines)
