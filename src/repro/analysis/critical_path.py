"""Critical-path extraction from a machine trace.

The virtual machine's event graph has a simple causal structure: a
rank's clock only ever moves by *local charges* (compute, channel and
copy-out time) or by *waiting* for a message's virtual arrival.  A
receive that actually waited (``RecvEvent.waited``) means the receiver's
clock was bound by the sender's chain at that moment; every other moment
is locally bound.  The critical path is therefore recovered by walking
backwards from the last rank to finish:

1. on the current rank, find the latest waited receive completed before
   the current time ``t`` — everything from its arrival to ``t`` is a
   local ("compute") segment;
2. the interval from the sender's channel-charge end to the arrival is a
   "network" segment (per-hop latency and injected delays);
3. hop to the sender at its send time and repeat, until virtual time 0
   (or the requested window start).

The segments tile the walked interval, so the chain length equals the
run's ``parallel_time`` (up to floating-point summation error) — that
identity is the extractor's self-check and is pinned by the tests.

Compute segments are attributed to the innermost phase span covering
them, splitting segments at phase boundaries, so the report can say "the
critical path spends 42 % of its time in force computation on rank 3".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.trace import PhaseSpan, Trace

_EPS = 1e-15


@dataclass
class Segment:
    """One link of the critical path, on one rank's timeline."""

    rank: int
    kind: str               # "compute" | "network"
    t0: float
    t1: float
    phase: str | None = None   # innermost covering phase (compute only)
    tag: int | None = None     # message tag (network only)
    src: int | None = None     # sender rank (network only)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class CriticalPath:
    """The longest send/wait/compute chain ending at ``end``."""

    segments: list[Segment]    # chronological
    start: float
    end: float

    @property
    def length(self) -> float:
        return sum(s.duration for s in self.segments)

    def by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.segments:
            out[s.kind] = out.get(s.kind, 0.0) + s.duration
        return out

    def hops(self) -> int:
        """Number of cross-rank message edges on the chain."""
        return sum(1 for s in self.segments if s.kind == "network")


def _innermost_phase(spans: list[PhaseSpan], t0: float,
                     t1: float) -> list[tuple[float, float, str | None]]:
    """Split ``[t0, t1]`` at phase boundaries; attribute each piece to the
    innermost (deepest) covering span.  ``spans`` are one rank's."""
    cuts = {t0, t1}
    for sp in spans:
        if sp.cat != "phase":
            continue
        if t0 < sp.t0 < t1:
            cuts.add(sp.t0)
        if t0 < sp.t1 < t1:
            cuts.add(sp.t1)
    edges = sorted(cuts)
    pieces: list[tuple[float, float, str | None]] = []
    for a, b in zip(edges, edges[1:]):
        mid = 0.5 * (a + b)
        best: PhaseSpan | None = None
        for sp in spans:
            if sp.cat != "phase" or not (sp.t0 <= mid <= sp.t1):
                continue
            if best is None or sp.depth > best.depth:
                best = sp
        pieces.append((a, b, best.name if best is not None else None))
    return pieces


def critical_path(trace: Trace, rank: int | None = None,
                  start: float = 0.0,
                  end: float | None = None) -> CriticalPath:
    """Walk the event graph backwards from ``(rank, end)``.

    Defaults to the last rank to finish at its final time, i.e. the chain
    that *defines* ``parallel_time``.  ``start``/``end`` clip the walk to
    a window (used for per-step chains).
    """
    if rank is None:
        rank = max(range(trace.size),
                   key=lambda r: trace.final_times[r])
    if end is None:
        end = trace.final_times[rank]
    sends = trace.sends_by_seq()
    raw: list[Segment] = []
    r, t = rank, end
    guard = sum(len(evs) for evs in trace.recvs) + 2
    while t > start + _EPS and guard > 0:
        guard -= 1
        bind = None
        for ev in reversed(trace.recvs[r]):
            if ev.waited and start + _EPS < ev.arrival <= t + _EPS:
                bind = ev
                break
        if bind is None:
            raw.append(Segment(rank=r, kind="compute", t0=start, t1=t))
            break
        if t > bind.arrival:
            raw.append(Segment(rank=r, kind="compute",
                               t0=bind.arrival, t1=t))
        send = sends.get((bind.src, bind.seq))
        if send is None:
            # Untraceable edge (shouldn't happen): close out as network.
            raw.append(Segment(rank=r, kind="network", t0=start,
                               t1=bind.arrival, tag=bind.tag, src=bind.src))
            break
        net_t0 = max(start, send.t_end)
        raw.append(Segment(rank=r, kind="network", t0=net_t0,
                           t1=bind.arrival, tag=bind.tag, src=send.src))
        r, t = send.src, send.t_end
    raw.reverse()
    segments: list[Segment] = []
    for seg in raw:
        if seg.duration <= 0:
            continue
        if seg.kind == "compute":
            for a, b, phase in _innermost_phase(trace.phases[seg.rank],
                                                seg.t0, seg.t1):
                if b > a:
                    segments.append(Segment(rank=seg.rank, kind="compute",
                                            t0=a, t1=b, phase=phase))
        else:
            segments.append(seg)
    return CriticalPath(segments=segments, start=start, end=end)


def step_critical_paths(trace: Trace) -> dict[int, CriticalPath]:
    """Per-step chains, windowed by the ``cat="step"`` marker spans."""
    out: dict[int, CriticalPath] = {}
    for step, spans in sorted(trace.step_spans().items()):
        t0 = min(sp.t0 for sp in spans)
        last = max(spans, key=lambda sp: sp.t1)
        out[step] = critical_path(trace, rank=last.rank,
                                  start=t0, end=last.t1)
    return out


def format_critical_path(cp: CriticalPath, max_segments: int = 30) -> str:
    """Human-readable chain: one line per segment, newest last."""
    lines = [
        f"critical path: {cp.length:.6f} s over [{cp.start:.6f}, "
        f"{cp.end:.6f}], {cp.hops()} message hop(s)"
    ]
    for kind, dt in sorted(cp.by_kind().items()):
        lines.append(f"  {kind:<8s} {dt:12.6f} s")
    lines.append("  chain (oldest first):")
    segs = cp.segments
    shown = segs if len(segs) <= max_segments else segs[-max_segments:]
    if shown is not segs:
        lines.append(f"    ... {len(segs) - len(shown)} earlier "
                     f"segment(s) elided ...")
    for s in shown:
        what = (f"{s.phase or '(untracked)'}" if s.kind == "compute"
                else f"msg tag={s.tag} from rank {s.src}")
        lines.append(
            f"    rank {s.rank:>3d}  {s.kind:<8s} "
            f"{s.t0:12.6f} -> {s.t1:12.6f}  ({s.duration:10.6f} s)  {what}"
        )
    return "\n".join(lines)
