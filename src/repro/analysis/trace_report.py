"""Text-mode views of a machine trace: traffic matrix and waterfall.

These operate on the :class:`~repro.machine.trace.Trace` artifact only,
so they can be produced from a saved trace without re-running anything.
"""

from __future__ import annotations

import numpy as np

from repro.machine.trace import Trace


def bytes_matrix(trace: Trace) -> np.ndarray:
    """``(p, p)`` payload-byte totals: entry ``[src, dst]``.

    The diagonal is local (free) traffic.  Every send is received once,
    so the matrix matches the receiver-side per-tag accounting.
    """
    m = np.zeros((trace.size, trace.size), dtype=np.int64)
    for ev in trace.all_sends():
        m[ev.src, ev.dst] += ev.nbytes
    return m


def format_bytes_matrix(trace: Trace) -> str:
    """The src x dst byte matrix as an aligned text table."""
    m = bytes_matrix(trace)
    p = trace.size
    width = max(8, max(len(str(int(v))) for v in m.flat) + 1)
    head = "src\\dst " + "".join(f"{d:>{width}d}" for d in range(p)) \
        + f"{'total':>{width + 2}s}"
    lines = ["bytes sent (payload), by source and destination:", head]
    for s in range(p):
        row = "".join(f"{int(m[s, d]):>{width}d}" for d in range(p))
        lines.append(f"{s:>7d} {row}{int(m[s].sum()):>{width + 2}d}")
    col_tot = "".join(f"{int(m[:, d].sum()):>{width}d}" for d in range(p))
    lines.append(f"{'total':>7s} {col_tot}{int(m.sum()):>{width + 2}d}")
    return "\n".join(lines)


#: Waterfall glyphs for the paper's phase names; other phases get letters
#: assigned on the fly.
_GLYPHS = {
    "setup": "s",
    "load balancing": "b",
    "local tree construction": "t",
    "tree merging": "m",
    "all-to-all broadcast": "a",
    "force computation": "F",
    "particle advance": "v",
    "other": ".",
}


def phase_waterfall(trace: Trace, width: int = 72) -> str:
    """One row per rank, time binned left to right; each cell shows the
    phase the rank spent most of that bin in (innermost span wins ties
    toward deeper nesting; blank = outside any phase block).

    This is the flamegraph squint-view: load imbalance appears as ragged
    right edges, phase skew as misaligned columns.
    """
    t_end = trace.parallel_time
    if t_end <= 0 or width <= 0:
        return "(empty trace)"
    glyphs = dict(_GLYPHS)
    spare = iter("ABCDEGHIJKLMNOPQRSTUWXYZ")
    dt = t_end / width
    lines = [f"phase waterfall  [0, {t_end:.6f}] s, "
             f"{width} bins of {dt:.3e} s:"]
    used: dict[str, str] = {}
    for rank in range(trace.size):
        spans = [sp for sp in trace.phases[rank] if sp.cat == "phase"]
        row = []
        final = trace.final_times[rank] if trace.final_times else t_end
        for i in range(width):
            b0, b1 = i * dt, (i + 1) * dt
            if b0 >= final:
                row.append(" ")
                continue
            # Deepest-first so nested (more specific) phases win the bin.
            best_name, best_score = None, 0.0
            for sp in spans:
                overlap = min(sp.t1, b1) - max(sp.t0, b0)
                if overlap <= 0:
                    continue
                score = overlap * (1 + 1e-9 * sp.depth)
                if score > best_score:
                    best_name, best_score = sp.name, score
            if best_name is None:
                row.append("-")
            else:
                g = glyphs.get(best_name)
                if g is None:
                    g = next(spare, "?")
                    glyphs[best_name] = g
                used[best_name] = g
                row.append(g)
        lines.append(f"rank {rank:>3d} |{''.join(row)}|")
    legend = ", ".join(f"{g}={name}" for name, g in sorted(
        used.items(), key=lambda kv: kv[1]))
    lines.append(f"legend: {legend or '(no phases recorded)'}; "
                 f"-=untracked, blank=finished")
    return "\n".join(lines)
