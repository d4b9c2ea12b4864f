"""Paper-style plain-text tables for bench and CLI output."""

from __future__ import annotations

from typing import Any, Sequence


def _fmt(value: Any, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str | None = None, precision: int = 2) -> str:
    """Render an aligned text table (floats at fixed precision)."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must have one cell per header")
    cells = [[_fmt(v, precision) for v in row] for row in rows]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in cells)) if cells
        else len(headers[c])
        for c in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(sep))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
