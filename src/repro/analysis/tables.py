"""Plain-text tables and schedule diagrams for the experiment harness.

Benchmarks print their paper-vs-measured results through
:func:`format_table`; :func:`render_schedule` redraws the paper's
Figure 1 (pecking-order active steps per class over time) as ASCII art
from a live simulation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["format_table", "render_schedule"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: Optional[str] = None,
    float_fmt: str = "{:.4f}",
) -> str:
    """Render an aligned plain-text table.

    Floats are formatted with ``float_fmt``; everything else with
    ``str``.  Column widths adapt to content.
    """
    def fmt(x: object) -> str:
        if isinstance(x, bool):
            return "yes" if x else "no"
        if isinstance(x, float):
            return float_fmt.format(x)
        return str(x)

    cells = [[fmt(x) for x in row] for row in rows]
    cols = len(headers)
    for row in cells:
        if len(row) != cols:
            raise ValueError(
                f"row has {len(row)} cells, expected {cols}: {row}"
            )
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in cells)) if cells else len(headers[c])
        for c in range(cols)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(x.rjust(w) for x, w in zip(row, widths)))
    return "\n".join(lines)


def render_schedule(
    active_levels: Sequence[Optional[int]],
    step_kinds: Sequence[str],
    levels: Sequence[int],
    *,
    start: int = 0,
    max_width: int = 200,
) -> str:
    """ASCII rendition of a pecking-order schedule (the paper's Figure 1).

    Parameters
    ----------
    active_levels:
        Per slot, the active class (or None) — from a simulation observer.
    step_kinds:
        Per slot, ``"est"``, ``"bcast"``, or ``""`` — which stage the
        active class was in (Figure 1's yellow squares vs. blue circles).
    levels:
        The class levels to draw, one row each (smallest first, like the
        figure's top row).
    start:
        Slot index of the first entry (axis labelling).
    max_width:
        Truncate longer schedules (with a marker) to keep output sane.

    Legend: ``E`` estimation step, ``B`` broadcast step, ``.`` idle slot
    for that class, ``|`` window boundary of that class.
    """
    n = min(len(active_levels), max_width)
    truncated = len(active_levels) > n
    lines: List[str] = []
    lines.append(
        f"slots {start}..{start + n - 1}"
        + (f" (truncated from {len(active_levels)})" if truncated else "")
    )
    for lv in levels:
        w = 1 << lv
        row: List[str] = []
        for i in range(n):
            t = start + i
            boundary = t % w == 0
            if active_levels[i] == lv:
                ch = "E" if step_kinds[i] == "est" else "B"
            else:
                ch = "."
            if boundary and i > 0:
                row.append("|")
            row.append(ch)
        lines.append(f"class {lv:>2} (w={w:>5}): " + "".join(row))
    lines.append("legend: E=estimation step, B=broadcast step, .=idle, |=window boundary")
    return "\n".join(lines)
