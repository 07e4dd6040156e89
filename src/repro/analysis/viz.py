"""Plain-text visualizations of simulation traces.

Terminal-friendly companions to :mod:`repro.analysis.tables`:

* :func:`channel_timeline` — one character per slot bucket showing what
  the channel carried (silence / success / collision mix);
* :func:`contention_sparkline` — a unicode sparkline of C(t);
* :func:`utilization_profile` — bucketed utilization/collision table.

All operate on a :class:`~repro.sim.trace.TraceRecorder` so they compose
with any simulation run with ``trace=True``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.analysis.tables import format_table
from repro.errors import InvalidParameterError
from repro.sim.trace import TraceRecorder

__all__ = ["channel_timeline", "contention_sparkline", "utilization_profile"]

_SPARK = "▁▂▃▄▅▆▇█"


def _bucket(values: np.ndarray, width: int) -> List[np.ndarray]:
    """Split ``values`` into ``width`` (nearly) equal contiguous buckets."""
    if width < 1:
        raise InvalidParameterError(f"width must be >= 1, got {width}")
    edges = np.linspace(0, len(values), min(width, len(values)) + 1).astype(int)
    return [values[a:b] for a, b in zip(edges[:-1], edges[1:]) if b > a]


def channel_timeline(trace: TraceRecorder, width: int = 80) -> str:
    """One character per time bucket summarizing channel activity.

    Legend: ``.`` all silence, ``s`` some successes, ``S`` mostly
    successes, ``x`` some collisions, ``X`` mostly collisions, ``#``
    contested mix (successes and collisions).
    """
    if len(trace) == 0:
        return "(empty trace)"
    codes = trace.feedback_codes()
    chars = []
    for bucket in _bucket(codes, width):
        succ = float(np.mean(bucket == 1))
        coll = float(np.mean(bucket == 2))
        if succ == 0 and coll == 0:
            chars.append(".")
        elif succ > 0 and coll > 0:
            chars.append("#")
        elif succ > 0:
            chars.append("S" if succ > 0.5 else "s")
        else:
            chars.append("X" if coll > 0.5 else "x")
    legend = (
        "legend: .=silent  s/S=successes (some/most)  "
        "x/X=collisions (some/most)  #=mixed"
    )
    return "".join(chars) + "\n" + legend


def contention_sparkline(trace: TraceRecorder, width: int = 80) -> str:
    """A sparkline of per-slot contention C(t) (nan-slots ignored).

    The line is annotated with the max so the scale is readable.
    """
    cs = trace.contentions()
    cs = cs[~np.isnan(cs)]
    if cs.size == 0:
        return "(no contention data — protocols did not report last_p)"
    buckets = [float(np.mean(b)) for b in _bucket(cs, width)]
    top = max(max(buckets), 1e-9)
    line = "".join(
        _SPARK[min(int(v / top * (len(_SPARK) - 1)), len(_SPARK) - 1)]
        for v in buckets
    )
    return f"{line}\nmax C(t) bucket mean = {top:.3f}"


def utilization_profile(
    trace: TraceRecorder, buckets: int = 8
) -> str:
    """A table of utilization / collision / silence rates per time bucket."""
    if len(trace) == 0:
        return "(empty trace)"
    codes = trace.feedback_codes()
    rows = []
    edges = np.linspace(0, len(codes), min(buckets, len(codes)) + 1).astype(int)
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        part = codes[a:b]
        rows.append(
            [
                f"{trace.records[a].slot}..{trace.records[b - 1].slot}",
                float(np.mean(part == 1)),
                float(np.mean(part == 2)),
                float(np.mean(part == 0)),
            ]
        )
    return format_table(
        ["slots", "success rate", "collision rate", "silence rate"],
        rows,
        title="channel utilization profile",
    )
