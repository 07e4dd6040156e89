"""The sustained-load report: what a channel delivers under open traffic.

The closed-instance benchmarks approximate sustained load by replaying
ever-larger finite instances; the streaming engine measures it directly.
A :class:`SustainedLoadReport` collects one
:class:`~repro.stream.engine.StreamResult` per offered load ρ and
renders the operating curve:

* **throughput** — delivered jobs per channel slot at each ρ;
* **throughput ceiling** — the largest delivered throughput observed
  across the sweep (where the curve saturates: pushing ρ past it only
  grows the loss columns);
* **deadline-miss / shed / loss rates** — how the protocol degrades
  past the ceiling (graceful degradation is the point of admission
  control: under ``shed-*`` policies the misses should convert to
  explicit sheds, not latency collapse);
* **latency percentiles** (p50/p99/p999) from the per-run quantile
  sketches.

Reports serialize to JSON (the CI ``stream-smoke`` artifact) and render
as the repo's standard plain-text tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.tables import format_table
from repro.durable import write_atomic
from repro.stream.engine import StreamResult

__all__ = ["SustainedLoadReport"]


@dataclass
class SustainedLoadReport:
    """Rows of ``(offered load ρ, merged StreamResult)``, plus metadata."""

    protocol: str = ""
    title: str = "sustained load"
    rows: List[Tuple[float, StreamResult]] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def add(self, rho: float, result: StreamResult) -> None:
        self.rows.append((float(rho), result))

    @property
    def throughput_ceiling(self) -> float:
        """Highest delivered throughput across the sweep (jobs/slot)."""
        return max((r.throughput for _, r in self.rows), default=0.0)

    def ceiling_load(self) -> Optional[float]:
        """The offered load at which the ceiling was reached."""
        best = None
        best_thr = -1.0
        for rho, r in self.rows:
            if r.throughput > best_thr:
                best_thr = r.throughput
                best = rho
        return best

    def table(self) -> str:
        rows = []
        for rho, r in sorted(self.rows, key=lambda x: x[0]):
            rows.append(
                [
                    rho,
                    r.jobs_released,
                    r.throughput,
                    r.miss_rate,
                    r.jobs_shed / r.jobs_released if r.jobs_released else 0.0,
                    r.loss_rate,
                    r.latency_quantile(0.50),
                    r.latency_quantile(0.99),
                    r.latency_quantile(0.999),
                    r.peak_live,
                ]
            )
        title = self.title
        if self.protocol:
            title = f"{title} — {self.protocol}"
        body = format_table(
            [
                "rho",
                "jobs",
                "throughput",
                "miss rate",
                "shed rate",
                "loss rate",
                "p50",
                "p99",
                "p999",
                "peak live",
            ],
            rows,
            title=title,
        )
        ceiling = self.throughput_ceiling
        at = self.ceiling_load()
        tail = f"throughput ceiling: {ceiling:.4f} jobs/slot"
        if at is not None:
            tail += f" (at rho={at:g})"
        return body + "\n" + tail

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "protocol": self.protocol,
            "meta": dict(self.meta),
            "throughput_ceiling": self.throughput_ceiling,
            "ceiling_load": self.ceiling_load(),
            "rows": [
                {"rho": rho, **r.to_dict()}
                for rho, r in sorted(self.rows, key=lambda x: x[0])
            ],
        }

    def save(self, path: str) -> None:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        write_atomic(path, text.encode())
