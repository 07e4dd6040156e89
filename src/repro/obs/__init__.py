"""repro.obs — run telemetry: metrics, lifecycle events, spans, reports.

The observability layer for the whole stack.  One
:class:`~repro.obs.telemetry.Telemetry` object rides through
``simulate`` / ``run_seeds`` / ``Sweep`` / ``run_robustness`` as an
optional argument, collecting:

* **metrics** — :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  / :class:`Timer` in a :class:`MetricsRegistry`;
* **lifecycle events** — typed, taxonomy-named protocol events (leader
  elections, estimation convergence, anarchist releases, job fates)
  through an engine-owned :class:`EventSink`;
* **spans** — wall-clock phase timings;

and serializing everything to a JSONL artifact that ``repro obs``
summarizes.  Attaching telemetry never changes simulation results, and
leaving it off costs the engine nothing (see docs/OBSERVABILITY.md for
the guarantees and the artifact schema).
"""

from repro.obs.events import (
    EVENT_KINDS,
    Event,
    EventLog,
    EventSink,
    NullSink,
    family_of,
)
from repro.obs.expose import MetricsServer, prometheus_text
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    RunRecord,
    compare_runs,
    default_ledger_path,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.obs.progress import (
    Heartbeat,
    ProgressTracker,
    read_heartbeat,
    scan_heartbeats,
)
from repro.obs.report import render_report, render_reports, report_data
from repro.obs.sketches import QuantileSketch, ReservoirSampler
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    SpanRecord,
    Telemetry,
    TelemetryArtifact,
    read_artifact,
)

__all__ = [
    "EVENT_KINDS",
    "LEDGER_SCHEMA",
    "TELEMETRY_SCHEMA",
    "Counter",
    "Event",
    "EventLog",
    "EventSink",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "NullSink",
    "ProgressTracker",
    "QuantileSketch",
    "ReservoirSampler",
    "RunLedger",
    "RunRecord",
    "SpanRecord",
    "Telemetry",
    "TelemetryArtifact",
    "Timer",
    "compare_runs",
    "default_ledger_path",
    "family_of",
    "prometheus_text",
    "read_artifact",
    "read_heartbeat",
    "render_report",
    "render_reports",
    "report_data",
    "scan_heartbeats",
]
