"""The per-run telemetry bundle and its JSONL artifact format.

A :class:`Telemetry` object travels through the stack as one optional
argument: :func:`repro.sim.engine.simulate` and
:func:`repro.stream.engine.stream_simulate` accept ``telemetry=`` and
feed it slot statistics, lifecycle events, and a per-run span;
:func:`repro.experiments.parallel.run_seeds`,
:class:`repro.experiments.sweep.Sweep`, and
:func:`repro.experiments.robustness.run_robustness` add scheduling-level
telemetry (cache hits/misses, retries, per-phase spans).  One object may
observe many runs — counters accumulate.

Nothing here is consulted by the engine unless a telemetry object is
attached, and attaching one never changes simulation *results*:
telemetry draws no randomness and takes no branches that protocols can
observe, so outcomes stay bit-identical to an un-instrumented run.

Artifact format (JSONL)
-----------------------
One JSON object per line, discriminated by ``type``:

* ``manifest`` — first line: schema version, label, creation time,
  free-form ``context`` (the CLI records its command line here);
* ``metric`` — one per registered metric (``metric`` is ``counter`` /
  ``gauge`` / ``histogram`` / ``timer``; histograms serialize count,
  nan-aware mean/max, and percentiles, never raw samples);
* ``span`` — one per recorded span (name, start offset, duration);
* ``event`` — one per lifecycle event, in emission order;
* ``summary`` — last line: totals plus per-kind event counts, so a
  reader can sanity-check truncation (a killed run is detectable by a
  missing summary line).

:func:`read_artifact` loads one artifact back into a
:class:`TelemetryArtifact`; ``repro obs`` renders any number of them
(see :mod:`repro.obs.report`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.durable import read_jsonl_tolerant, write_atomic
from repro.obs.events import EventLog
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "TELEMETRY_SCHEMA",
    "SpanRecord",
    "Telemetry",
    "TelemetryArtifact",
    "read_artifact",
]

#: Bump when the JSONL record layout changes incompatibly.
TELEMETRY_SCHEMA = 1


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One timed phase: name, start offset (s since telemetry start),
    and duration in seconds."""

    name: str
    start: float
    seconds: float

    def as_record(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
        }


@dataclass(slots=True)
class _RunStats:
    """Per-run slot and job accounting, kept as plain ints for speed."""

    total: int = 0
    silence: int = 0
    success: int = 0
    collision: int = 0
    jammed: int = 0
    transmissions: int = 0
    max_live: int = 0
    jobs: int = 0
    succeeded: int = 0
    gave_up: int = 0
    energy: int = 0
    energy_jammed: int = 0
    latencies: List[int] = field(default_factory=list)


class Telemetry:
    """Metrics + events + spans for one or more simulation runs.

    Parameters
    ----------
    label:
        Free-form run label recorded in the manifest.
    context:
        Arbitrary JSON-serializable manifest payload (the CLI stores the
        command line, workload, and protocol here).

    Attributes
    ----------
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry`.
    events:
        The buffering :class:`~repro.obs.events.EventLog` protocols and
        the engine emit into.
    spans:
        Completed :class:`SpanRecord` phases, in completion order.
    """

    def __init__(
        self, label: str = "run", context: Optional[Dict[str, Any]] = None
    ) -> None:
        self.label = label
        self.context: Dict[str, Any] = dict(context or {})
        self.metrics = MetricsRegistry()
        self.events = EventLog()
        self.spans: List[SpanRecord] = []
        self.created = time.time()
        self._t0 = time.perf_counter()
        self._run = _RunStats()
        self._contention = Histogram("contention")
        self._run_started_at = 0.0

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one phase; records a span and updates the named timer."""
        start = time.perf_counter()
        try:
            yield
        finally:
            now = time.perf_counter()
            self.spans.append(
                SpanRecord(name, start - self._t0, now - start)
            )
            self.metrics.timer(f"time.{name}").add(now - start)

    def add_span(self, name: str, seconds: float) -> None:
        """Record an externally timed phase (engine-internal use)."""
        now = time.perf_counter()
        self.spans.append(
            SpanRecord(name, now - seconds - self._t0, seconds)
        )
        self.metrics.timer(f"time.{name}").add(seconds)

    # -- engine hooks --------------------------------------------------------
    #
    # The engine calls these four methods (and nothing else).  They are
    # deliberately free of any engine imports so repro.obs stays a leaf
    # package the whole stack can depend on.

    def on_run_start(
        self,
        *,
        seed: int,
        n_jobs: int,
        horizon: int,
        jammer: Optional[Any] = None,
        faults: Optional[Any] = None,
    ) -> None:
        """One run (``simulate()`` or ``stream_simulate()``) is starting."""
        self._run_started_at = time.perf_counter()
        self.metrics.counter("runs.total").inc()
        self.events.emit(
            "run.started", -1, -1, seed=seed, n_jobs=n_jobs, horizon=horizon
        )
        if jammer is not None:
            self.metrics.counter("runs.jammed").inc()
        if faults is not None:
            self.metrics.counter("faults.runs_with_plan").inc()
            describe = getattr(faults, "describe", None)
            self.events.emit(
                "fault.plan_bound",
                -1,
                -1,
                plan=describe() if callable(describe) else repr(faults),
            )

    def record_slot(
        self, n_tx: int, jammed: bool, n_live: int, contention: float
    ) -> None:
        """One simulated slot's channel statistics (engine hot loop).

        ``contention`` is the summed live transmit probability, NaN when
        no live protocol reported one this slot.
        """
        s = self._run
        s.total += 1
        s.transmissions += n_tx
        if n_live > s.max_live:
            s.max_live = n_live
        if jammed:
            s.jammed += 1
            s.collision += 1
        elif n_tx == 0:
            s.silence += 1
        elif n_tx == 1:
            s.success += 1
        else:
            s.collision += 1
        if contention == contention:  # nan-free fast check
            self._contention.values.append(contention)

    def on_job_end(
        self, job: Any, status: Any, slot: int, transmissions: int, jammed: int
    ) -> None:
        """One job retired (engine hook): its lifecycle event and energy.

        ``status`` is the job's :class:`~repro.sim.job.JobStatus` and
        ``slot`` its delivery slot (-1 unless it succeeded).
        """
        s = self._run
        s.jobs += 1
        s.energy += transmissions
        s.energy_jammed += jammed
        name = status.name
        if name == "SUCCEEDED":
            latency = slot - job.release + 1
            s.succeeded += 1
            s.latencies.append(latency)
            self.events.emit(
                "job.success",
                slot,
                job.job_id,
                latency=latency,
                transmissions=transmissions,
            )
        elif name == "GAVE_UP":
            s.gave_up += 1
            self.events.emit("job.gave_up", -1, job.job_id)
        else:
            self.events.emit("job.deadline_miss", job.deadline, job.job_id)

    def on_run_end(self, unstarted: int = 0) -> None:
        """One run finished; fold its slot and job stats in.

        ``unstarted`` counts the run's jobs that never reached the
        engine (cut by the horizon, or still queued when a watchdog
        fired): deadline misses that spent no energy.  A stream's shed
        jobs are not among the ``jobs.*`` counters.
        """
        m = self.metrics
        s = self._run
        m.counter("engine.slots").inc(s.total)
        m.counter("channel.silence").inc(s.silence)
        m.counter("channel.success").inc(s.success)
        m.counter("channel.collision").inc(s.collision)
        m.counter("channel.jammed").inc(s.jammed)
        m.counter("engine.transmissions").inc(s.transmissions)
        m.gauge("engine.max_live").max(s.max_live)
        self._run = _RunStats()

        hist = m.histogram("contention")
        if self._contention.values:
            hist.values.extend(self._contention.values)
            self._contention = Histogram("contention")

        n_all = s.jobs + unstarted
        m.counter("jobs.total").inc(n_all)
        m.counter("jobs.succeeded").inc(s.succeeded)
        m.counter("jobs.gave_up").inc(s.gave_up)
        m.counter("jobs.deadline_missed").inc(n_all - s.succeeded - s.gave_up)
        m.histogram("latency").values.extend(s.latencies)
        m.counter("jobs.energy").inc(s.energy)
        m.counter("jobs.energy_jammed").inc(s.energy_jammed)
        seconds = time.perf_counter() - self._run_started_at
        self.add_span("simulate", seconds)
        self.events.emit(
            "run.finished",
            -1,
            -1,
            slots=s.total,
            succeeded=s.succeeded,
            jobs=n_all,
        )

    # -- cache / scheduler hooks --------------------------------------------

    def record_cache(self, hits: int, misses: int, puts: int) -> None:
        """Fold one batch's cache activity in (deltas, not totals)."""
        if hits:
            self.metrics.counter("cache.hits").inc(hits)
        if misses:
            self.metrics.counter("cache.misses").inc(misses)
        if puts:
            self.metrics.counter("cache.puts").inc(puts)

    # -- serialization -------------------------------------------------------

    def manifest(self) -> Dict[str, Any]:
        return {
            "type": "manifest",
            "schema": TELEMETRY_SCHEMA,
            "label": self.label,
            "created": self.created,
            "context": self.context,
        }

    def summary(self) -> Dict[str, Any]:
        return {
            "type": "summary",
            "events": len(self.events),
            "metrics": len(self.metrics),
            "spans": len(self.spans),
            "event_counts": dict(sorted(self.events.counts.items())),
        }

    def as_records(self) -> List[Dict[str, Any]]:
        """Every JSONL line of the artifact, in order."""
        records: List[Dict[str, Any]] = [self.manifest()]
        records.extend(self.metrics.as_records())
        records.extend(s.as_record() for s in self.spans)
        records.extend(self.events.as_records())
        records.append(self.summary())
        return records

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Serialize the full artifact atomically; returns the path."""
        records = self.as_records()
        write_atomic(path, ((json.dumps(r) + "\n").encode() for r in records))
        return Path(path)


@dataclass
class TelemetryArtifact:
    """One telemetry artifact loaded back from JSONL.

    Attributes mirror the line types; ``summary`` is ``None`` when the
    artifact was truncated (writer died before the final line).
    """

    path: str
    manifest: Dict[str, Any] = field(default_factory=dict)
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    summary: Optional[Dict[str, Any]] = None

    def metric(self, name: str) -> Optional[Dict[str, Any]]:
        """The metric record with this name, or None."""
        for m in self.metrics:
            if m.get("name") == name:
                return m
        return None

    def counter_value(self, name: str, default: int = 0) -> int:
        m = self.metric(name)
        return int(m["value"]) if m and m.get("metric") == "counter" else default

    def event_counts(self) -> Dict[str, int]:
        """``kind -> count`` (from the summary line when present)."""
        if self.summary and "event_counts" in self.summary:
            return dict(self.summary["event_counts"])
        counts: Dict[str, int] = {}
        for e in self.events:
            counts[e["kind"]] = counts.get(e["kind"], 0) + 1
        return counts


def read_artifact(path: Union[str, Path]) -> TelemetryArtifact:
    """Load one JSONL artifact; a torn or foreign line is skipped."""
    if not Path(path).is_file():
        raise FileNotFoundError(f"no telemetry artifact at {path}")
    art = TelemetryArtifact(path=str(path))
    for rec in read_jsonl_tolerant(path):
        kind = rec.get("type")
        if kind == "manifest":
            art.manifest = rec
        elif kind == "metric":
            art.metrics.append(rec)
        elif kind == "span":
            art.spans.append(rec)
        elif kind == "event":
            art.events.append(rec)
        elif kind == "summary":
            art.summary = rec
    return art
