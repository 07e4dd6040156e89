"""The run ledger: a persistent, append-only index of every run.

PR 3's telemetry is excellent *inside* one run; the ledger is the
cross-run memory.  A record describes one whole command, so commands
write them, not the library they call: with ``--ledger``, each of
``repro simulate``, ``sweep``, ``compare``, ``certify``, ``stream`` and
``verify`` appends exactly one :class:`RunRecord` to a JSONL ledger
file (through ``_observed`` in :mod:`repro.cli`), and a campaign with a
``ledger:`` path appends one per executed cell plus one summary.  Each
record carries:

* a short random ``run_id`` plus wall-clock start / duration;
* the configuration (a human-readable dict *and* its
  :func:`~repro.cache.stable_digest`, so "same config, different
  outcome" is one string comparison);
* ``ENGINE_VERSION`` / ``KERNEL_VERSION``, so regressions across a
  version bump are attributable;
* outcome counters (jobs, successes, sheds, watchdog trips, ...) and
  artifact paths (telemetry JSONL, reports, checkpoints).

Durability contract (the JSONL half of :mod:`repro.durable`):

* **Appends are a single atomic write.**  One record is one
  ``os.write`` on an ``O_APPEND`` descriptor, so concurrent appenders
  (campaign workers, parallel commands sharing one ledger) interleave
  whole lines, never fragments.
* **Torn tails never poison the index.**  A crash mid-write can leave
  a partial final line; :meth:`RunLedger.read` skips any line that does
  not parse, and the next append heals a missing trailing newline
  before writing its own record.
* **The clean path costs nothing.**  Nothing in the simulation or
  experiment stack imports this module; a command, or a campaign with a
  ``ledger:`` path, imports it only to write a record.

``repro runs list|show|compare`` is the CLI over this file (see
:mod:`repro.cli`); :func:`compare_runs` computes the config/metric
diff between two records.
"""

from __future__ import annotations

import os
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.durable import append_jsonl_atomic, read_jsonl_tolerant

__all__ = [
    "LEDGER_SCHEMA",
    "RunLedger",
    "RunRecord",
    "append_jsonl_atomic",
    "compare_runs",
    "default_ledger_path",
    "new_run_id",
    "read_jsonl_tolerant",
]

#: Bump when the record layout changes incompatibly.  Readers keep
#: loading older records (fields are defaulted), so a bump marks intent,
#: not a breaking purge.
LEDGER_SCHEMA = 1

#: Environment variable naming the default ledger file.
LEDGER_ENV = "REPRO_LEDGER"


def default_ledger_path() -> Path:
    """``$REPRO_LEDGER`` or ``.repro/ledger.jsonl`` in the cwd."""
    env = os.environ.get(LEDGER_ENV, "")
    if env:
        return Path(env)
    return Path(".repro") / "ledger.jsonl"


def new_run_id() -> str:
    """A short, collision-resistant run id (12 hex chars)."""
    return os.urandom(6).hex()


@dataclass
class RunRecord:
    """One ledger line: who ran what, how long, and how it went.

    ``config`` is the human-readable configuration summary;
    ``config_digest`` is its stable content address (or, when the
    caller has a richer key — e.g. the streaming engine's resume key —
    the digest of that).  ``counters`` holds flat outcome numbers;
    ``artifacts`` lists paths this run wrote (telemetry, reports,
    checkpoints) so ``repro runs show`` can point back at them.  Inside
    :meth:`RunLedger.track` the running code fills in its own record.
    """

    run_id: str
    kind: str
    started: float
    wall_seconds: float
    status: str = "ok"
    config: Dict[str, Any] = field(default_factory=dict)
    config_digest: str = ""
    engine_version: Optional[int] = None
    kernel_version: Optional[int] = None
    counters: Dict[str, Any] = field(default_factory=dict)
    watchdog_trips: int = 0
    artifacts: List[str] = field(default_factory=list)
    context: Dict[str, Any] = field(default_factory=dict)
    hostname: str = ""
    pid: int = 0

    def as_record(self) -> Dict[str, Any]:
        return {
            "type": "run",
            "schema": LEDGER_SCHEMA,
            "run_id": self.run_id,
            "kind": self.kind,
            "started": self.started,
            "wall_seconds": self.wall_seconds,
            "status": self.status,
            "config": self.config,
            "config_digest": self.config_digest,
            "engine_version": self.engine_version,
            "kernel_version": self.kernel_version,
            "counters": self.counters,
            "watchdog_trips": self.watchdog_trips,
            "artifacts": list(self.artifacts),
            "context": self.context,
            "hostname": self.hostname,
            "pid": self.pid,
        }

    @classmethod
    def from_record(cls, rec: Dict[str, Any]) -> "RunRecord":
        return cls(
            run_id=str(rec.get("run_id", "")),
            kind=str(rec.get("kind", "?")),
            started=float(rec.get("started", 0.0)),
            wall_seconds=float(rec.get("wall_seconds", 0.0)),
            status=str(rec.get("status", "ok")),
            config=dict(rec.get("config") or {}),
            config_digest=str(rec.get("config_digest", "")),
            engine_version=rec.get("engine_version"),
            kernel_version=rec.get("kernel_version"),
            counters=dict(rec.get("counters") or {}),
            watchdog_trips=int(rec.get("watchdog_trips", 0)),
            artifacts=list(rec.get("artifacts") or []),
            context=dict(rec.get("context") or {}),
            hostname=str(rec.get("hostname", "")),
            pid=int(rec.get("pid", 0)),
        )

    def artifact(self, path: Union[str, Path]) -> None:
        """Register one artifact path (duplicates collapsed)."""
        s = str(path)
        if s and s not in self.artifacts:
            self.artifacts.append(s)

    def digest(self, obj: Any) -> None:
        """Set ``config_digest`` to ``stable_digest(obj)``.

        Left empty when ``obj`` cannot be digested: the record is still
        written, only without its content address.
        """
        from repro.cache import stable_digest

        try:
            self.config_digest = stable_digest(obj)
        except Exception:
            self.config_digest = ""


class RunLedger:
    """An append-only JSONL index of runs (see the module docstring)."""

    def __init__(self, path: Union[str, Path, None] = None) -> None:
        self.path = Path(path) if path is not None else default_ledger_path()

    # -- writing -------------------------------------------------------------

    def append(self, record: RunRecord) -> RunRecord:
        """Append one record as a single atomic write; returns it.

        The record gets a fresh ``run_id`` / hostname / pid when the
        caller left them blank.  If the existing file lacks a trailing
        newline (a torn tail from a killed writer), the healing newline
        is folded into the same ``os.write`` so the append stays atomic
        under concurrency.
        """
        if not record.run_id:
            record.run_id = new_run_id()
        if not record.hostname:
            record.hostname = socket.gethostname()
        if not record.pid:
            record.pid = os.getpid()
        append_jsonl_atomic(self.path, record.as_record())
        return record

    @contextmanager
    def track(
        self,
        kind: str,
        *,
        config: Optional[Dict[str, Any]] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> Iterator[RunRecord]:
        """Time a run and append its record on exit.

        The yielded record comes stamped with ``ENGINE_VERSION``; the run
        fills in counters, artifacts, versions and its ``status`` as it
        progresses.  An exception flips the status to ``"failed"`` (the
        exception propagates); the record is appended either way, so
        crashed runs stay visible in ``repro runs list``.
        """
        from repro.sim.engine import ENGINE_VERSION

        record = RunRecord(
            run_id=new_run_id(),
            kind=kind,
            started=time.time(),
            wall_seconds=0.0,
            config=dict(config or {}),
            engine_version=ENGINE_VERSION,
            context=dict(context or {}),
        )
        t0 = time.perf_counter()
        try:
            yield record
        except BaseException:
            record.status = "failed"
            raise
        finally:
            record.wall_seconds = time.perf_counter() - t0
            self.append(record)

    # -- reading -------------------------------------------------------------

    def read(self) -> List[RunRecord]:
        """Every parseable record, in file order (torn tail skipped)."""
        return [
            RunRecord.from_record(rec)
            for rec in read_jsonl_tolerant(self.path)
            if rec.get("type") == "run"
        ]

    def find(self, run_id: str) -> RunRecord:
        """The record whose id equals or uniquely starts with ``run_id``."""
        records = self.read()
        exact = [r for r in records if r.run_id == run_id]
        if exact:
            return exact[-1]
        prefixed = [r for r in records if r.run_id.startswith(run_id)]
        if len(prefixed) == 1:
            return prefixed[0]
        if not prefixed:
            raise KeyError(f"no ledger entry matches run id {run_id!r}")
        raise KeyError(
            f"run id {run_id!r} is ambiguous: matches "
            f"{[r.run_id for r in prefixed]}"
        )

    def __len__(self) -> int:
        return len(self.read())


# -- comparing two runs ------------------------------------------------------


def _flat_numbers(counters: Dict[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, value in counters.items():
        if isinstance(value, bool):
            out[key] = float(value)
        elif isinstance(value, (int, float)):
            out[key] = float(value)
    return out


def compare_runs(a: RunRecord, b: RunRecord) -> Dict[str, Any]:
    """A structured diff of two ledger entries.

    Returns a dict with:

    * ``same_config`` — whether the config digests match;
    * ``config`` — ``key -> [a, b]`` for keys whose values differ
      (missing keys show as ``None``);
    * ``versions`` — engine/kernel version pairs when they differ;
    * ``counters`` — ``key -> {a, b, delta, ratio}`` for every numeric
      counter present in either record;
    * ``wall_seconds`` — ``{a, b, delta, ratio}``.
    """
    config_diff: Dict[str, List[Any]] = {}
    for key in sorted(set(a.config) | set(b.config)):
        va, vb = a.config.get(key), b.config.get(key)
        if va != vb:
            config_diff[key] = [va, vb]
    versions: Dict[str, List[Any]] = {}
    if a.engine_version != b.engine_version:
        versions["engine_version"] = [a.engine_version, b.engine_version]
    if a.kernel_version != b.kernel_version:
        versions["kernel_version"] = [a.kernel_version, b.kernel_version]
    na, nb = _flat_numbers(a.counters), _flat_numbers(b.counters)
    counter_diff: Dict[str, Dict[str, Optional[float]]] = {}
    for key in sorted(set(na) | set(nb)):
        va2, vb2 = na.get(key), nb.get(key)
        entry: Dict[str, Optional[float]] = {"a": va2, "b": vb2}
        if va2 is not None and vb2 is not None:
            entry["delta"] = vb2 - va2
            entry["ratio"] = vb2 / va2 if va2 else None
        counter_diff[key] = entry
    wall: Dict[str, Optional[float]] = {
        "a": a.wall_seconds,
        "b": b.wall_seconds,
        "delta": b.wall_seconds - a.wall_seconds,
        "ratio": (
            b.wall_seconds / a.wall_seconds if a.wall_seconds else None
        ),
    }
    return {
        "a": a.run_id,
        "b": b.run_id,
        "kinds": [a.kind, b.kind],
        "same_config": bool(
            a.config_digest and a.config_digest == b.config_digest
        ),
        "config": config_diff,
        "versions": versions,
        "counters": counter_diff,
        "wall_seconds": wall,
    }


def summarize_records(
    records: Sequence[RunRecord],
) -> List[List[Any]]:
    """Table rows for ``repro runs list`` (newest last)."""
    rows: List[List[Any]] = []
    for r in records:
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(r.started))
        headline = ""
        for key in (
            "success_rate",
            "jobs",
            "points",
            "cells",
            "jobs_succeeded",
            "released",
            "checks",
        ):
            if key in r.counters:
                headline = f"{key}={r.counters[key]}"
                break
        rows.append(
            [
                r.run_id,
                r.kind,
                when,
                round(r.wall_seconds, 3),
                r.status,
                r.config_digest[:12],
                headline,
            ]
        )
    return rows
