"""Structured export of simulation results and traces.

Writers that turn a :class:`~repro.sim.metrics.SimulationResult` or a
:class:`~repro.sim.trace.TraceRecorder` into portable records (dicts →
JSON, rows → CSV) so downstream analysis can leave Python.  Pure
functions plus thin file helpers; no dependencies beyond the stdlib.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from typing import Any, Dict, List, Union

from repro.durable import write_atomic
from repro.sim.metrics import SimulationResult
from repro.sim.trace import TraceRecorder

__all__ = [
    "result_to_records",
    "trace_to_records",
    "result_summary_dict",
    "write_csv",
    "write_json",
]

PathLike = Union[str, pathlib.Path]


def result_to_records(result: SimulationResult) -> List[Dict[str, Any]]:
    """One dict per job outcome, in release order."""
    return [
        {
            "job_id": o.job.job_id,
            "release": o.job.release,
            "deadline": o.job.deadline,
            "window": o.job.window,
            "status": o.status.value,
            "succeeded": o.succeeded,
            "completion_slot": o.completion_slot,
            "latency": o.latency,
            "transmissions": o.transmissions,
        }
        for o in result.outcomes
    ]


def trace_to_records(trace: TraceRecorder) -> List[Dict[str, Any]]:
    """One dict per recorded slot."""
    return [
        {
            "slot": r.slot,
            "feedback": r.feedback.value,
            "n_transmitters": r.n_transmitters,
            "n_live": r.n_live,
            "contention": None if r.contention != r.contention else r.contention,
            "jammed": r.jammed,
            "message_type": r.message_type,
        }
        for r in trace.records
    ]


def result_summary_dict(result: SimulationResult) -> Dict[str, Any]:
    """The aggregate view as one JSON-ready dict."""
    return {
        "n_jobs": len(result),
        "n_succeeded": result.n_succeeded,
        "success_rate": result.success_rate,
        "slots_simulated": result.slots_simulated,
        "success_by_window": {
            str(w): {"succeeded": s, "total": t}
            for w, (s, t) in result.success_by_window().items()
        },
    }


def write_csv(records: List[Dict[str, Any]], path: PathLike) -> None:
    """Write homogeneous dict records as CSV (column order = first record)."""
    buf = io.StringIO()
    if records:
        writer = csv.DictWriter(buf, fieldnames=list(records[0]))
        writer.writeheader()
        writer.writerows(records)
    write_atomic(path, buf.getvalue().encode())


def write_json(payload: Any, path: PathLike) -> None:
    """Write any JSON-serializable payload, indented for humans."""
    write_atomic(path, (json.dumps(payload, indent=2) + "\n").encode())
