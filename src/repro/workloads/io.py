"""Workload persistence: save and load instances as JSON or CSV.

Reproducible experiments want workloads on disk: a generated instance
can be archived next to its results and reloaded bit-exactly.  The JSON
form carries a small header (format version, counts) plus the job
triples; the CSV form is a plain ``job_id,release,deadline`` table for
spreadsheet-side inspection.  Both round-trip exactly through
:class:`~repro.sim.instance.Instance`.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from typing import Union

from repro.durable import write_atomic
from repro.errors import InvalidInstanceError
from repro.sim.instance import Instance
from repro.sim.job import Job

__all__ = [
    "instance_to_json",
    "instance_from_json",
    "save_instance",
    "load_instance",
    "save_instance_csv",
    "load_instance_csv",
]

PathLike = Union[str, pathlib.Path]

FORMAT = "repro-instance"
VERSION = 1


def instance_to_json(instance: Instance) -> str:
    """Serialize an instance to a JSON string."""
    payload = {
        "format": FORMAT,
        "version": VERSION,
        "n_jobs": len(instance),
        "horizon": instance.horizon,
        "jobs": [
            [j.job_id, j.release, j.deadline] for j in instance.by_release
        ],
    }
    return json.dumps(payload, indent=2)


def instance_from_json(text: str) -> Instance:
    """Parse an instance from :func:`instance_to_json` output.

    Raises
    ------
    InvalidInstanceError
        On a wrong format marker, unsupported version, or malformed jobs.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise InvalidInstanceError("missing repro-instance format marker")
    if payload.get("version") != VERSION:
        raise InvalidInstanceError(
            f"unsupported instance format version {payload.get('version')}"
        )
    jobs = payload.get("jobs")
    if not isinstance(jobs, list):
        raise InvalidInstanceError("jobs must be a list")
    out = []
    for entry in jobs:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise InvalidInstanceError(f"malformed job entry: {entry!r}")
        out.append(Job(int(entry[0]), int(entry[1]), int(entry[2])))
    inst = Instance(out)
    declared = payload.get("n_jobs")
    if declared is not None and declared != len(inst):
        raise InvalidInstanceError(
            f"header says {declared} jobs, payload has {len(inst)}"
        )
    return inst


def save_instance(instance: Instance, path: PathLike) -> None:
    """Write an instance to a JSON file."""
    write_atomic(path, (instance_to_json(instance) + "\n").encode())


def load_instance(path: PathLike) -> Instance:
    """Read an instance from a JSON file."""
    return instance_from_json(pathlib.Path(path).read_text())


def save_instance_csv(instance: Instance, path: PathLike) -> None:
    """Write an instance as a ``job_id,release,deadline`` CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["job_id", "release", "deadline"])
    for j in instance.by_release:
        writer.writerow([j.job_id, j.release, j.deadline])
    write_atomic(path, buf.getvalue().encode())


def load_instance_csv(path: PathLike) -> Instance:
    """Read an instance from :func:`save_instance_csv` output."""
    jobs = []
    with pathlib.Path(path).open() as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["job_id", "release", "deadline"]:
            raise InvalidInstanceError(
                f"unexpected CSV header: {reader.fieldnames}"
            )
        for row in reader:
            jobs.append(
                Job(int(row["job_id"]), int(row["release"]), int(row["deadline"]))
            )
    return Instance(jobs)
