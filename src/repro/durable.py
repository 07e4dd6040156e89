"""The one durable-write path: atomic file replacement and JSONL appends.

Files rewritten in place (cache entries, heartbeats, the perf trajectory,
stream checkpoints) go through :func:`write_atomic`, so a reader or a
crash sees the old file or the new one, never a torn one.  Append-only
logs (the run ledger, campaign state, sweep checkpoints) go through
:func:`append_jsonl_atomic` and are read back by
:func:`read_jsonl_tolerant`.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Union

__all__ = ["append_jsonl_atomic", "read_jsonl_tolerant", "write_atomic"]


def write_atomic(
    path: Union[str, Path], data: bytes, *, fsync: bool = False
) -> None:
    """Replace ``path`` with ``data`` via a temp file and ``os.replace``.

    The temp file is unique (``mkstemp`` in the target's directory), so
    concurrent writers of one path never collide on it, and it is
    removed on any failure.  ``fsync=True`` also syncs the file before
    the rename and the directory after it, so the new contents survive
    a power loss, not only a killed process.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    if fsync:
        try:  # pragma: no cover - some platforms cannot open a directory
            dirfd = os.open(path.parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)


def append_jsonl_atomic(path: Union[str, Path], record: Dict[str, Any]) -> None:
    """Append one JSON record to ``path`` as a single atomic write.

    The durability contract shared by the run ledger, the campaign state
    file (:mod:`repro.campaign.state`) and sweep checkpoints: one record
    is one ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
    appenders interleave whole lines, never fragments — and when the
    existing file lacks a trailing newline (a torn tail from a killed
    writer), the healing newline is folded into the same write so the
    append stays atomic under concurrency.
    """
    path = Path(path)
    payload = (json.dumps(record) + "\n").encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        size = path.stat().st_size
    except OSError:
        size = 0
    if size > 0:
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                payload = b"\n" + payload
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, payload)
    finally:
        os.close(fd)


def read_jsonl_tolerant(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every parseable JSON-object line of ``path``, in file order.

    A missing file reads as empty; a torn final line (or foreign
    garbage) is skipped, never fatal — the reader half of the
    :func:`append_jsonl_atomic` contract.
    """
    records: List[Dict[str, Any]] = []
    try:
        text = Path(path).read_text()
    except OSError:
        return records
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(rec, dict):
            records.append(rec)
    return records
