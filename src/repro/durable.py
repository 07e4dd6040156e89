"""The one durable-write path: every file the package writes goes through it.

:func:`write_atomic` writes like ``open(path, "wb")`` but atomically: an
error partway or a killed process leaves the old file or the new one,
never a torn one.  Otherwise it does what ``open()`` does: a new file
gets mode ``0o666`` less the umask, a replaced file keeps its mode, a
symlink stays and its target is replaced, and a path that is not a
regular file once links are followed (a FIFO, a terminal,
``/dev/stdout`` feeding a pipe) is written in place.  It also creates
missing parent directories, and flushes ``sys.stdout`` first, so what a
command printed before writing an artifact to the pipe or terminal it
prints to comes out first.

Append-only logs (the run ledger, campaign state) go through
:func:`append_jsonl_atomic`; :func:`read_jsonl_tolerant` reads them, and
telemetry artifacts, back.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

__all__ = ["append_jsonl_atomic", "read_jsonl_tolerant", "write_atomic"]


def write_atomic(
    path: Union[str, Path],
    data: Union[bytes, Iterable[bytes]],
    *,
    fsync: bool = False,
) -> None:
    """Write ``data`` to ``path`` like ``open(path, "wb")``, atomically.

    ``data`` is bytes or an iterable of byte chunks, written in order, so
    a long artifact streams to disk without being joined in memory.  The
    chunks go to a unique temp file beside the target, which
    ``os.replace`` moves into place; on any failure, an exception raised
    while ``data`` is iterated included, the temp file is removed and the
    old file stays as it was.  ``fsync=True`` also syncs the file before
    the rename and the directory after it, so the new contents survive a
    power loss, not only a killed process.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = (data,)
    if sys.stdout is not None:
        sys.stdout.flush()
    # Stat the path as given: /dev/stdout feeding a pipe resolves to a
    # name (/proc/<pid>/fd/pipe:[N]) that does not exist.
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "wb") as fh:  # nothing to replace: write in place
            fh.writelines(data)
        return
    target = Path(os.path.realpath(path))  # replace a symlink's target
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.{os.urandom(8).hex()}.tmp")
    # "x" never opens an existing file, and creates one as open(path,
    # "wb") does: mode 0o666 less the umask.
    fh = open(tmp, "xb")
    try:
        with fh:
            if st is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(st.st_mode))
            fh.writelines(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    if fsync:
        try:  # pragma: no cover - some platforms cannot open a directory
            dirfd = os.open(target.parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)


def append_jsonl_atomic(path: Union[str, Path], record: Dict[str, Any]) -> None:
    """Append one JSON record to ``path`` as a single atomic write.

    The durability contract shared by the run ledger and the campaign
    state file (:mod:`repro.campaign.state`): one record is one
    ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
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
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
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
