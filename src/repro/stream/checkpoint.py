"""Atomic streaming checkpoints with truncated-tail healing.

A multi-hour open-loop run must survive a SIGKILL: the streaming engine
periodically snapshots its *entire* resumable state (engine live set,
arrival-process buffer, every RNG stream, sketches, counters) and this
module makes the snapshot crash-safe:

* **Atomicity** — the snapshot goes through
  :func:`repro.durable.write_atomic`: a unique temp file in the target
  directory, fsynced, then moved into place with ``os.replace``.  A
  kill mid-write can never leave a half-written file at the checkpoint
  path.
* **Self-validation** — the file carries a magic tag, a format version,
  the payload length, and a CRC-32 of the payload.  A truncated tail
  (the classic torn-write failure on the *previous* generation of a
  file that something less careful wrote) or any bit rot is detected at
  load, not deserialized into garbage.
* **Healing** — before each write the current checkpoint is rotated to
  ``<path>.prev``.  :func:`load_checkpoint` falls back to it when the
  primary is missing or fails validation, so one bad generation costs
  one checkpoint interval of progress, not the run.

The payload is a pickle of the engine's state dict — pickling preserves
object identity, so a protocol and the RNG stream it shares with the
factory stay the *same* object after resume, which is what makes
resumed runs bit-identical (see tests/stream/test_kill_resume.py).
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Tuple

from repro.durable import write_atomic
from repro.errors import InvalidParameterError, ReproError

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointConfig",
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
]

_MAGIC = b"RSTRCKPT"
#: Bump on any incompatible change to the checkpoint state dict.
CHECKPOINT_VERSION = 1

_HEADER = struct.Struct("<8sIQI")  # magic, version, payload length, crc32


class CheckpointError(ReproError):
    """A checkpoint file is missing, truncated, corrupt, or incompatible."""


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often the streaming engine checkpoints.

    Parameters
    ----------
    path:
        Checkpoint file path.  The previous generation is rotated to
        ``<path>.prev`` before each write.
    every_slots:
        Snapshot cadence in simulated slots.  Snapshots land on
        absolute slot multiples, so an interrupted run and its resumed
        continuation checkpoint at the same slots.
    """

    path: str
    every_slots: int = 50_000

    def __post_init__(self) -> None:
        if not self.path:
            raise InvalidParameterError("checkpoint path must be non-empty")
        if self.every_slots <= 0:
            raise InvalidParameterError(
                f"every_slots must be positive, got {self.every_slots}"
            )

    @property
    def prev_path(self) -> str:
        return self.path + ".prev"


def save_checkpoint(path: str, state: Any) -> None:
    """Atomically write ``state`` to ``path``, rotating the previous file.

    Rotate first: ``path`` moves to ``path.prev``, then the new
    generation goes through :func:`repro.durable.write_atomic` with
    ``fsync=True``.  At every instant ``path`` or ``path.prev`` holds a
    CRC-valid generation, and :func:`load_checkpoint` heals from
    ``.prev`` when ``path`` is missing or torn.
    """
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(
        _MAGIC, CHECKPOINT_VERSION, len(payload), zlib.crc32(payload)
    )
    if os.path.exists(path):
        os.replace(path, path + ".prev")
    write_atomic(path, header + payload, fsync=True)


def _read_validated(path: str) -> Any:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise CheckpointError(f"checkpoint {path} is truncated (no header)")
    magic, version, length, crc = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise CheckpointError(f"{path} is not a repro stream checkpoint")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format v{version}, "
            f"this build reads v{CHECKPOINT_VERSION}"
        )
    payload = raw[_HEADER.size :]
    if len(payload) != length:
        raise CheckpointError(
            f"checkpoint {path} is truncated "
            f"({len(payload)} of {length} payload bytes)"
        )
    if zlib.crc32(payload) != crc:
        raise CheckpointError(f"checkpoint {path} failed its CRC check")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path} failed to deserialize: {exc}"
        ) from exc


def load_checkpoint(path: str, *, heal: bool = True) -> Tuple[Any, bool]:
    """Load and validate a checkpoint, healing from ``.prev`` if needed.

    Returns ``(state, healed)`` where ``healed`` is True when the
    primary file was unusable and the previous generation was loaded
    instead.  Raises :class:`CheckpointError` when no valid generation
    exists.
    """
    try:
        return _read_validated(path), False
    except CheckpointError as primary_error:
        if not heal:
            raise
        prev = path + ".prev"
        if not os.path.exists(prev):
            raise
        try:
            return _read_validated(prev), True
        except CheckpointError:
            raise primary_error from None
