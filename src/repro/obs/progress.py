"""Live progress tracking: rate / ETA estimation and heartbeat files.

A long run (a 10k-seed batch, a million-job stream, a nightly
certification) is a black box between its first and last line of
output.  :class:`ProgressTracker` turns the existing
``progress(done, total)`` callbacks of the experiment layer into a live
signal:

* **rate** — an exponentially weighted average of recent completion
  rate (per second), falling back to the overall average until enough
  updates arrive;
* **ETA** — remaining work over the current rate, ``None`` when the
  total is unknown or the rate is still zero;
* **heartbeats** — an attached :class:`Heartbeat` serializes the
  tracker's snapshot to a small JSON file at a throttled cadence,
  through the atomic writer of :mod:`repro.durable`, so ``repro top``
  can tail in-flight runs without ever reading a half-written file.

The tracker is itself callable with the ``(done, total)`` signature, so
it drops straight into ``run_seeds(progress=...)``,
``Sweep(progress=...)``, ``stream_simulate(progress=...)``, and the
``repro certify`` probe hook.  Everything here is observational: no
randomness, no branches any protocol can see.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.durable import write_atomic

__all__ = [
    "Heartbeat",
    "ProgressTracker",
    "read_heartbeat",
    "scan_heartbeats",
]

#: A heartbeat older than this many seconds is reported as stale by
#: ``repro top`` (the writer likely finished or died).
STALE_AFTER_SECONDS = 30.0


class ProgressTracker:
    """Rate/ETA estimation over ``(done, total)`` progress updates.

    Parameters
    ----------
    total:
        Expected number of work units, when known up front.  Updates
        may override it (the experiment callbacks pass their own).
    label:
        Free-form name recorded in every snapshot (the CLI uses the
        command line).
    heartbeat:
        Optional :class:`Heartbeat`; every update offers it a snapshot
        (the heartbeat throttles actual writes).
    smoothing:
        EWMA factor in (0, 1] for the recent-rate estimate; higher
        tracks bursts faster, lower is steadier.
    """

    def __init__(
        self,
        total: Optional[int] = None,
        *,
        label: str = "run",
        heartbeat: Optional["Heartbeat"] = None,
        smoothing: float = 0.3,
    ) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self.label = label
        self.total = total
        self.heartbeat = heartbeat
        self.smoothing = smoothing
        self.done = 0
        self.started = time.time()
        self._t0 = time.perf_counter()
        self._last_t = self._t0
        self._last_done = 0
        self._ewma_rate: Optional[float] = None
        self.context: Dict[str, Any] = {}

    # -- updating ------------------------------------------------------------

    def __call__(self, done: int, total: Optional[int] = None) -> None:
        self.update(done, total)

    def update(self, done: int, total: Optional[int] = None) -> None:
        """Record that ``done`` units are complete (monotonic or not)."""
        now = time.perf_counter()
        if total is not None:
            self.total = total
        delta_done = done - self._last_done
        delta_t = now - self._last_t
        if delta_done > 0 and delta_t > 0:
            inst = delta_done / delta_t
            if self._ewma_rate is None:
                self._ewma_rate = inst
            else:
                a = self.smoothing
                self._ewma_rate = a * inst + (1 - a) * self._ewma_rate
            self._last_t = now
            self._last_done = done
        self.done = done
        if self.heartbeat is not None:
            self.heartbeat.offer(self.snapshot())

    def add(self, n: int = 1) -> None:
        """Increment completed work by ``n`` (counter-style callers)."""
        self.update(self.done + n)

    # -- reading -------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    @property
    def rate(self) -> float:
        """Completions per second (EWMA; overall average as fallback)."""
        if self._ewma_rate is not None:
            return self._ewma_rate
        elapsed = self.elapsed
        return self.done / elapsed if elapsed > 0 and self.done else 0.0

    @property
    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to completion, ``None`` when unknowable."""
        if self.total is None or self.total <= 0:
            return None
        rate = self.rate
        if rate <= 0:
            return None
        return max(self.total - self.done, 0) / rate

    @property
    def fraction(self) -> Optional[float]:
        if self.total is None or self.total <= 0:
            return None
        return min(self.done / self.total, 1.0)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable view of the current state."""
        eta = self.eta_seconds
        frac = self.fraction
        snap: Dict[str, Any] = {
            "label": self.label,
            "done": self.done,
            "total": self.total,
            "fraction": None if frac is None else round(frac, 6),
            "rate_per_s": round(self.rate, 6),
            "eta_s": None if eta is None else round(eta, 3),
            "elapsed_s": round(self.elapsed, 3),
            "started": self.started,
            "updated": time.time(),
            "pid": os.getpid(),
        }
        if self.context:
            snap["context"] = dict(self.context)
        return snap

    def gauges(self) -> Dict[str, float]:
        """The snapshot's progress numbers as ``progress.*`` gauges."""
        snap = self.snapshot()
        out = {"progress.done": float(snap["done"])}
        for key in ("fraction", "rate_per_s", "eta_s"):
            if snap.get(key) is not None:
                out[f"progress.{key}"] = float(snap[key])
        return out

    def finish(self, status: str = "done") -> None:
        """Force a final heartbeat write with a terminal status."""
        if self.heartbeat is not None:
            snap = self.snapshot()
            snap["status"] = status
            self.heartbeat.write(snap)


class Heartbeat:
    """A throttled, atomically replaced JSON snapshot file.

    ``offer`` drops snapshots arriving within ``every_seconds`` of the
    last write (the hot loops call it per completion/slot block; disk
    traffic must not scale with them).  ``write`` always writes, through
    :func:`repro.durable.write_atomic`, so readers see either the
    previous or the new snapshot, never a torn one, and two processes
    sharing one heartbeat path never collide on a temp file.
    """

    def __init__(
        self, path: Union[str, Path], every_seconds: float = 1.0
    ) -> None:
        if every_seconds < 0:
            raise ValueError(
                f"every_seconds must be >= 0, got {every_seconds}"
            )
        self.path = Path(path)
        self.every_seconds = every_seconds
        self._last_write = 0.0
        self.writes = 0

    def offer(self, snapshot: Dict[str, Any]) -> bool:
        """Write if the throttle window has passed; returns whether."""
        now = time.perf_counter()
        if self.writes and now - self._last_write < self.every_seconds:
            return False
        self.write(snapshot)
        return True

    def write(self, snapshot: Dict[str, Any]) -> None:
        write_atomic(self.path, (json.dumps(snapshot) + "\n").encode())
        self._last_write = time.perf_counter()
        self.writes += 1


def read_heartbeat(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """Load one heartbeat snapshot; ``None`` when missing/corrupt."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict):
        return None
    data["path"] = str(path)
    updated = data.get("updated")
    if isinstance(updated, (int, float)):
        data["age_s"] = round(max(time.time() - updated, 0.0), 3)
        data["stale"] = (
            data.get("status") is None
            and data["age_s"] > STALE_AFTER_SECONDS
        )
    return data


def scan_heartbeats(
    paths: Union[str, Path, List[Union[str, Path]]],
) -> List[Dict[str, Any]]:
    """Heartbeat snapshots under the given files/directories.

    Directories are scanned (non-recursively) for ``*.heartbeat.json``;
    explicit files are read as given.  Unreadable entries are skipped.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    snaps: List[Dict[str, Any]] = []
    for p in paths:
        p = Path(p)
        candidates = (
            sorted(p.glob("*.heartbeat.json")) if p.is_dir() else [p]
        )
        for c in candidates:
            snap = read_heartbeat(c)
            if snap is not None:
                snaps.append(snap)
    snaps.sort(key=lambda s: s.get("updated") or 0.0)
    return snaps
