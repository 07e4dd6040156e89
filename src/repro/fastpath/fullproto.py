"""Shared result plumbing for the full-protocol fastpath kernels.

`simulate_aligned_full` and `simulate_punctual_full` replace an entire
engine run, so unlike the per-component kernels they must report
everything a :class:`~repro.experiments.parallel.SeedDigest` carries:
per-job success, completion slots, *retirement* slots (the last slot a
job occupies the channel model, needed to reproduce the engine's
``slots_simulated`` accounting), per-window tallies and latency sums.
:class:`FullProtocolResult` is that record; :func:`digest_for` converts
it into the exact ``SeedDigest`` shape the experiment layer ships
around, and :func:`union_active_slots` reproduces the engine's
idle-gap-skipping slot count (the size of the union of the per-job
inclusive ``[release, retire]`` intervals).

:class:`JobColumns` holds what the kernels and the digest read from an
instance, per job in ``by_release`` order: a
:class:`~repro.fastpath.batched.FastpathPlan` derives it once for a
whole seed vector, and the public entry points derive it from their
``instance`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.experiments.parallel import SeedDigest
from repro.sim.instance import Instance

__all__ = [
    "FullProtocolResult",
    "JobColumns",
    "digest_for",
    "job_columns",
    "union_active_slots",
]


@dataclass(frozen=True)
class FullProtocolResult:
    """Per-job outcome of one full-protocol kernel trial.

    All arrays are in ``instance.by_release`` order.  ``completion`` is
    the slot of the successful delivery (-1 on failure); ``retire`` is
    the last slot the job was active in the engine's sense (the slot at
    whose end it would have been retired), which both paths need to
    agree on for ``slots_simulated`` to match.

    ``attempts`` is the per-job send-attempt (energy) count, when the
    kernel models it exactly — the engine-exact UNIFORM replay does;
    the statistical ALIGNED/PUNCTUAL kernels leave it ``None`` and their
    digests carry ``attempts_sum=-1`` (not tracked).
    """

    success: np.ndarray  # bool, shape (n,)
    completion: np.ndarray  # int64, shape (n,), -1 on failure
    retire: np.ndarray  # int64, shape (n,)
    slots_simulated: int
    attempts: Optional[np.ndarray] = None  # int64, shape (n,)

    @property
    def n_succeeded(self) -> int:
        return int(self.success.sum())

    @property
    def success_rate(self) -> float:
        return float(self.success.mean()) if self.success.size else 1.0


def union_active_slots(releases: np.ndarray, retires: np.ndarray) -> int:
    """Size of the union of the inclusive ``[release, retire]`` intervals.

    ``releases`` must be ascending (``by_release`` order).  This is the
    engine's ``slots_simulated``: it steps every slot in which at least
    one job is active and skips idle gaps between them.
    """
    n = len(releases)
    if n == 0:
        return 0
    hi = np.maximum.accumulate(np.maximum(retires, releases))
    # A new merged group starts where an interval begins past the
    # running maximum end.  Adjacent-but-disjoint groups count the same
    # slots either way, so strict overlap is the only merge needed.
    brk = np.flatnonzero(releases[1:] > hi[:-1]) + 1
    starts = np.concatenate(([0], brk))
    ends = np.concatenate((brk, [n]))
    return int(np.sum(hi[ends - 1] - releases[starts] + 1))


@dataclass(frozen=True, eq=False)
class JobColumns:
    """An instance's jobs as the kernels read them, in ``by_release`` order.

    ``ids`` and ``windows`` are Python ints, for the per-job loops;
    ``releases`` and ``deadlines`` are read-only int64 arrays.
    ``windows_seen`` lists the distinct window sizes in ascending order,
    ``window_of`` maps each job to its entry there and ``window_counts``
    counts the jobs of each: the digest's ``by_window`` groups.  Nothing
    here changes, so one set serves every trial of a plan.
    """

    ids: Tuple[int, ...]
    windows: Tuple[int, ...]
    releases: np.ndarray
    deadlines: np.ndarray
    windows_seen: Tuple[int, ...]
    window_of: np.ndarray  # intp, index into windows_seen
    window_counts: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ids)


def job_columns(instance: Instance) -> JobColumns:
    """The :class:`JobColumns` of ``instance``."""
    jobs = instance.by_release
    releases = np.array([j.release for j in jobs], dtype=np.int64)
    deadlines = np.array([j.deadline for j in jobs], dtype=np.int64)
    windows = deadlines - releases
    seen, window_of, counts = np.unique(
        windows, return_inverse=True, return_counts=True
    )
    for arr in (releases, deadlines, window_of):
        arr.flags.writeable = False
    return JobColumns(
        ids=tuple(j.job_id for j in jobs),
        windows=tuple(windows.tolist()),
        releases=releases,
        deadlines=deadlines,
        windows_seen=tuple(seen.tolist()),
        window_of=window_of,
        window_counts=tuple(counts.tolist()),
    )


def digest_for(
    seed: int,
    instance: Instance,
    result: FullProtocolResult,
    *,
    columns: Optional[JobColumns] = None,
) -> SeedDigest:
    """The ``SeedDigest`` of one kernel trial (engine-compatible shape).

    ``by_window`` is sorted by window size, matching
    :meth:`repro.sim.metrics.SimulationResult.success_by_window`.
    ``columns``, when given, must be ``job_columns(instance)``: a plan
    passes the one it holds instead of rebuilding it per trial.
    """
    cols = job_columns(instance) if columns is None else columns
    ok = result.success
    n_succeeded = int(np.count_nonzero(ok))
    wins = np.bincount(
        cols.window_of[ok], minlength=len(cols.windows_seen)
    ).tolist()
    latency_sum = int((result.completion[ok] - cols.releases[ok] + 1).sum())
    return SeedDigest(
        seed=seed,
        n_jobs=len(cols),
        n_succeeded=n_succeeded,
        by_window=tuple(zip(cols.windows_seen, wins, cols.window_counts)),
        slots_simulated=result.slots_simulated,
        latency_sum=latency_sum,
        attempts_sum=(
            int(result.attempts.sum()) if result.attempts is not None else -1
        ),
        watchdog_reason=None,
    )
