"""Pluggable campaign executors: dispatch cells, never lose an outcome.

The orchestrator (:mod:`repro.campaign.run`) speaks to execution
through one narrow interface — :meth:`CellExecutor.map_unordered`
takes :class:`CellTask` objects and yields a :class:`CellResult` or
:class:`CellFailure` for *every* task, in completion order.  Two
implementations ship today:

* :class:`SerialExecutor` — in-process, deterministic order.  Used by
  tests and crash drills (a SIGKILL lands between cells, never inside a
  half-tracked pool).
* :class:`LocalPoolExecutor` — the process pool of :mod:`repro.pool`.
  A worker exception comes back as a :class:`CellFailure` (the worker
  entry point never raises); a worker dying *hard* breaks the pool, and
  every cell whose result had not yet arrived is reported as a
  ``pool-broken`` failure — the orchestrator's retry loop takes it.

The interface deliberately admits remote executors later (a cell task
is a small picklable value object; an implementation that ships tasks
to another machine only has to yield the same outcome types), which is
why the orchestrator never touches pools directly.

Failures are *values*, not exceptions: campaigns degrade cell by cell
(retry, then quarantine) instead of aborting the grid, and that only
works if every way a cell can die is representable as data.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Union

from repro.campaign.spec import CampaignCell
from repro.experiments.parallel import aggregate, run_seeds
from repro.pool import TaskFailure, map_outcomes

__all__ = [
    "CellExecutor",
    "CellFailure",
    "CellOutcome",
    "CellResult",
    "CellTask",
    "LocalPoolExecutor",
    "SerialExecutor",
    "execute_cell",
]


@dataclass(frozen=True)
class CellTask:
    """One dispatchable unit: a cell plus run-local knobs.

    Everything here is picklable (the cell carries builders, the cache
    travels as a path), so a task can cross a process — or, later, a
    machine — boundary.
    """

    key: str
    cell: CampaignCell
    cache: Optional[str] = None
    check_invariants: bool = False


@dataclass(frozen=True)
class CellResult:
    """A cell that completed: its aggregate outcome."""

    key: str
    index: int
    label: str
    summary: Dict[str, object]
    wall_seconds: float


@dataclass(frozen=True)
class CellFailure:
    """A cell that did not complete, as data.

    ``kind`` separates a worker-side exception (``"exception"``, with
    the formatted traceback in ``error``) from a pool that broke before
    the result arrived (``"pool-broken"`` — the cell may not even have
    started).
    """

    key: str
    index: int
    label: str
    error: str
    kind: str = "exception"


#: What :meth:`CellExecutor.map_unordered` yields per task.
CellOutcome = Union[CellResult, CellFailure]


def execute_cell(task: CellTask) -> CellOutcome:
    """Run one cell to completion; never raises.

    This is the worker entry point: it builds the workload, resolves
    the protocol, runs every seed through
    :func:`repro.experiments.parallel.run_seeds` (serially — campaign
    parallelism lives *across* cells), and returns the aggregate.  Any
    exception — a poison workload, a protocol bug, a watchdog-less
    hang cut by the per-cell timeout — becomes a :class:`CellFailure`
    the orchestrator can retry or quarantine.
    """
    cell = task.cell
    started = time.perf_counter()
    try:
        digests = run_seeds(
            cell.workload,
            cell.protocol,
            cell.seeds,
            faults=cell.adversary.faults(),
            watchdog=cell.watchdog(),
            check_invariants=task.check_invariants,
            processes=1,
            cache=task.cache,
            retries=0,
            fastpath=cell.fastpath,
        )
        summary = dict(aggregate(digests))
        # by_window is bulky and dict-keyed by int (not JSON-clean);
        # the per-cell record keeps the flat outcome numbers only.
        summary.pop("by_window", None)
        return CellResult(
            key=task.key,
            index=cell.index,
            label=cell.label(),
            summary=summary,
            wall_seconds=time.perf_counter() - started,
        )
    except Exception:
        return CellFailure(
            key=task.key,
            index=cell.index,
            label=cell.label(),
            error=traceback.format_exc(),
            kind="exception",
        )


class CellExecutor:
    """Executor interface: every task in, exactly one outcome out."""

    def map_unordered(
        self, tasks: Iterable[CellTask]
    ) -> Iterator[CellOutcome]:
        """Yield one :data:`CellOutcome` per task, in completion order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (default: nothing to release)."""


class SerialExecutor(CellExecutor):
    """Run cells one at a time, in order, in this process."""

    def map_unordered(
        self, tasks: Iterable[CellTask]
    ) -> Iterator[CellOutcome]:
        """Yield each task's outcome immediately after it runs."""
        for task in tasks:
            yield execute_cell(task)


class LocalPoolExecutor(CellExecutor):
    """Run cells across a local process pool.

    The pool is created per :meth:`map_unordered` call (the orchestrator
    calls once per retry round), so a pool broken by a dying worker
    never poisons the next round.
    """

    def __init__(self, workers: int = 2) -> None:
        self.workers = max(int(workers), 1)

    def map_unordered(
        self, tasks: Iterable[CellTask]
    ) -> Iterator[CellOutcome]:
        """Yield outcomes as cells finish; account for every task.

        Tasks whose outcome never arrived because the pool broke are
        yielded as ``pool-broken`` :class:`CellFailure`\\ s — a cell that
        actually finished but whose result was lost with the pool simply
        re-runs next round (cells are deterministic, and the result cache
        absorbs the recompute).
        """
        tasks = list(tasks)
        for i, outcome in map_outcomes(
            execute_cell, tasks, workers=self.workers
        ):
            if isinstance(outcome, TaskFailure):
                t = tasks[i]
                outcome = CellFailure(
                    key=t.key,
                    index=t.cell.index,
                    label=t.cell.label(),
                    error=outcome.error,
                    kind=outcome.kind,
                )
            yield outcome
