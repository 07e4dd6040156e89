"""The one process pool behind seeds, stream shards and campaign cells.

:func:`map_outcomes` yields one ``(index, outcome)`` per item: ``fn``'s
result, or a :class:`TaskFailure` value, so no item is ever lost.
:func:`run_all` re-runs only the failed items under the shared
:class:`~repro.retrypolicy.RetryPolicy` and returns the last round's
failures in item order.  ``workers=0`` runs in this process; otherwise
``fn`` (a module-level callable) and the items are pickled to a pool
that is never larger than the work.
"""

from __future__ import annotations

import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.retrypolicy import RetryPolicy

__all__ = ["TaskFailure", "compute_chunksize", "map_outcomes", "run_all"]

_BROKEN = "process pool broke before this item's result arrived (worker died)"


@dataclass(frozen=True)
class TaskFailure:
    """An item that produced no result, as data.

    ``kind`` is ``"exception"`` when ``fn`` raised (``error`` holds the
    worker traceback) or ``"pool-broken"`` when the pool broke before
    the item's result arrived (it may never have started).
    """

    index: int
    error: str
    kind: str = "exception"


def compute_chunksize(n_tasks: int, processes: int) -> int:
    """A chunksize that balances IPC overhead against load balance.

    One task per IPC message is pure overhead for sub-second seeds; one
    giant chunk per worker straggles.  Aim for ~4 chunks per worker,
    capped so no chunk exceeds 64 tasks.

    Always returns at least 1 — a chunk of zero tasks cannot be cut —
    for every combination of ``n_tasks`` and ``processes``, including
    ``n_tasks == 0`` (nothing to submit, but a caller that computes the
    chunksize before noticing must not blow up) and ``processes >
    n_tasks`` (more workers than work: one task per chunk).
    """
    if n_tasks <= 0 or processes <= 1 or processes >= n_tasks:
        return 1
    return max(1, min(64, -(-n_tasks // (processes * 4))))


def _attempt(fn: Callable[[Any], Any], index: int, item: Any) -> Any:
    try:
        return fn(item)
    except Exception:
        return TaskFailure(index, traceback.format_exc())


def _run_chunk(fn: Callable[[Any], Any], chunk: List[Tuple[int, Any]]) -> list:
    """Worker entry point: never raises for an item."""
    return [(index, _attempt(fn, index, item)) for index, item in chunk]


def map_outcomes(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    workers: int = 0,
    chunksize: int = 1,
) -> Iterator[Tuple[int, Any]]:
    """Yield ``(index, fn(item) or TaskFailure)`` once per item.

    With ``workers=0`` the items are pulled lazily and run here, in
    order; otherwise chunks of ``chunksize`` items go to the pool and
    outcomes arrive as chunks complete.
    """
    if workers <= 0:
        for index, item in enumerate(items):
            yield index, _attempt(fn, index, item)
        return
    indexed = list(enumerate(items))
    chunks = [
        indexed[i : i + chunksize] for i in range(0, len(indexed), chunksize)
    ]
    undelivered = set(range(len(indexed)))
    try:
        if chunks:
            with ProcessPoolExecutor(min(workers, len(chunks))) as pool:
                futures = [pool.submit(_run_chunk, fn, c) for c in chunks]
                for future in as_completed(futures):
                    for index, outcome in future.result():
                        undelivered.discard(index)
                        yield index, outcome
    except BrokenProcessPool:
        pass  # a worker died hard; the loop below accounts for the rest
    for index in sorted(undelivered):
        yield index, TaskFailure(index, _BROKEN, "pool-broken")


def run_all(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    on_result: Callable[[int, Any], None],
    workers: int = 0,
    chunksize: Optional[int] = None,
    policy: RetryPolicy = RetryPolicy(),
    on_retry: Optional[Callable[[List[TaskFailure]], None]] = None,
) -> List[TaskFailure]:
    """Run every item, re-running failed ones; return what still fails.

    ``on_result(index, result)`` sees each completed item as it
    arrives.  A retry round re-runs only the previous round's failures,
    after ``on_retry(failures)`` and the policy's backoff sleep.
    ``chunksize=None`` picks :func:`compute_chunksize` per round.
    """
    pending = list(range(len(items)))
    attempt = 0
    while True:
        size = chunksize or compute_chunksize(len(pending), workers)
        failures: List[TaskFailure] = []
        for k, outcome in map_outcomes(
            fn, [items[i] for i in pending], workers=workers, chunksize=size
        ):
            if isinstance(outcome, TaskFailure):
                failures.append(replace(outcome, index=pending[k]))
            else:
                on_result(pending[k], outcome)
        failures.sort(key=lambda f: f.index)
        if not failures or attempt >= policy.retries:
            return failures
        attempt += 1
        if on_retry is not None:
            on_retry(failures)
        policy.sleep(attempt)
        pending = [f.index for f in failures]
