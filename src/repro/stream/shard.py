"""Sharded streaming runs: partition the seed population, merge statistics.

A sustained-load measurement wants many independent channel realizations
(one per seed); they share nothing, so they parallelize perfectly.  A
:class:`StreamShardSpec` pins down one shard's full configuration —
everything :func:`repro.stream.engine.stream_simulate` takes, minus
run-local machinery like checkpoints — and :func:`run_stream_shards`
fans the specs out over a process pool and merges the per-shard
:class:`~repro.stream.engine.StreamResult` objects (counters add,
quantile sketches merge exactly, reservoirs merge probabilistically).

Specs cross process boundaries by pickle, so ``factory`` must be a
module-level callable or a :func:`functools.partial` of one (the same
discipline :mod:`repro.cli` uses for its sweep workers); a lambda or
local closure will fail to pickle with a clear error before any work
starts.

Worker crashes are survivable: through :func:`repro.pool.run_all`, a
shard whose worker dies (an exception, an OOM kill, a broken pool) is
re-run under the shared :class:`repro.retrypolicy.RetryPolicy` —
completed shards are kept, only the unaccounted ones are resubmitted —
so one flaky worker costs one backoff, not the whole sharded run.
Deterministic failures still fail after exhausting retries, raising
:class:`ShardExecutionError` naming the lowest-indexed failing shard.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.channel.jamming import Jammer
from repro.errors import InvalidParameterError, ReproError
from repro.faults.plan import FaultPlan
from repro.pool import run_all
from repro.retrypolicy import RetryPolicy
from repro.sim.engine import ProtocolFactory
from repro.sim.watchdog import Watchdog
from repro.stream.arrivals import ArrivalProcess
from repro.stream.engine import StreamBudget, StreamResult, stream_simulate

__all__ = ["ShardExecutionError", "StreamShardSpec", "run_stream_shards"]


class ShardExecutionError(ReproError):
    """A worker failed while running one stream shard.

    Carries the failing shard's seed plus the worker-side traceback, so
    a crash in a many-shard run points at the one reproducible shard.
    """

    def __init__(self, seed: int, worker_traceback: str) -> None:
        super().__init__(
            f"stream shard seed {seed} failed in a worker:\n"
            f"{worker_traceback}"
        )
        self.seed = seed
        self.worker_traceback = worker_traceback


@dataclass(frozen=True)
class StreamShardSpec:
    """One shard of a sharded streaming run (a seed's full config)."""

    seed: int
    process: ArrivalProcess
    factory: ProtocolFactory
    max_jobs: Optional[int] = None
    max_slots: Optional[int] = None
    budget: Optional[StreamBudget] = None
    jammer: Optional[Jammer] = None
    faults: Optional[FaultPlan] = None
    watchdog: Optional[Watchdog] = None
    reservoir_capacity: int = 4096
    sketch_alpha: float = 0.01


def _run_shard(
    spec: StreamShardSpec,
    progress: Optional[Callable[[int, int], None]] = None,
) -> StreamResult:
    return stream_simulate(
        spec.process,
        spec.factory,
        seed=spec.seed,
        max_jobs=spec.max_jobs,
        max_slots=spec.max_slots,
        budget=spec.budget,
        jammer=spec.jammer,
        faults=spec.faults,
        watchdog=spec.watchdog,
        reservoir_capacity=spec.reservoir_capacity,
        sketch_alpha=spec.sketch_alpha,
        progress=progress,
    )


def run_stream_shards(
    specs: Sequence[StreamShardSpec],
    *,
    processes: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    retries: int = 2,
    retry_backoff: float = 0.25,
) -> Tuple[StreamResult, List[StreamResult]]:
    """Run every shard and merge the channel statistics.

    Parameters
    ----------
    specs:
        One spec per shard; seeds should be distinct (the merge does not
        check, but identical seeds measure the same realization twice).
    processes:
        Worker processes.  ``None`` picks ``min(len(specs), cpu_count)``;
        ``0`` or ``1`` runs serially in-process (deterministic, no pool
        overhead — what the tests and CI smoke use).
    progress:
        Optional ``progress(done, total)`` aggregated across all shards
        (each shard's expected work is its ``max_jobs``/``max_slots``).
        Only honored on the serial path — worker processes cannot call
        back into this one — and purely observational either way.
    retries:
        How many times crashed shards may be re-run (with the shared
        jittered exponential backoff of :class:`repro.retrypolicy.
        RetryPolicy` between rounds).  Completed shards are kept; only
        shards whose result never arrived — a worker exception, or a
        pool broken by a dying worker — are resubmitted.  Shards are
        deterministic in their spec, so a re-run merges identically.
        After exhausting retries, :class:`ShardExecutionError` names
        the lowest-indexed failing shard.  Only meaningful on the pool
        path; the serial path raises immediately (an in-process failure
        is never a lost worker).
    retry_backoff:
        First-retry delay in seconds (see
        :class:`repro.retrypolicy.RetryPolicy`).

    Returns
    -------
    (merged, per_shard):
        The merged :class:`StreamResult` plus each shard's own result in
        spec order.  Merging is order-independent for every statistic
        except the reservoir sample, which is merged in spec order so
        repeated calls agree draw-for-draw.
    """
    if not specs:
        raise InvalidParameterError("run_stream_shards needs at least one spec")
    policy = RetryPolicy(retries=retries, base_backoff=retry_backoff)
    if processes is None:
        processes = min(len(specs), os.cpu_count() or 1)
    if processes <= 1 or len(specs) == 1:
        if progress is None:
            per_shard = [_run_shard(s) for s in specs]
        else:
            expected = [
                (s.max_jobs if s.max_jobs is not None else s.max_slots) or 0
                for s in specs
            ]
            grand_total = sum(expected)
            per_shard = []
            done_before = 0
            for s, exp in zip(specs, expected):
                def shard_cb(
                    done: int, _total: int, _base: int = done_before
                ) -> None:
                    progress(_base + done, grand_total)

                per_shard.append(_run_shard(s, progress=shard_cb))
                done_before += exp
    else:
        # One shard per chunk: shards are long, so chunking buys no IPC.
        slots: List[Optional[StreamResult]] = [None] * len(specs)
        failures = run_all(
            _run_shard,
            specs,
            on_result=slots.__setitem__,
            workers=processes,
            chunksize=1,
            policy=policy,
        )
        if failures:
            raise ShardExecutionError(
                specs[failures[0].index].seed, failures[0].error
            )
        per_shard = [r for r in slots if r is not None]
    merged = per_shard[0]
    for r in per_shard[1:]:
        merged = merged.merge(r)
    return merged, per_shard
