"""Crash survival for sharded streaming runs.

A single worker dying hard used to take the whole sharded run with it
(``pool.map`` re-raises ``BrokenProcessPool`` and every completed
shard's work is lost).  These tests pin the repaired behavior: a shard
whose worker crashes once is re-run and the merged statistics match a
clean run exactly; a shard that fails deterministically still fails the
run — after exhausting retries — with an error naming its seed.
"""

import os
import time
from dataclasses import dataclass

import pytest

from repro.sim.job import Job
from repro.sim.protocolbase import ProtocolContext
from repro.stream.arrivals import PoissonProcess
from repro.stream.shard import (
    ShardExecutionError,
    StreamShardSpec,
    run_stream_shards,
)

PROCESS = PoissonProcess(rate=0.2, window_sizes=(16, 64))


def ok_factory(job: Job, rng):
    """A picklable, well-behaved protocol factory."""
    from repro.baselines.sawtooth import SawtoothBackoff

    return SawtoothBackoff(ProtocolContext.for_job(job, rng))


@dataclass(frozen=True)
class CrashOnceFactory:
    """Kills its worker process hard on the first call ever made.

    The marker file carries "already crashed" across the process
    boundary, so the retry round (fresh pool, fresh worker) succeeds.
    ``os._exit`` bypasses all exception handling — the pool sees a
    worker vanish, exactly like an OOM kill.
    """

    marker: str

    def __call__(self, job: Job, rng):
        if not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            os._exit(1)
        return ok_factory(job, rng)


@dataclass(frozen=True)
class AlwaysFailFactory:
    """Raises deterministically, in any process, on every attempt."""

    def __call__(self, job: Job, rng):
        raise RuntimeError("this shard is permanently broken")


@dataclass(frozen=True)
class SlowFailFactory:
    """Raises deterministically, but only after ``delay`` seconds."""

    delay: float

    def __call__(self, job: Job, rng):
        time.sleep(self.delay)
        raise RuntimeError(f"failed after {self.delay}s")


def _specs(n, factory_for=None):
    factory_for = factory_for or {}
    return [
        StreamShardSpec(
            seed=s,
            process=PROCESS,
            factory=factory_for.get(s, ok_factory),
            max_jobs=200,
        )
        for s in range(n)
    ]


class TestWorkerCrashRetry:
    def test_one_crashing_shard_does_not_kill_the_run(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        crashy = {1: CrashOnceFactory(marker=marker)}
        merged, per_shard = run_stream_shards(
            _specs(3, crashy), processes=3, retries=2, retry_backoff=0.0
        )
        assert os.path.exists(marker), "the crash was never exercised"
        assert len(per_shard) == 3
        # The retried run must merge identically to a never-crashed one
        # (shard 1's factory is well-behaved once the marker exists).
        clean_merged, _ = run_stream_shards(_specs(3), processes=1)
        assert merged.to_dict() == clean_merged.to_dict()

    def test_deterministic_failure_exhausts_retries(self):
        crashy = {2: AlwaysFailFactory()}
        with pytest.raises(ShardExecutionError) as excinfo:
            run_stream_shards(
                _specs(3, crashy), processes=2, retries=1, retry_backoff=0.0
            )
        assert excinfo.value.seed == 2
        assert "permanently broken" in str(excinfo.value)

    def test_serial_path_raises_immediately(self):
        # In-process failures are never lost workers: no retry rounds.
        crashy = {0: AlwaysFailFactory()}
        with pytest.raises(RuntimeError, match="permanently broken"):
            run_stream_shards(
                _specs(2, crashy), processes=1, retries=5, retry_backoff=0.0
            )

    def test_failure_names_the_lowest_shard_not_the_first_to_finish(self):
        # Shard 0 fails last, shard 1 fails at once: the error must still
        # name shard 0, as run_seeds names the lowest failing position.
        crashy = {0: SlowFailFactory(0.5), 1: SlowFailFactory(0.0)}
        with pytest.raises(ShardExecutionError) as excinfo:
            run_stream_shards(
                _specs(2, crashy), processes=2, retries=0, retry_backoff=0.0
            )
        assert excinfo.value.seed == 0
        assert "failed after 0.5s" in str(excinfo.value)
