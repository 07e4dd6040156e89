"""The one process pool: every item gets exactly one outcome.

Worker functions and builders must pickle, so they live at module
scope.  Tests that need a worker to die use ``os._exit``, which skips
all exception handling, exactly like an OOM kill.
"""

import os
import time
from dataclasses import dataclass

import pytest

import repro.pool as pool_mod
from repro.core.uniform import uniform_factory
from repro.experiments import SeedExecutionError, run_seeds
from repro.obs.telemetry import Telemetry
from repro.pool import TaskFailure, map_outcomes, run_all
from repro.retrypolicy import RetryPolicy
from repro.workloads import batch_instance


def square(x):
    return x * x


def fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd item {x}")
    return x * x


def exit_on_two(x):
    if x == 2:
        os._exit(1)
    return x * x


def fail_slowly_on_zero(x):
    """Item 0 fails last, item 1 fails first, item 2 succeeds."""
    if x == 0:
        time.sleep(0.5)
    if x < 2:
        raise RuntimeError(f"item {x} failed")
    return x


def build_sparse():
    return batch_instance(8, window=1024)


def protocol(instance):
    return uniform_factory()


@dataclass(frozen=True)
class CrashOnceBuilder:
    """Builds ``build_sparse()``, but the first call ever exits hard.

    The marker file carries "already crashed" across processes, so the
    retry round (a fresh pool) succeeds.  ``O_EXCL`` makes exactly one
    caller crash even when two workers race for the first call.
    """

    marker: str

    def __call__(self):
        try:
            fd = os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return build_sparse()
        os.close(fd)
        os._exit(1)


def _outcomes(**kw):
    return dict(map_outcomes(**kw))


class TestMapOutcomes:
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("chunksize", [1, 3])
    def test_one_outcome_per_item(self, workers, chunksize):
        outcomes = list(
            map_outcomes(
                square, range(7), workers=workers, chunksize=chunksize
            )
        )
        assert sorted(i for i, _ in outcomes) == list(range(7))
        assert dict(outcomes) == {i: i * i for i in range(7)}

    def test_inline_pulls_items_lazily(self):
        pulled = []

        def feed():
            for x in range(3):
                pulled.append(x)
                yield x

        it = map_outcomes(square, feed())
        assert next(it) == (0, 0)
        assert pulled == [0], "inline path drained the items eagerly"

    @pytest.mark.parametrize("workers", [0, 2])
    def test_exception_becomes_a_failure_value(self, workers):
        outcomes = _outcomes(
            fn=fail_on_odd, items=range(4), workers=workers, chunksize=3
        )
        assert outcomes[0] == 0 and outcomes[2] == 4
        for i in (1, 3):
            failure = outcomes[i]
            assert isinstance(failure, TaskFailure)
            assert failure.index == i and failure.kind == "exception"
            assert "Traceback" in failure.error
            assert f"ValueError: odd item {i}" in failure.error

    def test_hard_worker_death_is_pool_broken(self):
        outcomes = _outcomes(fn=exit_on_two, items=range(6), workers=2)
        assert sorted(outcomes) == list(range(6))
        failures = [o for o in outcomes.values() if isinstance(o, TaskFailure)]
        assert outcomes[2] in failures
        assert all(f.kind == "pool-broken" for f in failures)
        assert all("pool broke" in f.error for f in failures)
        for i, o in outcomes.items():
            assert o in failures or o == i * i

    def test_pool_never_larger_than_the_work(self, monkeypatch):
        seen = []

        class Recording(pool_mod.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", Recording)
        list(map_outcomes(square, range(3), workers=8))
        list(map_outcomes(square, range(6), workers=8, chunksize=3))
        list(map_outcomes(square, [], workers=8))  # no work, no pool
        # run_seeds used to fork its full pool for a single seed
        run_seeds(build_sparse, protocol, seeds=[0], processes=8)
        assert seen == [3, 2, 1]


class TestRunAll:
    def test_reruns_only_the_failed_items(self):
        calls = []
        flaky = {1, 3}

        def fn(x):
            calls.append(x)
            if x in flaky:
                flaky.discard(x)
                raise RuntimeError("transient")
            return x * x

        results = {}
        retried = []
        failures = run_all(
            fn,
            list(range(5)),
            on_result=results.__setitem__,
            policy=RetryPolicy(retries=2, base_backoff=0.0),
            on_retry=lambda failed: retried.append(
                [f.index for f in failed]
            ),
        )
        assert failures == []
        assert results == {i: i * i for i in range(5)}
        assert calls == [0, 1, 2, 3, 4, 1, 3]
        assert retried == [[1, 3]]

    def test_sleeps_only_between_rounds(self, monkeypatch):
        slept = []
        monkeypatch.setattr(
            RetryPolicy, "sleep", lambda self, attempt: slept.append(attempt)
        )
        policy = RetryPolicy(retries=3)
        run_all(square, [1, 2], on_result=lambda i, r: None, policy=policy)
        assert slept == []  # nothing failed: no backoff at all
        failures = run_all(
            fail_on_odd, [1, 2], on_result=lambda i, r: None, policy=policy
        )
        # four rounds, three sleeps: none after the last round
        assert slept == [1, 2, 3]
        assert [(f.index, f.kind) for f in failures] == [(0, "exception")]

    def test_failures_in_item_order_not_completion_order(self):
        results = {}
        failures = run_all(
            fail_slowly_on_zero,
            [0, 1, 2],
            on_result=results.__setitem__,
            workers=2,
            chunksize=1,
        )
        assert results == {2: 2}
        assert [f.index for f in failures] == [0, 1]
        assert "item 0 failed" in failures[0].error


class TestRunSeedsOnThePool:
    def test_survives_a_hard_worker_death(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        seeds = list(range(4))
        pooled = run_seeds(
            CrashOnceBuilder(marker), protocol, seeds=seeds,
            processes=2, retries=1, retry_backoff=0.0,
        )
        assert os.path.exists(marker), "the crash was never exercised"
        assert pooled == run_seeds(build_sparse, protocol, seeds=seeds)

    def test_hard_worker_death_without_retries_raises(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        with pytest.raises(SeedExecutionError) as err:
            run_seeds(
                CrashOnceBuilder(marker), protocol, seeds=range(4),
                processes=2, retries=0,
            )
        assert os.path.exists(marker)
        assert "pool broke" in str(err.value)

    def test_retry_counters_reach_telemetry(self, monkeypatch):
        import repro.experiments.parallel as par

        real = par._run_one
        failed = []

        def flaky(job, telemetry=None):
            if job.seed == 1 and not failed:
                failed.append(job.seed)
                raise RuntimeError("transient glitch")
            return real(job, telemetry)

        monkeypatch.setattr(par, "_run_one", flaky)
        tele = Telemetry()
        run_seeds(
            build_sparse, protocol, seeds=[0, 1, 2],
            retries=1, retry_backoff=0.0, telemetry=tele,
        )
        assert failed == [1]
        assert tele.metrics.counter("runs.worker_failures").value == 1
        assert tele.metrics.counter("runs.retries").value == 1
