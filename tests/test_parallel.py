"""Tests for the parallel seed runner.

The worker entry points must be module-level for pickling, so the
builders used here live at module scope.
"""

import pytest

from repro.core.uniform import uniform_factory
from repro.channel.jamming import PaperGuaranteeWarning, StochasticJammer
from repro.errors import ReproError
from repro.experiments import (
    SeedExecutionError,
    aggregate,
    compute_chunksize,
    run_seeds,
)
from repro.workloads import batch_instance


def build_sparse():
    return batch_instance(8, window=1024)


def build_two_windows():
    a = batch_instance(4, window=512)
    b = batch_instance(4, window=1024).relabeled(start=100)
    return a.merged(b)


def protocol(instance):
    return uniform_factory()


class TestInline:
    def test_digests_in_seed_order(self):
        digests = run_seeds(build_sparse, protocol, seeds=[3, 1, 2])
        assert [d.seed for d in digests] == [3, 1, 2]

    def test_digest_contents(self):
        (d,) = run_seeds(build_sparse, protocol, seeds=[0])
        assert d.n_jobs == 8
        assert 0 <= d.n_succeeded <= 8
        assert d.slots_simulated > 0
        assert d.by_window[0][0] == 1024

    def test_matches_direct_simulation(self):
        from repro.sim.engine import simulate

        (d,) = run_seeds(build_sparse, protocol, seeds=[5])
        res = simulate(build_sparse(), uniform_factory(), seed=5)
        assert d.n_succeeded == res.n_succeeded

    def test_jammer_forwarded(self):
        with pytest.warns(PaperGuaranteeWarning):
            jam = StochasticJammer(1.0)
        digests = run_seeds(
            build_sparse, protocol, seeds=range(5), jammer=jam,
        )
        assert all(d.n_succeeded == 0 for d in digests)


def build_failing():
    raise RuntimeError("instance builder exploded")


def failing_protocol(instance):
    raise RuntimeError("protocol builder exploded")


class TestProcessPool:
    def test_pool_matches_inline(self):
        seeds = list(range(6))
        inline = run_seeds(build_sparse, protocol, seeds=seeds, processes=1)
        pooled = run_seeds(build_sparse, protocol, seeds=seeds, processes=2)
        assert [(d.seed, d.n_succeeded) for d in inline] == [
            (d.seed, d.n_succeeded) for d in pooled
        ]

    def test_pool_digests_identical_to_inline(self):
        # regression: chunked submission must not reorder or perturb
        # anything — the full digest records match field-for-field.
        seeds = list(range(8))
        inline = run_seeds(build_sparse, protocol, seeds=seeds, processes=1)
        pooled = run_seeds(build_sparse, protocol, seeds=seeds, processes=2)
        assert inline == pooled

    def test_explicit_chunksize_matches(self):
        seeds = list(range(5))
        inline = run_seeds(build_sparse, protocol, seeds=seeds)
        for chunk in (1, 2, 5):
            pooled = run_seeds(
                build_sparse, protocol, seeds=seeds,
                processes=2, chunksize=chunk,
            )
            assert pooled == inline


class TestChunksize:
    def test_inline_is_one(self):
        assert compute_chunksize(100, 1) == 1

    def test_targets_four_chunks_per_worker(self):
        assert compute_chunksize(80, 2) == 10
        assert compute_chunksize(8, 2) == 1
        assert compute_chunksize(9, 2) == 2

    def test_capped(self):
        assert compute_chunksize(10_000, 2) == 64

    def test_never_zero(self):
        assert compute_chunksize(0, 4) == 1
        assert compute_chunksize(1, 4) == 1

    def test_edge_cases_never_below_one(self):
        # n_tasks == 0, negative inputs, and processes > n_tasks must all
        # land on 1: pool.map(chunksize=0) raises inside concurrent.futures.
        assert compute_chunksize(0, 0) == 1
        assert compute_chunksize(-3, 8) == 1
        assert compute_chunksize(5, -1) == 1
        for n_tasks in range(0, 70):
            for processes in range(0, 20):
                assert compute_chunksize(n_tasks, processes) >= 1

    def test_more_workers_than_tasks(self):
        assert compute_chunksize(2, 8) == 1
        assert compute_chunksize(7, 7) == 1

    def test_run_seeds_rejects_zero_chunksize(self):
        with pytest.raises(ValueError, match="chunksize"):
            run_seeds(
                build_sparse, protocol, seeds=[0, 1],
                processes=2, chunksize=0,
            )

    def test_run_seeds_empty_seed_list(self):
        # Nothing to do must not touch a pool or compute a chunk at all.
        assert run_seeds(build_sparse, protocol, seeds=[], processes=4) == []

    def test_pool_with_more_workers_than_seeds(self):
        seeds = [0, 1]
        inline = run_seeds(build_sparse, protocol, seeds=seeds)
        pooled = run_seeds(build_sparse, protocol, seeds=seeds, processes=4)
        assert pooled == inline


class TestProgress:
    def test_progress_reports_every_seed(self):
        calls = []
        run_seeds(
            build_sparse, protocol, seeds=range(4),
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_progress_across_pool(self):
        calls = []
        run_seeds(
            build_sparse, protocol, seeds=range(4), processes=2,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]


class TestFailureReporting:
    def test_inline_failure_names_seed(self):
        with pytest.raises(SeedExecutionError) as err:
            run_seeds(build_failing, protocol, seeds=[0, 7])
        assert err.value.seed == 0
        assert "instance builder exploded" in err.value.worker_traceback
        assert isinstance(err.value, ReproError)

    def test_pool_failure_names_seed(self):
        with pytest.raises(SeedExecutionError) as err:
            run_seeds(build_failing, protocol, seeds=[3, 4], processes=2)
        assert err.value.seed == 3
        assert "instance builder exploded" in err.value.worker_traceback


class TestAggregate:
    def test_combines_counts(self):
        digests = run_seeds(build_two_windows, protocol, seeds=range(4))
        summary = aggregate(digests)
        assert summary["runs"] == 4
        assert summary["jobs"] == 32
        assert set(summary["by_window"]) == {512, 1024}
        ok = sum(s for s, _ in summary["by_window"].values())
        assert ok == summary["succeeded"]

    def test_empty(self):
        summary = aggregate([])
        assert summary["runs"] == 0
        assert summary["success_rate"] == 1.0


class TestRetries:
    def test_transient_failures_retried_only_for_failed_seeds(
        self, monkeypatch
    ):
        import repro.experiments.parallel as par

        real = par._run_one
        calls = {"n": 0}
        failed_once = set()

        def flaky(job):
            calls["n"] += 1
            if job.seed == 2 and job.seed not in failed_once:
                failed_once.add(job.seed)
                raise RuntimeError("transient glitch")
            return real(job)

        monkeypatch.setattr(par, "_run_one", flaky)
        digests = run_seeds(
            build_sparse, protocol, seeds=[0, 1, 2],
            retries=2, retry_backoff=0.0,
        )
        assert [d.seed for d in digests] == [0, 1, 2]
        # three first-round calls + one retry of the single failed seed
        assert calls["n"] == 4

    def test_deterministic_failure_exhausts_retries(self, monkeypatch):
        import repro.experiments.parallel as par

        calls = {"n": 0}

        def always_fail(job):
            calls["n"] += 1
            raise RuntimeError("permanent failure")

        monkeypatch.setattr(par, "_run_one", always_fail)
        with pytest.raises(SeedExecutionError):
            run_seeds(
                build_sparse, protocol, seeds=[5],
                retries=3, retry_backoff=0.0,
            )
        assert calls["n"] == 4  # initial attempt + 3 retries

    def test_error_carries_protocol_and_instance_digest(self):
        with pytest.raises(SeedExecutionError) as err:
            run_seeds(build_sparse, failing_protocol, seeds=[0])
        assert err.value.seed == 0
        assert "failing_protocol" in err.value.protocol
        assert err.value.instance_digest  # content digest of the workload
        assert err.value.instance_digest[:12] in str(err.value)
        assert "protocol" in str(err.value)

    def test_builder_failure_still_reports_without_digest(self):
        with pytest.raises(SeedExecutionError) as err:
            run_seeds(build_failing, protocol, seeds=[0])
        assert err.value.instance_digest is None  # instance never built
        assert err.value.protocol is not None

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_seeds(build_sparse, protocol, seeds=[0], retries=-1)
