"""Cache correctness: digests, hit/miss behavior, corruption recovery.

The content-addressed cache must be invisible to results: a warm cache
returns exactly what a cold run computes, any input change moves to a
different key, and a corrupted entry falls back to recomputation.
"""

from __future__ import annotations

import warnings

import pytest

import repro.experiments.parallel as parallel_mod
from repro.cache import ResultCache, as_cache, run_key, stable_digest
from repro.channel.jamming import PeriodicJammer, StochasticJammer
from repro.core.uniform import uniform_factory
from repro.experiments import Sweep, SeedDigest, run_seeds
from repro.workloads import batch_instance


def build_small():
    return batch_instance(6, window=512)


def build_other():
    return batch_instance(7, window=512)


def protocol(instance):
    return uniform_factory()


class TestStableDigest:
    def test_deterministic_across_calls(self):
        inst = build_small()
        assert stable_digest(inst) == stable_digest(build_small())

    def test_distinguishes_types(self):
        assert stable_digest(1) != stable_digest("1")
        assert stable_digest((1,)) != stable_digest([1])
        assert stable_digest(True) != stable_digest(1)

    def test_closure_parameters_matter(self):
        from repro.baselines import window_scaled_aloha_factory

        a = stable_digest(window_scaled_aloha_factory(4.0))
        b = stable_digest(window_scaled_aloha_factory(8.0))
        assert a != b

    def test_numpy_arrays(self):
        import numpy as np

        a = stable_digest(np.arange(4))
        b = stable_digest(np.arange(4))
        c = stable_digest(np.arange(5))
        assert a == b and a != c

    def test_cycles_terminate(self):
        loop = []
        loop.append(loop)
        assert isinstance(stable_digest(loop), str)


class TestRunKey:
    def test_each_ingredient_changes_key(self):
        base = dict(
            instance=build_small(),
            protocol=protocol,
            jammer=StochasticJammer(0.25),
            seed=3,
        )
        key = run_key(**base)
        assert key == run_key(**base)  # stable
        assert key != run_key(**{**base, "instance": build_other()})
        assert key != run_key(**{**base, "seed": 4})
        assert key != run_key(**{**base, "jammer": StochasticJammer(0.5)})
        assert key != run_key(**{**base, "jammer": PeriodicJammer(5, [0])})
        assert key != run_key(**{**base, "jammer": None})
        assert key != run_key(
            **{**base, "protocol": lambda instance: uniform_factory()}
        )

    def test_fault_plan_changes_key_and_noop_plan_does_not(self):
        from repro.channel.jamming import BudgetJammer
        from repro.faults import FaultPlan, FeedbackFault, JobFault

        base = dict(instance=build_small(), protocol=protocol, seed=3)
        clean = run_key(**base)
        # Clean keys are unchanged by the faults parameter existing:
        # None and a no-op plan both digest exactly like the old layout.
        assert run_key(**base, faults=None) == clean
        assert run_key(**base, faults=FaultPlan()) == clean
        assert run_key(**base, faults=FaultPlan(feedback=FeedbackFault())) == clean
        # A real plan changes the key; different plans get different keys.
        faulted = run_key(
            **base, faults=FaultPlan(feedback=FeedbackFault(0.1))
        )
        assert faulted != clean
        assert faulted != run_key(
            **base, faults=FaultPlan(feedback=FeedbackFault(0.2))
        )
        assert faulted != run_key(
            **base, faults=FaultPlan(jobs=JobFault(p_crash=0.1))
        )

    def test_spent_jammer_digests_like_fresh(self):
        from repro.channel.jamming import BudgetJammer
        from repro.faults import FaultPlan

        base = dict(instance=build_small(), protocol=protocol, seed=3)
        spent = BudgetJammer(10)
        spent.remaining = 0  # as if a previous run consumed it
        fresh_key = run_key(**base, faults=FaultPlan(jammer=BudgetJammer(10)))
        assert run_key(**base, faults=FaultPlan(jammer=spent)) == fresh_key
        direct = BudgetJammer(10)
        direct.remaining = 3
        assert run_key(**base, jammer=direct) == run_key(
            **base, jammer=BudgetJammer(10)
        )


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}
        assert cache.hits == 1 and cache.misses == 1 and cache.puts == 1

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, [1, 2, 3])
        cache.path_for(key).write_bytes(b"not a pickle \x00\xff")
        assert cache.get(key) is None  # no crash, reported as a miss
        assert not cache.path_for(key).exists()  # bad entry removed
        cache.put(key, [4])
        assert cache.get(key) == [4]

    def test_entry_it_cannot_open_is_a_miss_and_stays(
        self, tmp_path, monkeypatch
    ):
        """In a shared cache another user's entry may be unreadable:
        missing it must not delete it."""
        import repro.cache as cache_mod

        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, [1])
        path = cache.path_for(key)

        def forbidden(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(file))

        monkeypatch.setattr(cache_mod, "open", forbidden, raising=False)
        assert cache.get(key) is None
        monkeypatch.undo()
        assert path.exists()
        assert cache.misses == 1
        assert cache.get(key) == [1]

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" + "e" * 60, i)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_as_cache_coercion(self, tmp_path):
        assert as_cache(None) is None
        assert as_cache(False) is None
        assert isinstance(as_cache(str(tmp_path)), ResultCache)
        cache = ResultCache(tmp_path)
        assert as_cache(cache) is cache


class TestRunSeedsCaching:
    def test_warm_cache_skips_simulation(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cold = run_seeds(build_small, protocol, seeds=range(4), cache=cache)
        assert cache.puts == 4

        def boom(*a, **k):  # any simulate call on the warm path is a bug
            raise AssertionError("simulate called despite warm cache")

        monkeypatch.setattr(parallel_mod, "simulate", boom)
        warm = run_seeds(build_small, protocol, seeds=range(4), cache=cache)
        assert warm == cold
        assert cache.hits == 4

    def test_warm_results_equal_uncached(self, tmp_path):
        cached = run_seeds(
            build_small, protocol, seeds=range(3), cache=ResultCache(tmp_path)
        )
        rerun = run_seeds(
            build_small, protocol, seeds=range(3), cache=ResultCache(tmp_path)
        )
        plain = run_seeds(build_small, protocol, seeds=range(3))
        assert cached == rerun == plain

    def test_partial_hits_fill_missing_seeds(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_seeds(build_small, protocol, seeds=[0, 2], cache=cache)
        out = run_seeds(build_small, protocol, seeds=[0, 1, 2, 3], cache=cache)
        assert [d.seed for d in out] == [0, 1, 2, 3]
        assert cache.hits == 2 and cache.puts == 4

    def test_jammer_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_seeds(build_small, protocol, seeds=[0], cache=cache)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # deliberately past 1/2
            jam = StochasticJammer(1.0)
        run_seeds(
            build_small, protocol, seeds=[0], jammer=jam, cache=cache,
        )
        assert cache.puts == 2  # different key, not a hit

    def test_corrupted_digest_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        (clean,) = run_seeds(build_small, protocol, seeds=[5], cache=cache)
        for p in cache.root.glob("*/*.pkl"):
            p.write_bytes(b"\x80garbage")
        (recomputed,) = run_seeds(build_small, protocol, seeds=[5], cache=cache)
        assert recomputed == clean


class TestSweepCaching:
    def test_warm_sweep_runs_zero_simulations(self, tmp_path, monkeypatch):
        def make_sweep():
            return Sweep(
                build=lambda n: batch_instance(n, window=512),
                protocol=protocol,
                seeds=3,
                cache=ResultCache(tmp_path),
            )

        cold = make_sweep().run({"n": [4, 8]})
        monkeypatch.setattr(
            parallel_mod, "simulate",
            lambda *a, **k: (_ for _ in ()).throw(
                AssertionError("simulate called despite warm cache")
            ),
        )
        warm = make_sweep().run({"n": [4, 8]})
        assert [p.params for p in warm] == [p.params for p in cold]
        assert [p.n_succeeded for p in warm] == [p.n_succeeded for p in cold]
        assert [p.mean_latency for p in warm] == [p.mean_latency for p in cold]

    def test_sweep_results_match_uncached(self, tmp_path):
        kwargs = dict(
            build=lambda n: batch_instance(n, window=512),
            protocol=protocol,
            seeds=2,
        )
        plain = Sweep(**kwargs).run({"n": [4]})
        cached = Sweep(**kwargs, cache=ResultCache(tmp_path)).run({"n": [4]})
        assert plain[0].n_succeeded == cached[0].n_succeeded
        assert plain[0].success.point == cached[0].success.point
        assert plain[0].mean_latency == cached[0].mean_latency
