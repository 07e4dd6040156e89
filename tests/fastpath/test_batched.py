"""Tests for fastpath planning, batched execution, and run_seeds routing."""

import pytest

from repro.cache import ResultCache, run_key, run_key_batch, stable_digest
from repro.channel.jamming import (
    NoJammer,
    PeriodicJammer,
    StochasticJammer,
)
from repro.core.aligned import aligned_factory
from repro.core.punctual import punctual_factory
from repro.core.uniform import uniform_factory
from repro.experiments.parallel import SeedExecutionError, run_seeds
from repro.fastpath import batched as batched_mod
from repro.fastpath.batched import (
    FastpathUnavailableError,
    KERNEL_VERSION,
    plan_fastpath,
    seed_route,
    simulate_fastpath,
)
from repro.faults import FaultPlan, FeedbackFault
from repro.obs.telemetry import Telemetry
from repro.params import AlignedParams, PunctualParams, UniformParams
from repro.sim.watchdog import Watchdog
from repro.workloads import (
    batch_instance,
    figure1_instance,
    single_class_instance,
)

_ALIGNED = AlignedParams(lam=1, tau=4, min_level=9)
_PUNCTUAL = PunctualParams(
    aligned=AlignedParams(lam=1, tau=2, min_level=10),
    lam=2,
    pullback_exp=1,
    slingshot_exp=2,
)


def _batch():
    return batch_instance(12, window=256)


def _uniform(_instance=None):
    return uniform_factory()


class TestPlanQualification:
    def test_uniform_qualifies(self):
        plan, reason = plan_fastpath(_batch(), uniform_factory())
        assert plan is not None and plan.kind == "uniform"
        assert reason == ""

    def test_unmarked_factory_declines(self):
        plan, reason = plan_fastpath(_batch(), lambda jobs: None)
        assert plan is None
        assert "marker" in reason

    def test_check_invariants_declines(self):
        plan, reason = plan_fastpath(
            _batch(), uniform_factory(), check_invariants=True
        )
        assert plan is None

    def test_real_faults_decline_noop_faults_pass(self):
        real = FaultPlan(feedback=FeedbackFault(p_noise_to_silence=0.5))
        plan, _ = plan_fastpath(_batch(), uniform_factory(), faults=real)
        assert plan is None
        plan, _ = plan_fastpath(
            _batch(), uniform_factory(), faults=FaultPlan()
        )
        assert plan is not None

    def test_jammer_matrix(self):
        inst = _batch()
        for jammer, ok in (
            (None, True),
            (NoJammer(), True),
            (StochasticJammer(0.3), True),
            (StochasticJammer(0.3, jam_silence=True), False),
            (PeriodicJammer(4, [0]), False),
        ):
            plan, _ = plan_fastpath(inst, uniform_factory(), jammer=jammer)
            assert (plan is not None) == ok, jammer
        plan, _ = plan_fastpath(
            inst, uniform_factory(), jammer=StochasticJammer(0.3)
        )
        assert plan.p_jam == pytest.approx(0.3)

    def test_watchdog_matrix(self):
        inst = _batch()
        for wd, ok in (
            (None, True),
            (Watchdog(stall_factor=4.0), True),  # bound exceeds the span
            (Watchdog(max_slots=10), False),
            (Watchdog(max_seconds=1.0), False),
        ):
            plan, _ = plan_fastpath(inst, uniform_factory(), watchdog=wd)
            assert (plan is not None) == ok, wd

    def test_uniform_multi_attempt_declines(self):
        plan, reason = plan_fastpath(
            _batch(), uniform_factory(UniformParams(attempts=2))
        )
        assert plan is None

    def test_aligned_qualification(self):
        ok = single_class_instance(10, level=9)
        plan, _ = plan_fastpath(ok, aligned_factory(_ALIGNED))
        assert plan is not None and plan.kind == "aligned"
        # figure1 has classes below min_level 9
        plan, reason = plan_fastpath(
            figure1_instance(), aligned_factory(_ALIGNED)
        )
        assert plan is None
        assert "min_level" in reason

    def test_punctual_needs_one_window_group(self):
        plan, _ = plan_fastpath(
            batch_instance(8, window=4096), punctual_factory(_PUNCTUAL)
        )
        assert plan is not None and plan.kind == "punctual"
        mixed = batch_instance(4, window=4096).merged(
            batch_instance(4, window=2048).relabeled(start=10)
        )
        plan, _ = plan_fastpath(mixed, punctual_factory(_PUNCTUAL))
        assert plan is None


class TestRunKeyBatch:
    def test_matches_per_seed_run_key(self):
        inst = _batch()
        factory = uniform_factory()
        for jammer, extra in (
            (None, None),
            (StochasticJammer(0.2), ("fastpath", "uniform", KERNEL_VERSION, None)),
        ):
            batch = run_key_batch(
                instance=inst,
                protocol=factory,
                seeds=[3, 7, 11],
                jammer=jammer,
                extra=extra,
            )
            singles = [
                run_key(
                    instance=inst,
                    protocol=factory,
                    jammer=jammer,
                    seed=s,
                    extra=extra,
                )
                for s in (3, 7, 11)
            ]
            assert batch == singles


def _entries(cache):
    """The keys of every entry in ``cache``."""
    return sorted(p.stem for p in cache.root.glob("*/*.pkl"))


class TestSeedKeyContract:
    """``run_seeds`` stores each digest at ``run_key``'s address."""

    SEEDS = [0, 1, 2]

    def _run_keys(self, extra, jammer=None):
        inst = _batch()
        return sorted(
            run_key(
                instance=inst, protocol=_uniform, jammer=jammer, seed=s,
                extra=extra,
            )
            for s in self.SEEDS
        )

    def test_engine_without_watchdog(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_seeds(_batch, _uniform, self.SEEDS, cache=cache)
        assert _entries(cache) == self._run_keys(None)

    def test_engine_with_enabled_watchdog(self, tmp_path):
        # A wall-clock budget declines every kernel: "auto" falls back
        # to the engine, whose keys fold the watchdog in.
        wd = Watchdog(max_seconds=600.0)
        cache = ResultCache(tmp_path)
        run_seeds(
            _batch, _uniform, self.SEEDS, watchdog=wd, cache=cache,
            fastpath="auto",
        )
        assert _entries(cache) == self._run_keys(("watchdog", wd))

    def test_uniform_kernel(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_seeds(_batch, _uniform, self.SEEDS, cache=cache, fastpath="on")
        assert _entries(cache) == self._run_keys(
            ("fastpath", "uniform", KERNEL_VERSION, None)
        )

    def test_declined_route_keys_the_engine(self):
        jam = PeriodicJammer(3, [0])
        plan, reason, keys = seed_route(
            _batch(), _uniform, self.SEEDS, jammer=jam, fastpath="auto"
        )
        assert plan is None and "PeriodicJammer" in reason
        assert sorted(keys) == self._run_keys(None, jammer=jam)
        _, _, unkeyed = seed_route(
            _batch(), _uniform, self.SEEDS, fastpath="auto", keyed=False
        )
        assert unkeyed == [None] * len(self.SEEDS)

    def test_mixed_cache_serves_a_second_run_with_zero_puts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for fastpath in ("off", "on"):
            run_seeds(
                _batch, _uniform, self.SEEDS, cache=cache, fastpath=fastpath
            )
        puts = cache.puts
        assert puts == 2 * len(self.SEEDS)  # disjoint namespaces
        for fastpath in ("off", "on"):
            run_seeds(
                _batch, _uniform, self.SEEDS, cache=cache, fastpath=fastpath
            )
        assert cache.puts == puts
        assert cache.hits == 2 * len(self.SEEDS)


class TestKernelFailures:
    """Kernel trials fail and retry like engine seeds."""

    def test_failing_trial_names_its_seed(self, monkeypatch):
        real = batched_mod.simulate_fastpath

        def broken(plan, seed):
            if seed == 2:
                raise RuntimeError("kernel blew up")
            return real(plan, seed)

        monkeypatch.setattr(batched_mod, "simulate_fastpath", broken)
        with pytest.raises(SeedExecutionError) as err:
            run_seeds(_batch, _uniform, [0, 1, 2, 3], fastpath="on")
        assert err.value.seed == 2
        assert "kernel blew up" in err.value.worker_traceback

    def test_retry_recovers_a_transient_failure(self, monkeypatch):
        real = batched_mod.simulate_fastpath
        failed = []

        def flaky(plan, seed):
            if seed == 1 and not failed:
                failed.append(seed)
                raise RuntimeError("transient")
            return real(plan, seed)

        monkeypatch.setattr(batched_mod, "simulate_fastpath", flaky)
        tele = Telemetry()
        out = run_seeds(
            _batch, _uniform, [0, 1, 2], fastpath="on", retries=1,
            retry_backoff=0.0, telemetry=tele,
        )
        assert failed == [1]
        engine = run_seeds(_batch, _uniform, [0, 1, 2])
        assert [stable_digest(d) for d in out] == [
            stable_digest(d) for d in engine
        ]
        assert tele.metrics.counter("runs.retries").value == 1


class TestBatchedExecution:
    def test_uniform_bit_exact_vs_engine(self):
        seeds = list(range(8))
        engine = run_seeds(_batch, _uniform, seeds=seeds)
        batched = run_seeds(_batch, _uniform, seeds, fastpath="on")
        assert [stable_digest(d) for d in batched] == [
            stable_digest(d) for d in engine
        ]

    def test_uniform_jammed_bit_exact_vs_engine(self):
        seeds = list(range(8))
        engine = run_seeds(
            _batch, _uniform, seeds=seeds, jammer=StochasticJammer(0.3)
        )
        batched = run_seeds(
            _batch, _uniform, seeds, jammer=StochasticJammer(0.3),
            fastpath="on",
        )
        assert [stable_digest(d) for d in batched] == [
            stable_digest(d) for d in engine
        ]

    def test_unqualified_raises(self):
        with pytest.raises(FastpathUnavailableError):
            run_seeds(
                _batch, _uniform, [0], jammer=PeriodicJammer(3, [0]),
                fastpath="on",
            )

    def test_vacuous_watchdog_parity(self):
        """An enabled-but-vacuous watchdog must not change the digests."""
        wd = Watchdog(stall_factor=8.0)
        seeds = [0, 1, 2]
        engine = run_seeds(_batch, _uniform, seeds=seeds, watchdog=wd)
        batched = run_seeds(
            _batch, _uniform, seeds, watchdog=wd, fastpath="on"
        )
        bare = run_seeds(_batch, _uniform, seeds, fastpath="on")
        assert [stable_digest(d) for d in batched] == [
            stable_digest(d) for d in engine
        ]
        assert [stable_digest(d) for d in batched] == [
            stable_digest(d) for d in bare
        ]
        assert all(d.watchdog_reason is None for d in batched)

    def test_telemetry_off_parity_and_counters(self):
        """Telemetry is observation-only: digests identical with it on."""
        seeds = [0, 1, 2, 3]
        tele = Telemetry()
        with_tele = run_seeds(
            _batch, _uniform, seeds, telemetry=tele, fastpath="on"
        )
        without = run_seeds(_batch, _uniform, seeds, fastpath="on")
        assert [stable_digest(d) for d in with_tele] == [
            stable_digest(d) for d in without
        ]
        counters = tele.metrics.counter
        assert counters("runs.total").value == len(seeds)
        assert counters("runs.fastpath_trials").value == len(seeds)
        assert counters("jobs.total").value == sum(
            d.n_jobs for d in with_tele
        )
        assert counters("jobs.succeeded").value == sum(
            d.n_succeeded for d in with_tele
        )
        assert any(s.name == "run_batch" for s in tele.spans)

    def test_cache_roundtrip_serves_warm_runs(self, tmp_path):
        cache = ResultCache(tmp_path)
        seeds = [0, 1, 2]
        cold = run_seeds(_batch, _uniform, seeds, cache=cache, fastpath="on")
        puts = cache.puts
        warm = run_seeds(_batch, _uniform, seeds, cache=cache, fastpath="on")
        assert cache.puts == puts
        assert cache.hits >= len(seeds)
        assert [stable_digest(d) for d in warm] == [
            stable_digest(d) for d in cold
        ]

    def test_cache_namespace_disjoint_from_engine(self, tmp_path):
        """Kernel and engine results never share cache entries."""
        cache = ResultCache(tmp_path)
        run_seeds(_batch, _uniform, seeds=[0], cache=cache)
        hits_before = cache.hits
        run_seeds(_batch, _uniform, [0], cache=cache, fastpath="on")
        assert cache.hits == hits_before  # kernel key missed engine entry

    def test_statistical_kinds_return_sane_digests(self):
        inst_build = lambda: single_class_instance(10, level=9)
        plan, _ = plan_fastpath(inst_build(), aligned_factory(_ALIGNED))
        digest = simulate_fastpath(plan, 0)
        assert digest.n_jobs == 10
        assert 0 <= digest.n_succeeded <= 10
        assert digest.cacheable


class TestRunSeedsRouting:
    def test_auto_matches_engine_for_uniform(self):
        seeds = list(range(6))
        engine = run_seeds(_batch, _uniform, seeds=seeds, fastpath="off")
        auto = run_seeds(_batch, _uniform, seeds=seeds, fastpath="auto")
        assert [stable_digest(d) for d in auto] == [
            stable_digest(d) for d in engine
        ]

    def test_auto_falls_back_silently(self):
        seeds = [0, 1]
        jam = PeriodicJammer(3, [0])
        engine = run_seeds(
            _batch, _uniform, seeds=seeds, jammer=PeriodicJammer(3, [0])
        )
        auto = run_seeds(
            _batch, _uniform, seeds=seeds, jammer=jam, fastpath="auto"
        )
        assert [stable_digest(d) for d in auto] == [
            stable_digest(d) for d in engine
        ]

    def test_on_raises_when_unqualified(self):
        with pytest.raises(FastpathUnavailableError):
            run_seeds(
                _batch,
                _uniform,
                seeds=[0],
                jammer=PeriodicJammer(3, [0]),
                fastpath="on",
            )

    def test_invalid_knob_rejected(self):
        with pytest.raises(ValueError):
            run_seeds(_batch, _uniform, seeds=[0], fastpath="maybe")

    def test_aligned_auto_statistically_agrees(self):
        build = lambda: single_class_instance(10, level=9)
        proto = lambda _i: aligned_factory(_ALIGNED)
        seeds = list(range(20))
        engine = run_seeds(build, proto, seeds=seeds, fastpath="off")
        kernel = run_seeds(build, proto, seeds=seeds, fastpath="auto")
        e = sum(d.n_succeeded for d in engine) / (10 * len(seeds))
        k = sum(d.n_succeeded for d in kernel) / (10 * len(seeds))
        assert k == pytest.approx(e, abs=0.2)
