"""Unit tests for the vectorized fast paths, incl. engine cross-validation."""

import numpy as np
import pytest

from repro.core.broadcast import total_active_steps
from repro.core.estimation import estimation_length
from repro.errors import InvalidParameterError
from repro.fastpath import (
    simulate_class_run_fast,
    simulate_estimation_fast,
    simulate_uniform_fast,
)
from repro.fastpath.estimation_fast import estimation_success_counts
from repro.params import AlignedParams
from repro.sim.instance import Instance
from repro.sim.job import Job
from repro.workloads import batch_instance, harmonic_starvation_instance


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestUniformFast:
    def test_lone_job_always_succeeds(self, rng):
        inst = Instance([Job(0, 0, 16)])
        res = simulate_uniform_fast(inst, rng)
        assert res.n_succeeded == 1

    def test_saturated_mostly_fails(self, rng):
        inst = batch_instance(64, window=4)
        res = simulate_uniform_fast(inst, rng)
        assert res.n_succeeded <= 4

    def test_empty_instance(self, rng):
        res = simulate_uniform_fast(Instance(()), rng)
        assert res.success.size == 0
        assert res.success_rate == 1.0

    def test_jamming_reduces_success(self, rng):
        inst = batch_instance(16, window=1024)
        base = np.mean(
            [
                simulate_uniform_fast(inst, np.random.default_rng(s)).n_succeeded
                for s in range(50)
            ]
        )
        jammed = np.mean(
            [
                simulate_uniform_fast(
                    inst, np.random.default_rng(s), p_jam=0.5
                ).n_succeeded
                for s in range(50)
            ]
        )
        assert jammed < base

    def test_multi_attempt_improves_sparse(self, rng):
        inst = batch_instance(8, window=4096)
        one = np.mean(
            [
                simulate_uniform_fast(inst, np.random.default_rng(s)).n_succeeded
                for s in range(100)
            ]
        )
        three = np.mean(
            [
                simulate_uniform_fast(
                    inst, np.random.default_rng(s), attempts=3
                ).n_succeeded
                for s in range(100)
            ]
        )
        assert three >= one

    def test_matches_engine_distribution(self):
        """Fast path and slot engine agree statistically (attempts=1)."""
        from repro.core.uniform import uniform_factory
        from repro.sim.engine import simulate

        inst = batch_instance(16, window=64)
        eng = np.mean(
            [
                simulate(inst, uniform_factory(), seed=s).n_succeeded
                for s in range(150)
            ]
        )
        fast = np.mean(
            [
                simulate_uniform_fast(inst, np.random.default_rng(s)).n_succeeded
                for s in range(150)
            ]
        )
        assert abs(eng - fast) < 1.2  # same mean within MC noise

    def test_validation(self, rng):
        with pytest.raises(InvalidParameterError):
            simulate_uniform_fast(batch_instance(1, 4), rng, attempts=0)
        with pytest.raises(InvalidParameterError):
            simulate_uniform_fast(batch_instance(1, 4), rng, p_jam=2.0)


class TestEstimationFast:
    def test_counts_shape(self, rng):
        p = AlignedParams(lam=2, tau=4, min_level=2)
        counts = estimation_success_counts(10, 6, p, rng, n_trials=5)
        assert counts.shape == (5, 6)

    def test_empty_class_estimates_zero(self, rng):
        p = AlignedParams(lam=2, tau=4, min_level=2)
        ests = simulate_estimation_fast(0, 8, p, rng, n_trials=20)
        assert np.all(ests == 0)

    def test_estimates_bracket_truth(self, rng):
        """Lemma 8's band 2n̂ <= n_ℓ <= τ²n̂ holds for most trials."""
        p = AlignedParams(lam=2, tau=4, min_level=2)
        n_hat = 32
        ests = simulate_estimation_fast(n_hat, 10, p, rng, n_trials=200)
        in_band = np.mean((ests >= 2 * n_hat) & (ests <= p.tau**2 * n_hat))
        assert in_band >= 0.9

    def test_jamming_half_still_estimates(self, rng):
        p = AlignedParams(lam=2, tau=4, min_level=2)
        ests = simulate_estimation_fast(32, 10, p, rng, n_trials=100, p_jam=0.5)
        in_band = np.mean((ests >= 2 * 32) & (ests <= 16 * 32))
        assert in_band >= 0.8

    def test_estimate_capped_at_window(self, rng):
        p = AlignedParams(lam=2, tau=4, min_level=2)
        ests = simulate_estimation_fast(64, 6, p, rng, n_trials=50)
        assert np.all(ests <= 64)


class TestBroadcastFast:
    """The broadcast stage of a class run, as the full ALIGNED kernel
    plays it for every occupied class."""

    def test_all_jobs_succeed_with_good_estimate(self):
        p = AlignedParams(lam=2, tau=4, min_level=2)
        fails = runs = 0
        for s in range(50):
            res = simulate_class_run_fast(30, 10, p, np.random.default_rng(s))
            if 2 * 30 <= res.estimate <= p.tau**2 * 30:  # Lemma 8's band
                fails += res.n_failed
                runs += 1
        assert runs >= 45
        assert fails <= 2

    def test_zero_jobs(self, rng):
        p = AlignedParams(lam=1, tau=4, min_level=2)
        res = simulate_class_run_fast(0, 8, p, rng)
        assert res.all_succeeded
        assert res.estimate == 0
        assert res.active_steps == estimation_length(8, p.lam)
        assert not res.truncated

    def test_budget_truncates(self, rng):
        p = AlignedParams(lam=1, tau=4, min_level=2)
        budget = estimation_length(8, p.lam) + 5
        res = simulate_class_run_fast(8, 8, p, rng, active_step_budget=budget)
        assert res.estimate > 0
        assert res.active_steps == budget
        assert res.truncated

    def test_validation(self, rng):
        p = AlignedParams(lam=1, tau=4, min_level=2)
        with pytest.raises(InvalidParameterError):
            simulate_class_run_fast(-1, 8, p, rng)
        with pytest.raises(InvalidParameterError):
            simulate_class_run_fast(1, 0, p, rng)
        with pytest.raises(InvalidParameterError):
            simulate_class_run_fast(1, 8, p, rng, p_jam=1.5)


class TestClassRunFast:
    def test_full_run_mostly_succeeds(self):
        p = AlignedParams(lam=2, tau=4, min_level=2)
        ok = total = 0
        for s in range(30):
            res = simulate_class_run_fast(20, 10, p, np.random.default_rng(s))
            ok += res.n_succeeded
            total += res.n_jobs
        assert ok / total >= 0.97

    def test_budget_inside_estimation_yields_zero(self, rng):
        p = AlignedParams(lam=2, tau=4, min_level=2)
        res = simulate_class_run_fast(20, 10, p, rng, active_step_budget=10)
        assert res.truncated
        assert res.estimate == 0
        assert res.n_succeeded == 0

    def test_active_steps_match_lemma6(self):
        p = AlignedParams(lam=2, tau=4, min_level=2)
        for s in range(10):
            res = simulate_class_run_fast(16, 9, p, np.random.default_rng(s))
            if res.estimate:
                assert res.active_steps == total_active_steps(9, res.estimate, p.lam)
            else:
                assert res.active_steps == estimation_length(9, p.lam)

    def test_cut_inside_a_subphase_delivers_the_picks_before_it(self):
        """A budget that ends 50 steps into the first broadcast subphase
        (length = the estimate) delivers exactly the unique picks before
        the cut, as the engine does when a window ends mid-subphase."""
        p = AlignedParams(lam=1, tau=4, min_level=2)
        est_len = estimation_length(10, p.lam)
        for s in range(20):
            res = simulate_class_run_fast(
                40, 10, p, np.random.default_rng(s),
                active_step_budget=est_len + 50,
            )
            # Replay the run's draws: the estimation, then the picks.
            rng = np.random.default_rng(s)
            estimate = int(simulate_estimation_fast(40, 10, p, rng)[0])
            picks = rng.integers(0, estimate, size=40)
            unique = np.bincount(picks, minlength=estimate)[picks] == 1
            delivered = int(np.sum(unique & (picks < 50)))
            assert res.estimate == estimate > 50
            assert res.n_succeeded == delivered > 0
            assert res.active_steps == est_len + 50
            assert res.truncated
