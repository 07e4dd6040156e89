"""Unit tests for the full-protocol PUNCTUAL kernel."""

import numpy as np
import pytest

from repro.core.punctual import punctual_factory
from repro.errors import InvalidParameterError
from repro.fastpath.punctual_full import simulate_punctual_full
from repro.params import AlignedParams, PunctualParams
from repro.sim.engine import simulate
from repro.workloads import batch_instance

_PARAMS = PunctualParams(
    aligned=AlignedParams(lam=1, tau=2, min_level=10),
    lam=2,
    pullback_exp=1,
    slingshot_exp=2,
)
#: Low min_level so follower trimmed windows clear it and the embedded
#: pecking-region machine runs (not just the anarchist fallback).
_FOLLOW = PunctualParams(
    aligned=AlignedParams(lam=1, tau=2, min_level=5),
    lam=2,
    pullback_exp=1,
    slingshot_exp=2,
)


class TestStructure:
    def test_result_shapes_and_bounds(self):
        inst = batch_instance(8, window=4096)
        res = simulate_punctual_full(
            inst, _PARAMS, np.random.default_rng(0)
        )
        jobs = inst.by_release
        n = len(jobs)
        assert res.success.shape == (n,)
        for i, job in enumerate(jobs):
            assert job.release <= res.retire[i] < job.deadline
            if res.success[i]:
                assert job.release <= res.completion[i] < job.deadline
            else:
                assert res.completion[i] == -1

    def test_tiny_window_all_fail(self):
        inst = batch_instance(4, window=16)
        res = simulate_punctual_full(
            inst, _PARAMS, np.random.default_rng(0)
        )
        assert not res.success.any()

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            simulate_punctual_full(batch_instance(4, 64), _PARAMS, rng, p_jam=1.5)
        staggered = batch_instance(2, 64).merged(
            batch_instance(2, 128).relabeled(start=2)
        )
        with pytest.raises(InvalidParameterError):
            simulate_punctual_full(staggered, _PARAMS, rng)

    def test_deterministic_given_rng_seed(self):
        inst = batch_instance(8, window=4096)
        a = simulate_punctual_full(inst, _PARAMS, np.random.default_rng(9))
        b = simulate_punctual_full(inst, _PARAMS, np.random.default_rng(9))
        assert np.array_equal(a.success, b.success)
        assert np.array_equal(a.completion, b.completion)
        assert a.slots_simulated == b.slots_simulated

    def test_jamming_reduces_success(self):
        inst = batch_instance(8, window=4096)
        clean = np.mean(
            [
                simulate_punctual_full(
                    inst, _PARAMS, np.random.default_rng(s)
                ).success.mean()
                for s in range(40)
            ]
        )
        jammed = np.mean(
            [
                simulate_punctual_full(
                    inst, _PARAMS, np.random.default_rng(s), p_jam=0.5
                ).success.mean()
                for s in range(40)
            ]
        )
        assert jammed < clean


class TestAgainstEngine:
    @pytest.mark.parametrize(
        "params,n,window",
        [(_PARAMS, 8, 4096), (_FOLLOW, 6, 2048)],
        ids=["anarchist-heavy", "follower-heavy"],
    )
    def test_success_rate_matches_engine(self, params, n, window):
        inst = batch_instance(n, window=window)
        engine = np.mean(
            [
                simulate(
                    inst, punctual_factory(params), seed=s
                ).success_rate
                for s in range(20)
            ]
        )
        kernel = np.mean(
            [
                simulate_punctual_full(
                    inst, params, np.random.default_rng(1000 + s)
                ).success.mean()
                for s in range(200)
            ]
        )
        assert kernel == pytest.approx(engine, abs=0.15)
