"""Tests for the open-arrival streaming engine.

The load-bearing property is closed-engine equivalence: for any finite
prefix, :func:`stream_simulate` must agree bit-for-bit with
:func:`repro.sim.engine.simulate` on the instance frozen by
:func:`materialize`.  Everything else — budgets, graceful degradation,
telemetry, memory flatness — rides on top of that.
"""

import tracemalloc

import pytest

from repro.adversary import fault_plan
from repro.baselines.sawtooth import sawtooth_factory
from repro.channel.jamming import StochasticJammer
from repro.core.uniform import uniform_factory
from repro.errors import InvalidParameterError
from repro.sim.engine import simulate
from repro.sim.rng import RngFactory
from repro.sim.watchdog import Watchdog
from repro.stream.arrivals import (
    BurstyProcess,
    DiurnalProcess,
    PoissonProcess,
    materialize,
)
from repro.stream.engine import StreamBudget, stream_simulate

POISSON = PoissonProcess(rate=0.2, window_sizes=(16, 64))
BURSTY = BurstyProcess(
    calm_rate=0.05, burst_rate=0.8, p_enter=0.02, p_exit=0.1,
    window_sizes=(16, 64),
)
DIURNAL = DiurnalProcess(
    base_rate=0.15, amplitude=0.6, period=400, window_sizes=(32,)
)
OVERLOAD = PoissonProcess(rate=0.5, window_sizes=(16, 64))


def _closed_run(process, factory, seed, horizon, *, jammer=None, faults=None):
    instance = materialize(
        process, RngFactory(seed).stream("arrivals"), horizon
    )
    return instance, simulate(
        instance, factory, jammer=jammer, seed=seed, faults=faults
    )


def _assert_equivalent(process, make_factory, seed, horizon, *,
                       make_jammer=lambda: None, faults=None):
    instance, closed = _closed_run(
        process, make_factory(), seed, horizon,
        jammer=make_jammer(), faults=faults,
    )
    stream = stream_simulate(
        process, make_factory(), seed=seed, max_slots=horizon,
        jammer=make_jammer(), faults=faults, record_outcomes=True,
    )
    assert stream.jobs_released == len(instance)
    assert stream.outcomes is not None
    for outcome in closed.outcomes:
        assert stream.outcomes[outcome.job.job_id] == (
            outcome.status,
            outcome.completion_slot,
            outcome.transmissions,
        ), f"job {outcome.job.job_id} diverged"
    assert stream.jobs_succeeded == closed.n_succeeded
    assert stream.slots_simulated == closed.slots_simulated


class TestClosedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_poisson_clean(self, seed):
        _assert_equivalent(POISSON, sawtooth_factory, seed, 1500)

    def test_uniform_protocol(self):
        _assert_equivalent(POISSON, uniform_factory, 4, 1500)

    def test_diurnal_jammed(self):
        _assert_equivalent(
            DIURNAL, sawtooth_factory, 1, 1500,
            make_jammer=lambda: StochasticJammer(0.2),
        )

    @pytest.mark.parametrize("family", ["feedback", "clock", "jobs"])
    def test_bursty_under_faults(self, family):
        _assert_equivalent(
            BURSTY, sawtooth_factory, 2, 2000,
            faults=fault_plan(family, 0.4),
        )

    def test_max_jobs_limit_matches_prefix(self):
        # max_jobs stops releases after N jobs; the result must match the
        # closed run on exactly those N first-drawn jobs.
        stream = stream_simulate(
            POISSON, sawtooth_factory(), seed=5, max_jobs=100,
            record_outcomes=True,
        )
        assert stream.jobs_released == 100
        instance = materialize(
            POISSON, RngFactory(5).stream("arrivals"), 10_000
        )
        kept = [j for j in instance.by_release if j.job_id < 100]
        from repro.sim.instance import Instance

        closed = simulate(Instance(kept), sawtooth_factory(), seed=5)
        for outcome in closed.outcomes:
            assert stream.outcomes[outcome.job.job_id] == (
                outcome.status,
                outcome.completion_slot,
                outcome.transmissions,
            )


class TestBudgets:
    def _overloaded(self, budget, seed=0):
        return stream_simulate(
            OVERLOAD, sawtooth_factory(), seed=seed, max_jobs=2000,
            budget=budget,
        )

    @pytest.mark.parametrize("policy", ["shed-newest", "shed-loosest-deadline", "block"])
    def test_peak_live_bounded(self, policy):
        res = self._overloaded(StreamBudget(max_live=16, policy=policy))
        assert res.peak_live <= 16

    def test_shed_newest_sheds_at_arrival(self):
        res = self._overloaded(StreamBudget(max_live=8, policy="shed-newest"))
        assert res.jobs_shed > 0
        assert set(res.shed) == {"arrival"}
        assert res.jobs_admitted == res.jobs_released - res.jobs_shed

    def test_shed_loosest_evicts(self):
        res = self._overloaded(
            StreamBudget(max_live=8, policy="shed-loosest-deadline")
        )
        assert res.jobs_shed > 0
        assert set(res.shed) <= {"arrival", "evicted"}
        assert res.shed.get("evicted", 0) > 0

    def test_block_policy_accounting(self):
        res = self._overloaded(
            StreamBudget(max_live=8, policy="block", queue_capacity=16)
        )
        valid = {"queue-full", "expired-blocked", "crashed-blocked"}
        assert set(res.shed) <= valid
        # every released job is accounted for exactly once
        assert (
            res.jobs_succeeded + res.jobs_missed + res.jobs_gave_up
            + res.jobs_shed
            == res.jobs_released
        )

    def test_unbudgeted_run_counts_everything(self):
        res = stream_simulate(
            OVERLOAD, sawtooth_factory(), seed=1, max_jobs=500
        )
        assert res.jobs_shed == 0
        assert res.jobs_admitted == res.jobs_released == 500
        assert (
            res.jobs_succeeded + res.jobs_missed + res.jobs_gave_up == 500
        )

    def test_budget_validation(self):
        with pytest.raises(InvalidParameterError):
            StreamBudget(max_live=0)
        with pytest.raises(InvalidParameterError):
            StreamBudget(max_live=4, policy="drop-oldest")
        with pytest.raises(InvalidParameterError):
            StreamBudget(max_live=4, policy="block", queue_capacity=0)


class TestTelemetry:
    def test_latency_sketch_tracks_sample(self):
        res = stream_simulate(
            POISSON, sawtooth_factory(), seed=0, max_jobs=1500,
            reservoir_capacity=100_000,
        )
        # with the reservoir holding everything, the sketch's p50 must be
        # within its alpha bound of the exact sample quantile
        exact = res.latency_sample.quantile(0.5)
        assert res.latency_quantile(0.5) == pytest.approx(exact, rel=0.05)

    def test_merge_adds_counters(self):
        a = stream_simulate(POISSON, sawtooth_factory(), seed=0, max_jobs=300)
        b = stream_simulate(POISSON, sawtooth_factory(), seed=1, max_jobs=400)
        m = a.merge(b)
        assert m.jobs_released == 700
        assert m.jobs_succeeded == a.jobs_succeeded + b.jobs_succeeded
        assert m.latency_sketch.count == (
            a.latency_sketch.count + b.latency_sketch.count
        )
        assert m.peak_live == max(a.peak_live, b.peak_live)
        # merging must not mutate the shards
        assert a.jobs_released == 300 and b.jobs_released == 400

    def test_to_dict_is_json_ready(self):
        import json

        res = stream_simulate(POISSON, sawtooth_factory(), seed=0, max_jobs=50)
        json.dumps(res.to_dict())


class TestWatchdog:
    def test_wall_clock_trip_cancels_cleanly(self):
        res = stream_simulate(
            OVERLOAD, sawtooth_factory(), seed=0, max_jobs=1_000_000,
            watchdog=Watchdog(max_seconds=0.05),
        )
        assert res.watchdog is not None
        from repro.sim.watchdog import REASON_WALL

        assert res.watchdog.reason == REASON_WALL
        # every released job still lands in exactly one bucket
        assert (
            res.jobs_succeeded + res.jobs_missed + res.jobs_gave_up
            + res.jobs_shed
            == res.jobs_released
        )


class TestValidation:
    def test_needs_a_limit(self):
        with pytest.raises(InvalidParameterError):
            stream_simulate(POISSON, sawtooth_factory(), seed=0)

    def test_resume_needs_checkpoint(self):
        with pytest.raises(InvalidParameterError):
            stream_simulate(
                POISSON, sawtooth_factory(), seed=0, max_jobs=10, resume=True
            )


class TestMemoryFlatness:
    def test_bounded_heap_under_sustained_overload(self):
        # The CI stream-smoke job asserts peak RSS of a full run; this is
        # the in-suite version: python-heap growth during a sustained
        # overloaded run with a budget must stay small and flat.
        budget = StreamBudget(max_live=64, policy="shed-loosest-deadline")
        tracemalloc.start()
        try:
            stream_simulate(
                OVERLOAD, sawtooth_factory(), seed=0, max_jobs=5000,
                budget=budget,
            )
            _, first_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            stream_simulate(
                OVERLOAD, sawtooth_factory(), seed=0, max_jobs=20_000,
                budget=budget,
            )
            _, second_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 4x the jobs must not need 2x the memory (sliding window), and
        # the absolute footprint stays tiny.
        assert second_peak < 2 * first_peak + (1 << 20)
        assert second_peak < 32 * (1 << 20)
