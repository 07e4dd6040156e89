"""Unit tests for fault-plan construction, validation, and per-job draws."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.feedback import Feedback, Observation
from repro.channel.jamming import BudgetJammer, StochasticJammer
from repro.channel.messages import DataMessage
from repro.errors import InvalidParameterError
from repro.faults import ClockFault, FaultPlan, FeedbackFault, JobFault
from repro.faults.plan import job_fault_record
from repro.sim.rng import RngFactory
from repro.workloads import batch_instance


def fault_records(plan, instance, seed):
    """Each job's fault record, drawn from its own ``fault-job`` stream."""
    rngs = RngFactory(seed)
    return {
        job.job_id: job_fault_record(
            plan.jobs, plan.clock, job, rngs.fresh("fault-job", job.job_id)
        )
        for job in instance.by_release
    }


class TestValidation:
    def test_feedback_rates_must_be_probabilities(self):
        with pytest.raises(InvalidParameterError):
            FeedbackFault(p_silence_to_noise=1.5)
        with pytest.raises(InvalidParameterError):
            FeedbackFault(p_noise_to_silence=-0.1)
        with pytest.raises(InvalidParameterError):
            FeedbackFault(p_success_erasure=2.0)

    def test_clock_fault_bounds(self):
        with pytest.raises(InvalidParameterError):
            ClockFault(max_skew=-1)
        with pytest.raises(InvalidParameterError):
            ClockFault(drift=1.0)

    def test_job_fault_late_requires_delay(self):
        with pytest.raises(InvalidParameterError):
            JobFault(p_late=0.5, max_delay=0)
        with pytest.raises(InvalidParameterError):
            JobFault(p_crash=1.5)

    def test_is_noop(self):
        assert FaultPlan().is_noop
        assert FaultPlan(feedback=FeedbackFault()).is_noop
        assert FaultPlan(clock=ClockFault()).is_noop
        assert FaultPlan(jobs=JobFault()).is_noop
        assert not FaultPlan(jammer=StochasticJammer(0.1)).is_noop
        assert not FaultPlan(feedback=FeedbackFault(0.1)).is_noop
        assert not FaultPlan(clock=ClockFault(max_skew=1)).is_noop
        assert not FaultPlan(jobs=JobFault(p_crash=0.1)).is_noop


class TestMergeAndDescribe:
    def test_merged_combines_disjoint_families(self):
        a = FaultPlan(jammer=StochasticJammer(0.2))
        b = FaultPlan(clock=ClockFault(max_skew=4))
        m = a.merged(b)
        assert m.jammer is a.jammer
        assert m.clock is b.clock

    def test_merged_conflict_raises(self):
        a = FaultPlan(jobs=JobFault(p_crash=0.1))
        b = FaultPlan(jobs=JobFault(p_crash=0.2))
        with pytest.raises(InvalidParameterError):
            a.merged(b)

    def test_describe_names_active_families(self):
        plan = FaultPlan(
            jammer=BudgetJammer(5),
            feedback=FeedbackFault(0.1),
            clock=ClockFault(max_skew=2),
            jobs=JobFault(p_crash=0.3),
        )
        text = plan.describe()
        assert "BudgetJammer" in text
        assert "feedback" in text
        assert "clock" in text
        assert "jobs" in text
        assert FaultPlan().describe() == "no faults"

    def test_reset_restores_plan_jammer(self):
        jam = BudgetJammer(3)
        jam.remaining = 0
        FaultPlan(jammer=jam).reset()
        assert jam.remaining == 3


class TestFeedbackCorrupt:
    def test_silence_flips_to_noise(self):
        fault = FeedbackFault(p_silence_to_noise=1.0)
        rng = np.random.default_rng(0)
        out = fault.corrupt(Observation.silence(False), rng)
        assert out.feedback is Feedback.NOISE

    def test_noise_flips_to_silence(self):
        fault = FeedbackFault(p_noise_to_silence=1.0)
        rng = np.random.default_rng(0)
        out = fault.corrupt(Observation.noise(True), rng)
        assert out.feedback is Feedback.SILENCE
        assert out.transmitted  # the listener still knows it transmitted

    def test_transmitter_success_protected_by_default(self):
        fault = FeedbackFault(p_success_erasure=1.0)
        rng = np.random.default_rng(0)
        own = Observation.success(DataMessage(0), transmitted=True, own=True)
        assert fault.corrupt(own, rng) is own

    def test_transmitter_success_erased_when_enabled(self):
        fault = FeedbackFault(p_success_erasure=1.0, affect_transmitters=True)
        rng = np.random.default_rng(0)
        own = Observation.success(DataMessage(0), transmitted=True, own=True)
        assert fault.corrupt(own, rng).feedback is Feedback.NOISE

    def test_zero_rates_consume_no_randomness(self):
        fault = FeedbackFault(p_silence_to_noise=0.5)  # others zero
        rng = np.random.default_rng(0)
        # NOISE and SUCCESS observations hit zero-rate branches: the
        # generator state must not move.
        state = rng.bit_generator.state["state"]["state"]
        fault.corrupt(Observation.noise(False), rng)
        fault.corrupt(
            Observation.success(DataMessage(1), False, False), rng
        )
        assert rng.bit_generator.state["state"]["state"] == state


class TestBinding:
    def test_job_decisions_independent_of_other_jobs(self):
        # Each job draws from its own spawned stream, so job 3's fault
        # decisions are identical whether drawn alone or with others.
        inst_small = batch_instance(4, window=1024)
        inst_large = batch_instance(8, window=1024)
        plan = FaultPlan(
            jobs=JobFault(p_late=0.5, max_delay=100, p_crash=0.5),
            clock=ClockFault(max_skew=8, drift=0.1),
        )
        a = fault_records(plan, inst_small, 7)
        b = fault_records(plan, inst_large, 7)
        for job in inst_small.by_release:
            assert a[job.job_id] == b[job.job_id]

    def test_crash_slot_inside_window(self):
        inst = batch_instance(16, window=512)
        plan = FaultPlan(jobs=JobFault(p_crash=1.0))
        records = fault_records(plan, inst, 3)
        for job in inst.by_release:
            rec = records[job.job_id]
            assert job.release < rec.crash_slot < job.deadline

    def test_late_release_stays_inside_window(self):
        inst = batch_instance(16, window=64)
        plan = FaultPlan(jobs=JobFault(p_late=1.0, max_delay=10_000))
        records = fault_records(plan, inst, 3)
        for job in inst.by_release:
            assert job.release < records[job.job_id].activation < job.deadline

    def test_slow_clock_shifts_activation_not_begin(self):
        inst = batch_instance(8, window=1024)
        plan = FaultPlan(clock=ClockFault(max_skew=32))
        records = fault_records(plan, inst, 11)
        saw_slow = False
        for job in inst.by_release:
            rec = records[job.job_id]
            if rec is None:
                continue
            if rec.activation > job.release:
                saw_slow = True
                assert rec.begin == job.release
                assert rec.skew_ff == 0
            else:
                assert rec.activation == job.release
        assert saw_slow  # with 8 jobs and skew 32 some clock runs slow
