"""Engine-level fault injection: semantics, isolation, and safety."""

from __future__ import annotations

import warnings

import pytest

from repro.channel.jamming import BudgetJammer, StochasticJammer
from repro.core.aligned import aligned_factory
from repro.core.punctual import punctual_factory
from repro.core.uniform import uniform_factory
from repro.errors import InvalidParameterError
from repro.faults import ClockFault, FaultPlan, FeedbackFault, JobFault
from repro.params import AlignedParams, PunctualParams, UniformParams
from repro.faults.plan import job_fault_record
from repro.sim.engine import simulate
from repro.sim.job import JobStatus
from repro.sim.rng import RngFactory
from repro.workloads import batch_instance, single_class_instance

UNIFORM = uniform_factory()
ALIGNED_PARAMS = AlignedParams(lam=1, tau=4, min_level=9)


def fault_record(plan, job, seed):
    """The job's fault record as the engine draws it for ``seed``."""
    rng = RngFactory(seed).fresh("fault-job", job.job_id)
    return job_fault_record(plan.jobs, plan.clock, job, rng)


def outcome_tuples(result):
    return [
        (o.job.job_id, o.status, o.completion_slot, o.transmissions)
        for o in result.outcomes
    ]


class TestCleanPathPreserved:
    def test_noop_plan_is_bit_identical(self):
        inst = batch_instance(10, window=1024)
        clean = simulate(inst, UNIFORM, seed=5)
        noop = simulate(inst, UNIFORM, seed=5, faults=FaultPlan())
        noop2 = simulate(
            inst,
            UNIFORM,
            seed=5,
            faults=FaultPlan(feedback=FeedbackFault(), jobs=JobFault()),
        )
        assert outcome_tuples(clean) == outcome_tuples(noop)
        assert outcome_tuples(clean) == outcome_tuples(noop2)
        assert clean.slots_simulated == noop.slots_simulated

    def test_never_firing_fault_is_bit_identical(self):
        # One job, no jammer: the channel never carries noise, so a
        # noise->silence corruption can never fire — and because fault
        # randomness lives on its own rng streams, attaching the plan
        # must not perturb the protocol's choices either.
        inst = batch_instance(1, window=256)
        clean = simulate(inst, UNIFORM, seed=9)
        faulted = simulate(
            inst,
            UNIFORM,
            seed=9,
            faults=FaultPlan(feedback=FeedbackFault(p_noise_to_silence=1.0)),
        )
        assert outcome_tuples(clean) == outcome_tuples(faulted)

    def test_plan_jammer_conflicts_with_argument(self):
        inst = batch_instance(4, window=256)
        plan = FaultPlan(jammer=BudgetJammer(5))
        with pytest.raises(InvalidParameterError):
            simulate(
                inst, UNIFORM, seed=0, jammer=StochasticJammer(0.1),
                faults=plan,
            )

    def test_plan_jammer_used_when_no_argument(self):
        inst = batch_instance(6, window=64)
        jam = BudgetJammer(10)
        res = simulate(inst, UNIFORM, seed=0, faults=FaultPlan(jammer=jam))
        assert res.slots_simulated > 0
        assert jam.remaining < 10  # the adversary actually spent budget


class TestJobFaults:
    def test_crash_before_deadline_gives_up(self):
        inst = batch_instance(12, window=2048)
        res = simulate(
            inst,
            UNIFORM,
            seed=2,
            faults=FaultPlan(jobs=JobFault(p_crash=1.0)),
            invariants=True,
        )
        statuses = {o.status for o in res.outcomes}
        assert statuses <= {JobStatus.SUCCEEDED, JobStatus.GAVE_UP}
        assert JobStatus.GAVE_UP in statuses  # someone crashed pre-success

    def test_crashed_jobs_stop_transmitting(self):
        inst = batch_instance(8, window=512)
        plan = FaultPlan(jobs=JobFault(p_crash=1.0))
        res = simulate(inst, UNIFORM, seed=4, faults=plan, invariants=True)
        for o in res.outcomes:
            if o.status is JobStatus.SUCCEEDED:
                crash = fault_record(plan, o.job, 4).crash_slot
                assert o.completion_slot < crash

    def test_late_release_delays_first_success(self):
        inst = batch_instance(8, window=4096)
        plan = FaultPlan(jobs=JobFault(p_late=1.0, max_delay=1500))
        res = simulate(inst, UNIFORM, seed=7, faults=plan, invariants=True)
        delayed = 0
        for o in res.outcomes:
            eff = fault_record(plan, o.job, 7).activation
            if eff > o.job.release:
                delayed += 1
            if o.status is JobStatus.SUCCEEDED:
                assert o.completion_slot >= eff
        assert delayed == len(res.outcomes)  # p_late = 1


class TestFeedbackFaults:
    def test_erasure_blind_transmitter_keeps_contending(self):
        inst = batch_instance(6, window=2048)
        proto = uniform_factory(UniformParams(attempts=4))
        plan = FaultPlan(
            feedback=FeedbackFault(
                p_success_erasure=1.0, affect_transmitters=True
            )
        )
        clean = simulate(inst, proto, seed=3)
        res = simulate(inst, proto, seed=3, faults=plan, invariants=True)
        # Ground truth is never faulted: the deliveries still happen...
        assert res.n_succeeded == len(res)
        # ...but senders never see their own success, so they keep
        # transmitting long past it.
        assert sum(o.transmissions for o in res.outcomes) > sum(
            o.transmissions for o in clean.outcomes
        )

    def test_listener_corruption_preserves_delivery_accounting(self):
        inst = batch_instance(10, window=2048)
        plan = FaultPlan(
            feedback=FeedbackFault(
                p_silence_to_noise=0.2, p_noise_to_silence=0.2,
                p_success_erasure=0.2,
            )
        )
        res = simulate(inst, UNIFORM, seed=6, faults=plan, invariants=True)
        for o in res.outcomes:
            if o.status is JobStatus.SUCCEEDED:
                assert o.job.release <= o.completion_slot < o.job.deadline


class TestClockFaults:
    @pytest.mark.parametrize(
        "name,instance,factory",
        [
            ("uniform", batch_instance(10, window=2048), UNIFORM),
            (
                "aligned",
                single_class_instance(10, level=9),
                aligned_factory(ALIGNED_PARAMS),
            ),
            (
                "punctual",
                batch_instance(10, window=2048),
                punctual_factory(PunctualParams()),
            ),
        ],
    )
    def test_clock_faults_degrade_without_crashing(
        self, name, instance, factory
    ):
        res = simulate(
            instance,
            factory,
            seed=1,
            faults=FaultPlan(clock=ClockFault(max_skew=64, drift=0.1)),
            invariants=True,
        )
        assert len(res) == len(instance)
        for o in res.outcomes:
            if o.status is JobStatus.SUCCEEDED:
                assert o.job.release <= o.completion_slot < o.job.deadline

    def test_fast_clock_can_stop_short_of_true_deadline(self):
        # With large positive skew forced, jobs believe their window is
        # over early and give up rather than transmit to the end.
        inst = batch_instance(16, window=256)
        res = simulate(
            inst,
            UNIFORM,
            seed=0,
            faults=FaultPlan(clock=ClockFault(max_skew=200)),
            invariants=True,
        )
        assert any(o.status is JobStatus.GAVE_UP for o in res.outcomes)


class TestMergedPlans:
    def test_merged_families_compose_in_one_run(self):
        inst = batch_instance(10, window=2048)
        plan = FaultPlan(clock=ClockFault(max_skew=8)).merged(
            FaultPlan(jobs=JobFault(p_crash=0.3))
        )
        res = simulate(inst, UNIFORM, seed=8, faults=plan, invariants=True)
        assert len(res) == 10

    def test_severe_composite_plan_under_invariants(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plan = FaultPlan(
                jammer=StochasticJammer(0.6),
                feedback=FeedbackFault(0.1, 0.1, 0.1),
                clock=ClockFault(max_skew=16, drift=0.05),
                jobs=JobFault(p_late=0.3, max_delay=100, p_crash=0.2),
            )
        inst = batch_instance(12, window=1024)
        res = simulate(inst, UNIFORM, seed=13, faults=plan, invariants=True)
        assert len(res) == 12  # chaos degrades outcomes, never bookkeeping
