"""Edge-case tests for the engine: horizon cuts, lying protocols, errors."""

from typing import Optional

import numpy as np
import pytest

from repro.channel.messages import DataMessage, Message, TimekeeperBeacon
from repro.errors import SimulationError
from repro.sim.engine import simulate
from repro.sim.instance import Instance
from repro.sim.job import Job, JobStatus
from repro.sim.protocolbase import Protocol, ProtocolContext


class LyingProtocol(Protocol):
    """Claims success without ever transmitting — must be caught."""

    def on_act(self, slot) -> Optional[Message]:
        return None

    def on_observe(self, slot, obs):
        self.succeeded = True  # fraudulent


class BeaconCourier(Protocol):
    """Delivers its data as a timekeeper-beacon payload (leader style)."""

    def on_act(self, slot) -> Optional[Message]:
        if self.local_age(slot) == 0:
            return TimekeeperBeacon(
                self.ctx.job_id,
                global_time=0,
                deadline=0,
                abdicating=True,
                payload=DataMessage(self.ctx.job_id),
            )
        return None

    def on_observe(self, slot, obs):
        if obs.own_success and isinstance(obs.message, TimekeeperBeacon):
            self.succeeded = True
        elif self.local_age(slot) >= 0 and not self.succeeded:
            self.gave_up = True


def factory(cls):
    def make(job: Job, rng: np.random.Generator) -> Protocol:
        return cls(ProtocolContext.for_job(job, rng))

    return make


class TestGroundTruthAudit:
    def test_lying_protocol_raises(self):
        inst = Instance([Job(0, 0, 4)])
        with pytest.raises(SimulationError):
            simulate(inst, factory(LyingProtocol))

    def test_beacon_payload_counts_as_delivery(self):
        inst = Instance([Job(0, 0, 4)])
        res = simulate(inst, factory(BeaconCourier))
        assert res.outcome_of(0).status is JobStatus.SUCCEEDED
        assert res.outcome_of(0).completion_slot == 0


class TestHorizon:
    def test_horizon_cut_marks_unreached_jobs_failed(self):
        from repro.core.uniform import uniform_factory

        inst = Instance([Job(0, 0, 4), Job(1, 100, 104)])
        res = simulate(inst, uniform_factory(), seed=0, horizon=50)
        assert res.outcome_of(1).status is JobStatus.FAILED
        assert res.outcome_of(1).transmissions == 0

    def test_horizon_admits_only_jobs_released_before_it(self):
        """Job 0, released before the horizon, runs to its deadline; jobs
        1 and 2, released after it, never start, whether or not another
        job is still live when they are released."""
        from repro.core.uniform import uniform_factory

        inst = Instance([Job(0, 0, 200), Job(1, 150, 180), Job(2, 300, 310)])
        res = simulate(inst, uniform_factory(), seed=0, horizon=100)
        assert res.outcome_of(0).transmissions == 1
        assert res.outcome_of(0).completion_slot >= 100
        for job_id in (1, 2):
            assert res.outcome_of(job_id).status is JobStatus.FAILED
            assert res.outcome_of(job_id).transmissions == 0

    def test_horizon_beyond_instance_is_noop(self):
        from repro.core.uniform import uniform_factory

        inst = Instance([Job(0, 0, 4)])
        a = simulate(inst, uniform_factory(), seed=0)
        b = simulate(inst, uniform_factory(), seed=0, horizon=10_000)
        assert a.n_succeeded == b.n_succeeded
        assert a.slots_simulated == b.slots_simulated


class TestMultipleReleaseBatches:
    def test_outcomes_in_release_order(self):
        from repro.core.uniform import uniform_factory

        inst = Instance(
            [Job(3, 100, 164), Job(1, 0, 64), Job(2, 50, 114)]
        )
        res = simulate(inst, uniform_factory(), seed=1)
        assert [o.job.job_id for o in res.outcomes] == [1, 2, 3]

    def test_simultaneous_release_same_slot_activation(self):
        class FirstSlot(Protocol):
            def on_act(self, slot):
                if self.local_age(slot) == 0:
                    return DataMessage(self.ctx.job_id)
                return None

            def on_observe(self, slot, obs):
                if not self.succeeded:
                    self.gave_up = True

        inst = Instance([Job(0, 5, 9), Job(1, 5, 9)])
        res = simulate(inst, factory(FirstSlot))
        # both activate at slot 5 and collide there
        assert res.n_succeeded == 0
        assert all(o.transmissions == 1 for o in res.outcomes)
