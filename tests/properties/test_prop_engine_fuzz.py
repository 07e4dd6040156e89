"""Engine fuzzing: invariants must hold under arbitrary protocol behaviour.

A "chaos" protocol makes random transmit/listen decisions with random
message types and random early give-ups.  Whatever it does, the engine
must maintain its ground-truth invariants:

* a job's completion slot lies inside its window;
* at most one delivery per job, and the delivered message carries its id;
* collision slots deliver nothing;
* outcome statuses partition the jobs and match the delivery set;
* the engine never loses or duplicates jobs.

The same chaos runs through the streaming driver over random arrival
processes, budgets and jammers, where every released job must land in
exactly one bucket, channel-access energy must be conserved (evicted
jobs included), and, without a budget, every job must fare exactly as
in the closed engine on the materialized prefix.
"""

from typing import Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.jamming import StochasticJammer
from repro.channel.messages import ControlMessage, DataMessage, Message
from repro.sim.engine import simulate
from repro.sim.instance import Instance
from repro.sim.job import Job, JobStatus
from repro.sim.protocolbase import Protocol, ProtocolContext
from repro.sim.rng import RngFactory
from repro.stream.arrivals import PoissonProcess, materialize
from repro.stream.engine import POLICIES, StreamBudget, stream_simulate


class ChaosProtocol(Protocol):
    """Uniformly random behaviour driven by the job's own stream."""

    def on_act(self, slot: int) -> Optional[Message]:
        roll = self.ctx.rng.random()
        if roll < 0.25:
            return DataMessage(self.ctx.job_id)
        if roll < 0.35:
            return ControlMessage(self.ctx.job_id)
        return None

    def on_observe(self, slot: int, obs) -> None:
        if not self.succeeded and self.ctx.rng.random() < 0.02:
            self.gave_up = True


def chaos_factory(job: Job, rng: np.random.Generator) -> ChaosProtocol:
    return ChaosProtocol(ProtocolContext.for_job(job, rng))


jobs_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=30),
    ),
    min_size=1,
    max_size=12,
).map(
    lambda pairs: Instance(
        Job(i, r, r + w) for i, (r, w) in enumerate(pairs)
    )
)


@given(jobs_strategy, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_engine_invariants_under_chaos(instance, seed):
    result = simulate(instance, chaos_factory, seed=seed, trace=True)

    # no job lost or duplicated
    assert len(result) == len(instance)
    assert {o.job.job_id for o in result.outcomes} == {
        j.job_id for j in instance.jobs
    }

    for o in result.outcomes:
        if o.status is JobStatus.SUCCEEDED:
            assert o.job.release <= o.completion_slot < o.job.deadline
            assert o.transmissions >= 1
        else:
            assert o.completion_slot == -1
        assert o.status in (
            JobStatus.SUCCEEDED,
            JobStatus.FAILED,
            JobStatus.GAVE_UP,
        )

    # channel sanity: number of DataMessage successes >= distinct winners
    n_success_slots = sum(
        1 for r in result.trace.records if r.feedback.name == "SUCCESS"
    )
    assert result.n_succeeded <= n_success_slots


processes = st.builds(
    PoissonProcess,
    rate=st.floats(min_value=0.02, max_value=0.8),
    window_sizes=st.lists(
        st.sampled_from((4, 8, 16, 32, 64)), min_size=1, max_size=3, unique=True
    ).map(tuple),
)
budgets = st.one_of(
    st.none(),
    st.builds(
        StreamBudget,
        max_live=st.integers(min_value=1, max_value=8),
        policy=st.sampled_from(POLICIES),
    ),
)
jam_rates = st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.5))


@given(
    processes,
    st.integers(min_value=0, max_value=10_000),
    budgets,
    jam_rates,
)
@settings(max_examples=60, deadline=None)
def test_stream_conservation_under_chaos(process, seed, budget, p_jam):
    def jammer():
        return None if p_jam is None else StochasticJammer(p_jam)

    horizon = 300
    res = stream_simulate(
        process,
        chaos_factory,
        seed=seed,
        max_slots=horizon,
        budget=budget,
        jammer=jammer(),
        invariants=True,
        record_outcomes=budget is None,
    )
    assert (
        res.jobs_succeeded + res.jobs_missed + res.jobs_gave_up + res.jobs_shed
        == res.jobs_released
    )
    assert res.channel_attempts == res.transmissions
    assert 0 <= res.jammed_transmissions <= res.transmissions
    if p_jam is None:
        assert res.jammed_transmissions == 0
    if budget is not None:
        return

    instance = materialize(process, RngFactory(seed).stream("arrivals"), horizon)
    closed = simulate(
        instance, chaos_factory, seed=seed, jammer=jammer(), invariants=True
    )
    assert res.jobs_released == len(instance)
    for o in closed.outcomes:
        assert res.outcomes[o.job.job_id] == (
            o.status, o.completion_slot, o.transmissions
        )
    assert res.slots_simulated == closed.slots_simulated
    assert res.channel_attempts == closed.channel_attempts
    assert res.jammed_transmissions == closed.jammed_energy
