"""The slot core's two protocol bindings: direct hooks and guarded methods.

A clean job's protocol is bound *directly*: :class:`SlotCore` calls its
``on_act``/``on_observe`` hooks and does the base class's bookkeeping
itself (sends counted, own delivery marked).  Everything else keeps the
guarded :meth:`Protocol.act`/:meth:`Protocol.observe`: jobs with per-job
faults, every job of a run with an invariant checker or feedback
corruption, classes that override ``act``/``observe``/``done``, and
duck-typed protocols.  ``invariants=True`` guards every job, so each
comparison below runs one binding against the other, send for send.
"""

import pytest

from repro.analysis.capture import StageCapture
from repro.baselines.sawtooth import sawtooth_factory
from repro.channel.jamming import StochasticJammer
from repro.core.punctual import PunctualProtocol, Stage, punctual_factory
from repro.core.uniform import uniform_factory
from repro.faults.plan import FaultPlan, FeedbackFault, JobFault
from repro.params import PunctualParams
from repro.registry import PROTOCOLS, protocol_factory
from repro.sim.engine import SlotCore, simulate
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol, ProtocolContext
from repro.sim.rng import RngFactory
from repro.stream.arrivals import PoissonProcess
from repro.stream.checkpoint import CheckpointConfig, load_checkpoint
from repro.stream.engine import StreamBudget, stream_simulate
from repro.workloads import batch_instance

INSTANCE = batch_instance(12, 1024)
JAMS = (None, 0.25)


def _jammer(p):
    return None if p is None else StochasticJammer(p)


def _per_job(res):
    return [(o.status, o.completion_slot, o.transmissions) for o in res.outcomes]


@pytest.mark.parametrize("jam", JAMS)
@pytest.mark.parametrize("name", PROTOCOLS)
def test_direct_and_guarded_bindings_agree(name, jam):
    factory = protocol_factory(name, {}, INSTANCE)
    direct = simulate(INSTANCE, factory, jammer=_jammer(jam), seed=3)
    guarded = simulate(
        INSTANCE, factory, jammer=_jammer(jam), seed=3, invariants=True
    )
    assert _per_job(direct) == _per_job(guarded)
    assert direct.slots_simulated == guarded.slots_simulated
    assert direct.channel_attempts == guarded.channel_attempts
    # Each send is counted once, by exactly one of the core or act().
    assert direct.total_energy == direct.channel_attempts > 0


@pytest.mark.parametrize("factory", [sawtooth_factory, uniform_factory])
def test_stream_bindings_agree(factory):
    def run(**kw):
        return stream_simulate(
            PoissonProcess(rate=0.3, window_sizes=(16, 64)),
            factory(),
            seed=7,
            max_jobs=400,
            budget=StreamBudget(max_live=8, policy="shed-loosest-deadline"),
            jammer=StochasticJammer(0.25),
            record_outcomes=True,
            **kw,
        )

    direct, guarded = run(), run(invariants=True)
    assert direct.outcomes == guarded.outcomes
    assert direct.to_dict() == guarded.to_dict()
    assert direct.channel_attempts == guarded.channel_attempts
    assert direct.transmissions == direct.channel_attempts > 0


class _Wrapper:
    """A duck-typed protocol: forwards everything, subclasses nothing."""

    def __init__(self, inner):
        self._inner = inner

    def act(self, t):
        return self._inner.act(t)

    def observe(self, t, obs):
        self._inner.observe(t, obs)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class _Quitter(Protocol):
    """Done from the start: gives up in ``on_begin``."""

    def on_begin(self, slot):
        self.gave_up = True

    def on_act(self, slot):
        raise AssertionError("a done protocol must not act")


class _Overrides(PunctualProtocol):
    def observe(self, slot, obs):
        super().observe(slot, obs)


def _admitted(factory, *, plan=None, invariants=False):
    core = SlotCore(RngFactory(0), None, plan)
    core.attach(factory, invariants=invariants)
    core.admit(Job(0, 0, 64), 0)
    return core


def _punctual(job, rng):
    return PunctualProtocol(ProtocolContext.for_job(job, rng), PunctualParams())


class TestAdmission:
    def test_clean_protocol_binds_its_hooks(self):
        core = _admitted(_punctual)
        proto = core.protos[0]
        assert core.direct == [True]
        assert core.act[0] == proto.on_act
        assert core.observe[0] == proto.on_observe

    @pytest.mark.parametrize(
        "kw",
        [
            {"invariants": True},
            {"plan": FaultPlan(feedback=FeedbackFault(p_silence_to_noise=0.1))},
        ],
        ids=["checker", "feedback-corruption"],
    )
    def test_run_wide_hooks_keep_every_job_guarded(self, kw):
        core = _admitted(_punctual, **kw)
        assert core.direct == [False]
        assert core.act[0] == core.protos[0].act

    def test_faulted_job_keeps_the_guards(self):
        plan = FaultPlan(jobs=JobFault(p_crash=1.0))
        core = SlotCore(RngFactory(0), None, plan)
        core.attach(_punctual)
        job = Job(0, 0, 64)
        rec = core.fault_record(job)
        assert rec is not None and rec.crash_slot >= 0
        core.admit(job, rec.activation, rec)
        assert core.direct == [False]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda job, rng: _Overrides(
                ProtocolContext.for_job(job, rng), PunctualParams()
            ),
            lambda job, rng: _Wrapper(_punctual(job, rng)),
            lambda job, rng: _Quitter(ProtocolContext.for_job(job, rng)),
            StageCapture(PunctualParams()).factory(),
        ],
        ids=["overrides-observe", "duck-typed", "done-at-begin", "stage-capture"],
    )
    def test_classes_that_need_the_guards_keep_them(self, factory):
        core = _admitted(factory)
        assert core.direct == [False]
        assert core.act[0] == core.protos[0].act


def test_observe_override_sees_every_slot():
    """StageCapture overrides ``observe``; it must still run each slot.

    An observer reads each live job's stage after every fan-out: the
    transitions it sees are exactly the ones the override recorded.
    """
    params = PunctualParams()
    instance = batch_instance(16, 1024)
    capture = StageCapture(params)
    polled, last = [], {}

    def poll(outcome, ids):
        for jid in ids:
            stage = capture.protocols[jid].stage
            before = last.get(jid, Stage.SYNCING)
            if stage is not before:
                polled.append((outcome.slot, jid, before, stage))
            last[jid] = stage

    res = simulate(instance, capture.factory(), seed=2, observers=[poll])
    plain = simulate(instance, punctual_factory(params), seed=2)
    assert _per_job(res) == _per_job(plain)
    assert capture.transitions
    assert [
        (t.slot, t.job_id, t.before, t.after) for t in capture.transitions
    ] == polled


def test_duck_typed_wrapper_counts_each_send_once():
    factory = protocol_factory("punctual", {}, INSTANCE)

    def wrapped(job, rng):
        return _Wrapper(factory(job, rng))

    res = simulate(INSTANCE, wrapped, jammer=StochasticJammer(0.25), seed=5)
    plain = simulate(INSTANCE, factory, jammer=StochasticJammer(0.25), seed=5)
    assert _per_job(res) == _per_job(plain)
    assert res.total_energy == res.channel_attempts == plain.channel_attempts > 0


class TestCheckpoints:
    BUSY = PoissonProcess(rate=0.3, window_sizes=(16, 64))

    def _run(self, path, **kw):
        return stream_simulate(
            self.BUSY,
            sawtooth_factory(),
            seed=5,
            max_jobs=1200,
            jammer=StochasticJammer(0.25),
            checkpoint=CheckpointConfig(path, every_slots=500),
            record_outcomes=True,
            **kw,
        )

    @staticmethod
    def _comparable(res):
        d = res.to_dict()
        d.pop("checkpoints_written")
        d.pop("resumed_at_slot")
        return d, res.outcomes

    @pytest.mark.parametrize("invariants", [False, True])
    def test_direct_checkpoint_resumes_bit_exactly(self, tmp_path, invariants):
        path = str(tmp_path / "ck.bin")
        full = self._run(path)
        state, _ = load_checkpoint(path)
        assert any(state["core"].direct)  # written with direct jobs live
        resumed = self._run(path, resume=True, invariants=invariants)
        assert resumed.resumed_at_slot > 0
        assert self._comparable(resumed) == self._comparable(full)

    def test_resuming_with_a_checker_guards_every_live_job(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        self._run(path)
        state, _ = load_checkpoint(path)
        core = state["core"]
        assert any(core.direct)
        core.attach(sawtooth_factory(), invariants=True, t=state["t"])
        assert core.protos and not any(core.direct)
        assert core.act == [p.act for p in core.protos]
        assert core.observe == [p.observe for p in core.protos]
