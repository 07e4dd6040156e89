"""Cross-validation of the optimized engine against a pinned reference.

``_reference_simulate`` below is the original (pre-optimization) slot
engine, kept verbatim as a behavioral pin: dict-of-live-jobs bookkeeping,
``MultipleAccessChannel`` stepping, per-job ``observation_for`` calls,
per-slot ``getattr(proto, "last_p")`` probes, and ``isinstance``-based
delivery dispatch.  The optimized :func:`repro.sim.engine.simulate` must
produce byte-identical results — same outcomes, same slot counts, same
trace contention — on every protocol family, with and without jamming.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.adversary import fault_plan
from repro.baselines import beb_factory
from repro.channel.channel import MultipleAccessChannel, SlotOutcome
from repro.channel.jamming import Jammer, PeriodicJammer, StochasticJammer
from repro.channel.messages import DataMessage, Message, TimekeeperBeacon
from repro.core.aligned import aligned_factory
from repro.core.punctual import punctual_factory
from repro.core.uniform import uniform_factory
from repro.errors import SimulationError
from repro.obs.telemetry import Telemetry
from repro.params import AlignedParams, PunctualParams
from repro.registry import KNOB_DEFAULTS, protocol_factories
from repro.sim.engine import ProtocolFactory, simulate
from repro.sim.instance import Instance
from repro.sim.job import Job, JobStatus
from repro.sim.metrics import JobOutcome, SimulationResult
from repro.sim.protocolbase import Protocol
from repro.sim.rng import RngFactory
from repro.sim.trace import TraceRecorder
from repro.workloads import batch_instance, single_class_instance

ALIGNED = AlignedParams(lam=1, tau=4, min_level=9)
PUNCTUAL = PunctualParams(
    aligned=AlignedParams(lam=1, tau=2, min_level=10),
    lam=2,
    pullback_exp=1,
    slingshot_exp=2,
)


def _reference_delivered_ids(outcome: SlotOutcome) -> Tuple[int, ...]:
    msg = outcome.message
    if msg is None:
        return ()
    if isinstance(msg, TimekeeperBeacon):
        if msg.payload is not None:
            return (msg.payload.sender,)
        return ()
    if isinstance(msg, DataMessage):
        return (msg.sender,)
    return ()


def _reference_simulate(
    instance: Instance,
    factory: ProtocolFactory,
    *,
    jammer: Optional[Jammer] = None,
    seed: int = 0,
    trace: bool = False,
    observers: Sequence = (),
    horizon: Optional[int] = None,
) -> SimulationResult:
    """The seed repository's engine, pinned for equivalence testing."""
    rngs = RngFactory(seed)
    channel = MultipleAccessChannel(jammer=jammer, rng=rngs.channel_rng())
    recorder = TraceRecorder() if trace else None

    jobs_sorted = list(instance.by_release)
    end = instance.horizon if horizon is None else min(horizon, instance.horizon)

    live: Dict[int, Tuple[Job, Protocol]] = {}
    outcomes: Dict[int, JobOutcome] = {}
    delivered_slot: Dict[int, int] = {}

    next_job = 0
    t = jobs_sorted[0].release if jobs_sorted else 0
    channel.now = t
    slots_simulated = 0

    def finalize(job: Job, proto: Protocol) -> None:
        if job.job_id in delivered_slot:
            status = JobStatus.SUCCEEDED
            comp = delivered_slot[job.job_id]
        elif proto.gave_up:
            status = JobStatus.GAVE_UP
            comp = -1
        else:
            status = JobStatus.FAILED
            comp = -1
        if proto.succeeded and status is not JobStatus.SUCCEEDED:
            raise SimulationError(
                f"job {job.job_id} claims success but no delivery was observed"
            )
        outcomes[job.job_id] = JobOutcome(job, status, comp, proto.transmissions)

    while t < end or live:
        if t >= end and not live:
            break
        while next_job < len(jobs_sorted) and jobs_sorted[next_job].release == t:
            job = jobs_sorted[next_job]
            proto = factory(job, rngs.job_rng(job.job_id))
            proto.begin(t)
            live[job.job_id] = (job, proto)
            next_job += 1
        if next_job < len(jobs_sorted) and not live:
            t = jobs_sorted[next_job].release
            channel.now = t
            continue

        transmissions: List[Tuple[int, Message]] = []
        contention = 0.0
        have_contention = False
        for jid, (job, proto) in live.items():
            msg = proto.act(t)
            if msg is not None:
                transmissions.append((jid, msg))
            p = getattr(proto, "last_p", None)
            if p is not None:
                contention += float(p)
                have_contention = True

        outcome = channel.step(transmissions)
        slots_simulated += 1
        for jid in _reference_delivered_ids(outcome):
            delivered_slot.setdefault(jid, t)

        transmitted_ids = {jid for jid, _ in transmissions}
        for jid, (job, proto) in live.items():
            obs = MultipleAccessChannel.observation_for(
                outcome, jid, jid in transmitted_ids
            )
            proto.observe(t, obs)

        if recorder is not None:
            recorder.record(
                outcome,
                n_live=len(live),
                contention=contention if have_contention else float("nan"),
            )
        if observers:
            ids = tuple(live.keys())
            for cb in observers:
                cb(outcome, ids)

        t += 1
        dead = [
            jid
            for jid, (job, proto) in live.items()
            if proto.done or t >= job.deadline
        ]
        for jid in dead:
            job, proto = live.pop(jid)
            finalize(job, proto)

        if next_job >= len(jobs_sorted) and not live:
            break

    for job in jobs_sorted:
        if job.job_id not in outcomes:
            outcomes[job.job_id] = JobOutcome(job, JobStatus.FAILED, -1, 0)

    ordered = tuple(outcomes[j.job_id] for j in instance.by_release)
    return SimulationResult(
        instance=instance,
        outcomes=ordered,
        slots_simulated=slots_simulated,
        trace=recorder,
    )


def _assert_identical(new: SimulationResult, ref: SimulationResult) -> None:
    assert new.slots_simulated == ref.slots_simulated
    assert len(new.outcomes) == len(ref.outcomes)
    for a, b in zip(new.outcomes, ref.outcomes):
        assert a.job == b.job
        assert a.status is b.status
        assert a.completion_slot == b.completion_slot
        assert a.transmissions == b.transmissions
    assert (new.trace is None) == (ref.trace is None)
    if new.trace is not None:
        assert len(new.trace) == len(ref.trace)
        for ra, rb in zip(new.trace.records, ref.trace.records):
            assert ra.slot == rb.slot
            assert ra.feedback is rb.feedback
            assert ra.n_transmitters == rb.n_transmitters
            assert ra.n_live == rb.n_live
            assert ra.jammed == rb.jammed
            assert ra.message_type == rb.message_type
            if math.isnan(rb.contention):
                assert math.isnan(ra.contention)
            else:
                assert ra.contention == rb.contention


CASES = [
    pytest.param(
        lambda: batch_instance(20, window=2048), lambda: uniform_factory(),
        id="uniform",
    ),
    pytest.param(
        lambda: single_class_instance(10, level=9),
        lambda: aligned_factory(ALIGNED),
        id="aligned",
    ),
    pytest.param(
        lambda: batch_instance(10, window=4096),
        lambda: punctual_factory(PUNCTUAL),
        id="punctual",
    ),
    pytest.param(
        lambda: batch_instance(24, window=4096), lambda: beb_factory(),
        id="beb",
    ),
]

JAMMERS = [
    pytest.param(lambda: None, id="nojam"),
    pytest.param(lambda: StochasticJammer(0.3), id="stochastic"),
    pytest.param(
        lambda: StochasticJammer(0.25, jam_silence=True), id="jam-silence"
    ),
    pytest.param(lambda: PeriodicJammer(7, [0, 3]), id="periodic"),
]

# ``simulate`` keywords of the traced baseline pins.
ADVERSARIES = {
    "clean": {},
    "jam": {"jammer": StochasticJammer(0.25)},
    "clock": {"faults": fault_plan("clock", 0.3)},
    "jobs": {"faults": fault_plan("jobs", 0.6)},
}


class TestEngineMatchesReference:
    @pytest.mark.parametrize("make_jammer", JAMMERS)
    @pytest.mark.parametrize("make_instance,make_factory", CASES)
    def test_identical_with_trace(self, make_instance, make_factory, make_jammer):
        for seed in (0, 3):
            new = simulate(
                make_instance(), make_factory(),
                jammer=make_jammer(), seed=seed, trace=True,
            )
            ref = _reference_simulate(
                make_instance(), make_factory(),
                jammer=make_jammer(), seed=seed, trace=True,
            )
            _assert_identical(new, ref)

    @pytest.mark.parametrize("make_instance,make_factory", CASES)
    def test_identical_without_trace(self, make_instance, make_factory):
        new = simulate(make_instance(), make_factory(), seed=1)
        ref = _reference_simulate(make_instance(), make_factory(), seed=1)
        _assert_identical(new, ref)

    def test_observer_callbacks_identical(self):
        def collect(log):
            def cb(outcome, ids):
                log.append((outcome.slot, outcome.feedback, ids))
            return cb

        new_log: list = []
        ref_log: list = []
        simulate(
            batch_instance(12, window=1024), uniform_factory(),
            seed=2, observers=[collect(new_log)],
        )
        _reference_simulate(
            batch_instance(12, window=1024), uniform_factory(),
            seed=2, observers=[collect(ref_log)],
        )
        assert new_log == ref_log

    def test_horizon_cut_identical(self):
        inst = batch_instance(8, window=2048)
        new = simulate(inst, uniform_factory(), seed=4, horizon=512)
        ref = _reference_simulate(inst, uniform_factory(), seed=4, horizon=512)
        _assert_identical(new, ref)

    def test_gapped_releases_identical(self):
        a = batch_instance(4, window=256)
        b = batch_instance(4, window=256).relabeled(start=50).shifted(5000)
        inst = a.merged(b)
        new = simulate(inst, uniform_factory(), seed=6, trace=True)
        ref = _reference_simulate(inst, uniform_factory(), seed=6, trace=True)
        _assert_identical(new, ref)


class TestPinnedSemantics:
    """Concrete pinned results for the current ENGINE_VERSION.

    The reference-equivalence tests above compare two implementations, so
    both would drift together if the RNG stream derivation changed.  These
    pins anchor the absolute semantics: any change to them must come with
    an ENGINE_VERSION bump (values below are for version 3, the blake2b
    stream keys)."""

    def _completions(self, res):
        return sorted(
            o.completion_slot for o in res.outcomes if o.succeeded
        )

    def test_version_is_pinned(self):
        from repro.sim.engine import ENGINE_VERSION

        assert ENGINE_VERSION == 3

    def test_uniform_pin(self):
        res = simulate(batch_instance(16, window=64), uniform_factory(), seed=1)
        assert res.n_succeeded == 12
        assert res.slots_simulated == 62
        assert self._completions(res) == [
            6, 14, 28, 32, 33, 36, 46, 47, 48, 49, 60, 61,
        ]

    def test_aligned_pin(self):
        res = simulate(
            single_class_instance(8, level=9), aligned_factory(ALIGNED), seed=2
        )
        assert res.n_succeeded == 8
        assert res.slots_simulated == 120
        assert self._completions(res) == [85, 87, 92, 94, 95, 106, 113, 119]

    def test_punctual_jammed_pin(self):
        res = simulate(
            batch_instance(6, window=2048),
            punctual_factory(PUNCTUAL),
            seed=3,
            jammer=StochasticJammer(0.2),
        )
        assert res.n_succeeded == 6
        assert res.slots_simulated == 523
        assert self._completions(res) == [302, 342, 352, 462, 502, 522]

    @pytest.mark.parametrize(
        "name, adversary, digest",
        [
            ("sawtooth", "clean", "1460553c14329b53"),
            ("sawtooth", "jam", "3fedc0adadaa16be"),
            ("sawtooth", "clock", "e4afab8e5e7d2256"),
            ("sawtooth", "jobs", "74240f84f0f17ceb"),
            ("soft", "clean", "ea286266d3e0f876"),
            ("soft", "jam", "eb55328248aba7a8"),
            ("soft", "clock", "58491f20f2564eee"),
            ("soft", "jobs", "ce573e7c5bf82544"),
            ("nocd", "clean", "4592582016c8a1af"),
            ("nocd", "jam", "99f64cce5be6c9ca"),
            ("nocd", "clock", "ee855f574568ed58"),
            ("nocd", "jobs", "b8a6434bcc3b3137"),
            ("beb", "clean", "696fc1fb93023064"),
            ("beb", "jam", "7fdd09c005a72db6"),
            ("beb", "clock", "08bc268fbba42348"),
            ("beb", "jobs", "087bcfb32c46299e"),
            ("slowfb", "clean", "091a6e0993a1b032"),
            ("slowfb", "jam", "5bc8fc3eec673c9a"),
            ("slowfb", "clock", "d30344f733d3ec37"),
            ("slowfb", "jobs", "9730ad24845b163b"),
            ("aloha", "clean", "98a74773520a9e3e"),
            ("aloha", "jam", "c8d3167bf7fbc7cc"),
            ("aloha", "clock", "58ddd68de04ec2bb"),
            ("aloha", "jobs", "547722c23df41e4d"),
            ("urgency", "clean", "17df8a1c688c52f7"),
            ("urgency", "jam", "725ad660eb240b30"),
            ("urgency", "clock", "85856b8859208462"),
            ("urgency", "jobs", "90c9302cc2fbc871"),
        ],
    )
    def test_traced_baseline_pin(self, name, adversary, digest):
        """Outcomes, slot count and traced per-slot contention (the sum
        of ``last_p``) of the backoff and ALOHA baselines: the untraced
        pins and the goldens cannot see where a protocol sets ``last_p``.
        Under clock and job faults a job may skip its act in a slot (a
        stalled clock, a crash) and still count the ``last_p`` of its
        latest act."""
        inst = batch_instance(64, window=256)
        res = simulate(
            inst,
            protocol_factories(KNOB_DEFAULTS, inst)[name],
            seed=2,
            trace=True,
            **ADVERSARIES[adversary],
        )
        assert _traced_digest(res) == digest

    @pytest.mark.parametrize(
        "name, adversary, digest",
        [
            ("aligned", "clean", "c00e6ebef7bc75d0"),
            ("aligned", "jam", "261736588fd19365"),
            ("aligned", "clock", "9b62cc2ce0abeb1b"),
            ("aligned", "jobs", "50e2a5d29dcf25b3"),
            ("trimmed", "clean", "c00e6ebef7bc75d0"),
            ("trimmed", "jam", "261736588fd19365"),
            ("trimmed", "clock", "9b62cc2ce0abeb1b"),
            ("trimmed", "jobs", "eb6ebf64b610cbf6"),
            ("punctual", "clean", "e5f68aefcc3e61af"),
            ("punctual", "jam", "3ab938ad259b69e2"),
            ("punctual", "clock", "f037082966f47d1c"),
            ("punctual", "jobs", "e9427b228f77aafe"),
        ],
    )
    def test_traced_pecking_order_pin(self, name, adversary, digest):
        """The same digest, plus the telemetry event records, for the
        protocols that run the pecking-order machine: ALIGNED and
        ``trimmed`` on one class-10 window, and PUNCTUAL on a batch in
        which one leader is elected and the other 63 jobs follow it
        through the embedded machine; under clock and job faults some
        of them are released to anarchy instead."""
        if name == "punctual":
            inst = batch_instance(64, window=2048)
            factory, seed = punctual_factory(PunctualParams()), 0
        else:
            inst = single_class_instance(32, level=10)
            factory, seed = protocol_factories(KNOB_DEFAULTS, inst)[name], 2
        tele = Telemetry()
        res = simulate(
            inst, factory, seed=seed, trace=True, telemetry=tele,
            **ADVERSARIES[adversary],
        )
        assert _traced_digest(res, tele.events.as_records()) == digest


def _traced_digest(res, events=None):
    """Outcomes, slot count, traced contention and (given) event records."""
    h = hashlib.sha256()
    h.update(repr([
        (o.job.job_id, o.status.name, o.completion_slot, o.transmissions)
        for o in res.outcomes
    ]).encode())
    h.update(repr(res.slots_simulated).encode())
    h.update(res.trace.contentions().tobytes())
    if events is not None:
        h.update(repr(events).encode())
    return h.hexdigest()[:16]
