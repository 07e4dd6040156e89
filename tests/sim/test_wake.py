"""The wake promise: sleeping jobs leave the slot loop, bit for bit.

A protocol whose :attr:`~repro.sim.protocolbase.Protocol.wake` is a later
slot promises that its hooks change nothing until then, so the slot core
leaves it out of the act loop, fan-out and retire scan, and the drivers
jump over slots every live job sleeps through.  A per-slot hook makes the
core call every job in every slot: a no-op ``observers=`` callback in
:func:`simulate`, telemetry in :func:`stream_simulate`.  Each test runs
one case both ways and compares everything the drivers count: outcomes,
slots, channel attempts, slot kinds and checkpoint slots.
"""

import shutil

import pytest

import repro.sim.engine as engine
import repro.stream.engine as stream_engine
from repro.adversary import FAMILIES, fault_plan
from repro.channel.jamming import StochasticJammer
from repro.channel.messages import DataMessage
from repro.core.punctual import PunctualProtocol, Stage
from repro.core.uniform import UniformProtocol
from repro.obs.telemetry import Telemetry
from repro.params import UniformParams
from repro.registry import (
    STREAM_PROTOCOLS,
    protocol_factories,
    protocol_factory,
    punctual_params,
)
from repro.sim.instance import Instance
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol, ProtocolContext
from repro.sim.watchdog import Watchdog
from repro.stream.arrivals import PoissonProcess
from repro.stream.checkpoint import CheckpointConfig, CheckpointError, load_checkpoint
from repro.stream.engine import StreamBudget, stream_simulate
from repro.workloads import batch_instance

#: The registry protocols that keep the promise.
SLEEPERS = ("uniform", "beb", "aloha", "punctual")

ADVERSARIES = {
    "clean": {},
    "jam": {"jammer": StochasticJammer(0.25)},
    "jam-silence": {"jammer": StochasticJammer(0.25, jam_silence=True)},
    "clock": {"faults": fault_plan("clock", 0.3)},
    "jobs": {"faults": fault_plan("jobs", 0.6)},
}

INSTANCES = {
    "batch": batch_instance(12, 1024),
    # Releases while others sleep, and a gap with nobody live.
    "staggered": Instance(
        [
            Job(i, r, r + w)
            for i, (r, w) in enumerate(
                [(0, 512), (40, 2048), (90, 1024), (300, 4096), (301, 512),
                 (900, 2048), (9000, 1024), (9100, 512)]
            )
        ]
    ),
}

PROCESS = PoissonProcess(rate=0.2, window_sizes=(64, 256, 1024))


def _noop(outcome, ids):
    pass


class _Recorded(engine.SlotCore):
    """A slot core that keeps itself and counts the job-slots it leaves
    out: sleepers in a step, and every live job in a skipped slot."""

    __slots__ = ()
    made: list = []
    slept = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)

    def step(self, t, finalize):
        if self.napping:
            _Recorded.slept += sum(1 for w in self.wake if w > t)
        return super().step(t, finalize)

    def skip(self, t, stop):
        _Recorded.slept += (stop - t) * len(self.wake)
        return super().skip(t, stop)


@pytest.fixture
def recorded(monkeypatch):
    """Simulations in this test build :class:`_Recorded` cores."""
    monkeypatch.setattr(engine, "SlotCore", _Recorded)
    monkeypatch.setattr(stream_engine, "SlotCore", _Recorded)
    _Recorded.made = []
    _Recorded.slept = 0
    return _Recorded


def _slot_kinds(core):
    return (
        core.slots, core.attempts, core.silence_slots, core.success_slots,
        core.collision_slots, core.jammed_slots,
    )


def _closed(instance, factory, recorded, **kw):
    """Everything one closed run counts, and the job-slots it left out."""
    recorded.made, recorded.slept = [], 0
    res = engine.simulate(instance, factory, seed=4, **kw)
    (core,) = recorded.made
    outcomes = [
        (o.status, o.completion_slot, o.transmissions, o.jammed_transmissions)
        for o in res.outcomes
    ]
    counted = (outcomes, res.slots_simulated, res.channel_attempts,
               _slot_kinds(core), res.watchdog)
    return counted, recorded.slept


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
@pytest.mark.parametrize("workload", sorted(INSTANCES))
def test_closed_runs_sleep_bit_exactly(recorded, workload, adversary):
    instance = INSTANCES[workload]
    kw = ADVERSARIES[adversary]
    for name, factory in sorted(protocol_factories({}, instance).items()):
        asleep, slept = _closed(instance, factory, recorded, **kw)
        awake, none = _closed(
            instance, factory, recorded, observers=[_noop], **kw
        )
        assert asleep == awake, name
        assert none == 0
        # Alone in the staggered instance, a BEB job sends at once, and
        # jobs with fault records keep their per-slot calls.
        if name not in SLEEPERS:
            assert slept == 0, name
        elif workload == "batch" and "faults" not in kw:
            assert slept > 0, name


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_adversary_family_sleeps_bit_exactly(recorded, family):
    """Stateful and reactive jammers see each skipped slot as silent."""
    kw = {"faults": fault_plan(family, 0.3)}
    for instance in INSTANCES.values():
        factories = protocol_factories({}, instance)
        for name in SLEEPERS:
            for horizon in (None, 700):
                asleep, _ = _closed(
                    instance, factories[name], recorded, horizon=horizon, **kw
                )
                awake, _ = _closed(
                    instance, factories[name], recorded, horizon=horizon,
                    observers=[_noop], **kw,
                )
                assert asleep == awake, (name, horizon)


#: ``stream_simulate`` limits and budgets: evictions, a blocked FIFO that
#: drains as slots free up, and an unbounded run that stops releasing at
#: ``max_slots``.
STREAM_RUNS = {
    "shed": dict(
        max_jobs=300,
        budget=StreamBudget(max_live=6, policy="shed-loosest-deadline"),
    ),
    "block": dict(
        max_jobs=300,
        budget=StreamBudget(max_live=6, policy="block", queue_capacity=8),
    ),
    "max-slots": dict(max_slots=1500),
}


def _stream(factory, path, marks, run, **kw):
    """Everything one streaming run counts, with its checkpoint marks."""
    marks.clear()
    res = stream_simulate(
        PROCESS,
        factory,
        seed=6,
        checkpoint=CheckpointConfig(str(path), every_slots=150),
        record_outcomes=True,
        reservoir_capacity=32,
        **STREAM_RUNS[run],
        **kw,
    )
    return (
        res.to_dict(), res.outcomes, res.channel_attempts,
        res.jammed_transmissions, res.latency_sample.values.tolist(),
        list(marks),
    )


@pytest.mark.parametrize("run", sorted(STREAM_RUNS))
@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_stream_runs_sleep_bit_exactly(
    recorded, tmp_path, monkeypatch, adversary, run
):
    marks = []  # (slot, slots simulated) of each checkpoint written
    save = stream_engine.save_checkpoint

    def record(path, state):
        marks.append((state["t"], state["core"].slots))
        save(path, state)

    monkeypatch.setattr(stream_engine, "save_checkpoint", record)
    kw = ADVERSARIES[adversary]
    for name in STREAM_PROTOCOLS:
        factory = protocol_factory(name, {}, Instance(()))
        recorded.slept = 0
        asleep = _stream(factory, tmp_path / f"{name}-a", marks, run, **kw)
        slept = recorded.slept
        awake = _stream(
            factory, tmp_path / f"{name}-b", marks, run,
            telemetry=Telemetry(), **kw,
        )
        assert asleep == awake, name
        assert asleep[-1], "no checkpoint written"
        if name not in SLEEPERS:
            assert slept == 0, name
        elif "faults" not in kw:
            assert slept > 0, name


class _LateUniform(UniformProtocol):
    """Promises one slot too late: it sleeps through its own send."""

    def on_begin(self, slot):
        super().on_begin(slot)
        self.wake += 1


class _LatePunctual(PunctualProtocol):
    """An anarchist that promises one slot too late, every time."""

    def on_observe(self, slot, obs):
        super().on_observe(slot, obs)
        if self.stage is Stage.ANARCHIST:
            self.wake += 1


@pytest.mark.parametrize(
    "make",
    [
        lambda ctx: _LateUniform(ctx, UniformParams()),
        lambda ctx: _LatePunctual(ctx, punctual_params({})),
    ],
    ids=["uniform", "punctual"],
)
def test_a_late_wake_fails_the_comparison(recorded, make):
    """The comparison above catches a wake one slot late."""

    def factory(job, rng):
        return make(ProtocolContext.for_job(job, rng))

    instance = INSTANCES["batch"]
    asleep, _ = _closed(instance, factory, recorded)
    awake, _ = _closed(instance, factory, recorded, observers=[_noop])
    assert asleep != awake


class _Withdrawing(Protocol):
    """Sleeps until a drawn slot, withdraws its promise there
    (``wake = None``), and from then on sends on each coin that comes up."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.wake = 0

    def on_begin(self, slot):
        self.sleep_until(slot + int(self.ctx.rng.integers(self.ctx.window)))

    def on_act(self, slot):
        if self.wake is None and self.ctx.rng.random() < 0.125:
            return DataMessage(self.ctx.job_id)
        return None

    def on_observe(self, slot, obs):
        if self.wake is not None and slot >= self.wake:
            self.wake = None


class _Unannounced(UniformProtocol):
    """Moves its wake by plain assignment, which tells no slot core."""

    def sleep_until(self, slot):
        self.wake = slot


@pytest.mark.parametrize(
    "make",
    [_Withdrawing, lambda ctx: _Unannounced(ctx, UniformParams())],
    ids=["withdrawn", "unannounced"],
)
@pytest.mark.parametrize("adversary", ["clean", "jam"])
def test_promises_the_core_was_not_told_of_stay_exact(recorded, make, adversary):
    """A withdrawn promise makes the job an every-slot job again, and a
    wake moved without :meth:`Protocol.sleep_until` is read only when the
    core reads the job's wake anyway: both run bit-exactly."""

    def factory(job, rng):
        return make(ProtocolContext.for_job(job, rng))

    kw = ADVERSARIES[adversary]
    for instance in INSTANCES.values():
        asleep, slept = _closed(instance, factory, recorded, **kw)
        awake, _ = _closed(instance, factory, recorded, observers=[_noop], **kw)
        assert asleep == awake
        assert slept > 0


@pytest.mark.parametrize(
    "watchdog",
    [Watchdog(max_slots=700), Watchdog(stall_factor=0.05)],
    ids=["max-slots", "stall"],
)
@pytest.mark.parametrize("name", SLEEPERS)
def test_watchdog_trips_at_the_same_slot(recorded, name, watchdog):
    instance = INSTANCES["batch"]
    factory = protocol_factory(name, {}, instance)
    asleep, _ = _closed(instance, factory, recorded, watchdog=watchdog)
    awake, _ = _closed(
        instance, factory, recorded, watchdog=watchdog, observers=[_noop]
    )
    assert asleep == awake
    if name == "uniform":
        assert asleep[-1] is not None  # the case trips at all


@pytest.mark.parametrize("name", SLEEPERS)
def test_checkpoint_written_while_jobs_sleep_resumes(tmp_path, monkeypatch, name):
    """A run resumed from a checkpoint cut while a live job sleeps ends as
    the uninterrupted run does."""
    cut = tmp_path / "asleep.ckpt"
    save = stream_engine.save_checkpoint

    def keep_first_asleep(path, state):
        save(path, state)
        if not cut.exists() and max(state["core"].wake, default=0) > state["t"]:
            shutil.copyfile(path, cut)

    monkeypatch.setattr(stream_engine, "save_checkpoint", keep_first_asleep)

    def run(path, resume=False):
        res = stream_simulate(
            PROCESS,
            protocol_factory(name, {}, Instance(())),
            seed=2,
            max_jobs=300,
            jammer=StochasticJammer(0.1),
            checkpoint=CheckpointConfig(str(path), every_slots=97),
            resume=resume,
            record_outcomes=True,
            reservoir_capacity=32,
        )
        kept = {
            k: v for k, v in res.to_dict().items()
            if k not in ("checkpoints_written", "resumed_at_slot")
        }
        return res, (kept, res.outcomes, res.latency_sample.values.tolist())

    _, full = run(tmp_path / "ck")
    state, _ = load_checkpoint(str(cut))
    resumed, got = run(cut, resume=True)
    assert resumed.resumed_at_slot == state["t"] > 0
    assert got == full


class TestProtocolIdentity:
    """A checkpoint records its registry protocol and resumes under it only."""

    def _run(self, tmp_path, name, **kw):
        return stream_simulate(
            PoissonProcess(rate=0.25, window_sizes=(16, 64)),
            protocol_factory(name, {}, Instance(())),
            seed=3,
            max_jobs=600,
            checkpoint=CheckpointConfig(str(tmp_path / "ck"), every_slots=500),
            **kw,
        )

    def test_resuming_under_another_protocol_is_refused(self, tmp_path):
        self._run(tmp_path, "sawtooth")
        with pytest.raises(CheckpointError, match="sawtooth"):
            self._run(tmp_path, "beb", resume=True)

    def test_knobs_that_build_the_same_protocol_share_an_identity(self):
        def identity(name, knobs):
            return protocol_factory(name, knobs, Instance(())).identity

        # PUNCTUAL runs with lam at least 2.
        assert identity("punctual", {"lam": 1}) == identity("punctual", {"lam": 2})
        assert identity("punctual", {}) != identity("punctual", {"lam": 3})
        # Workload knobs build no protocol.
        assert identity("beb", {"n": 3, "window": 64}) == identity("beb", {})

    def test_resuming_under_other_knobs_is_refused(self, tmp_path):
        self._run(tmp_path, "punctual")
        other = protocol_factory("punctual", {"lam": 3}, Instance(()))
        with pytest.raises(CheckpointError, match="punctual"):
            stream_simulate(
                PoissonProcess(rate=0.25, window_sizes=(16, 64)),
                other,
                seed=3,
                max_jobs=600,
                checkpoint=CheckpointConfig(str(tmp_path / "ck"), every_slots=500),
                resume=True,
            )

    def test_a_factory_without_identity_resumes(self, tmp_path):
        full = self._run(tmp_path, "beb")
        state, _ = load_checkpoint(str(tmp_path / "ck"))
        assert state["identity"] == ("beb", None)
        inner = protocol_factory("beb", {}, Instance(()))
        resumed = stream_simulate(
            PoissonProcess(rate=0.25, window_sizes=(16, 64)),
            lambda job, rng: inner(job, rng),
            seed=3,
            max_jobs=600,
            checkpoint=CheckpointConfig(str(tmp_path / "ck"), every_slots=500),
            resume=True,
        )
        assert resumed.resumed_at_slot > 0
        assert resumed.jobs_succeeded == full.jobs_succeeded

    def test_cli_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        ck = str(tmp_path / "ck.bin")
        base = [
            "stream", "--rho", "0.25", "--windows", "16,64",
            "--max-jobs", "1500", "--checkpoint", ck,
            "--checkpoint-every", "1000",
        ]
        assert main(base + ["--protocol", "sawtooth"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(base + ["--protocol", "beb", "--resume"])
        assert exc.value.code != 0
        assert "refusing to resume" in str(exc.value.code)
        assert main(base + ["--protocol", "sawtooth", "--resume"]) == 0
        assert "resumed at slot" in capsys.readouterr().out
