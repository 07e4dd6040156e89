"""Mid-run stream checkpoints of every streamable protocol resume bit-exactly.

Each entry of :data:`RUNS` is cut at its first checkpoint: the *parent*
run writes it at the cut slot and stops, as a run killed just after the
write would, and the tests resume a copy of it.  The cut slots catch
live jobs mid-run:

* ``punctual``, ``punctual-estimating``, ``punctual-anarchy-estimating``
  and ``punctual-anarchy-broadcasting`` — PUNCTUAL followers whose
  embedded ALIGNED machines have class runs part-way through broadcast
  or estimation, the last two with anarchists beside them;
* the other streamable protocols — live jobs that have backed off, sent
  or drawn coins ahead.

The parent checkpoints also pin what a checkpoint holds: the attribute
names the objects of each ``repro`` class hold once loaded hash to
:data:`LAYOUT`'s digest for the current ``STREAM_VERSION``.
"""

import enum
import hashlib
import json
import shutil
import types
from collections import deque

import pytest

import repro.stream.engine as engine
from repro.baselines import (
    BinaryExponentialBackoff,
    CollisionSofteningBackoff,
    NoCollisionDetectionBackoff,
    SawtoothBackoff,
    SlottedAloha,
    SlowFeedbackBackoff,
    UrgencyAloha,
    beb_factory,
    nocd_factory,
    sawtooth_factory,
    slowfeedback_factory,
    softened_factory,
    urgency_aloha_factory,
    window_scaled_aloha_factory,
)
from repro.channel.jamming import StochasticJammer
from repro.core.punctual import Stage, punctual_factory
from repro.core.uniform import uniform_factory
from repro.obs.telemetry import Telemetry
from repro.params import PunctualParams
from repro.registry import STREAM_PROTOCOLS
from repro.sim.engine import SlotCore
from repro.stream.arrivals import PoissonProcess
from repro.stream.checkpoint import CheckpointConfig, load_checkpoint
from repro.stream.engine import STREAM_VERSION, StreamBudget, stream_simulate

PUNCTUAL = dict(
    process=PoissonProcess(rate=0.02, window_sizes=(2048,)),
    factory=punctual_factory(PunctualParams()),
    seed=3,
    max_jobs=120,
    jammer=StochasticJammer(0.1),
)
OVERLOAD = dict(
    process=PoissonProcess(rate=0.3, window_sizes=(16, 64)),
    max_jobs=600,
    budget=StreamBudget(max_live=8, policy="shed-loosest-deadline"),
    jammer=StochasticJammer(0.25),
)
# case name -> (keyword arguments of the run, slots between checkpoints)
RUNS = {
    "uniform": (dict(OVERLOAD, factory=uniform_factory()), 600),
    "punctual": (PUNCTUAL, 1400),
    "punctual-estimating": (PUNCTUAL, 869),
    "punctual-anarchy-estimating": (PUNCTUAL, 1060),
    "punctual-anarchy-broadcasting": (PUNCTUAL, 1240),
    "sawtooth": (dict(OVERLOAD, factory=sawtooth_factory()), 400),
    "soft": (dict(OVERLOAD, factory=softened_factory()), 600),
    "nocd": (dict(OVERLOAD, factory=nocd_factory()), 900),
    "beb": (dict(OVERLOAD, factory=beb_factory()), 600),
    "slowfb": (dict(OVERLOAD, factory=slowfeedback_factory()), 600),
    "aloha": (dict(OVERLOAD, factory=window_scaled_aloha_factory()), 500),
    "urgency": (dict(OVERLOAD, factory=urgency_aloha_factory()), 800),
}

#: The digest of the attribute names each ``repro`` class's objects hold
#: in the loaded parent checkpoints, by ``STREAM_VERSION``.  A change to
#: what a checkpoint holds changes the digest: bump ``STREAM_VERSION``
#: and pin the new one.
LAYOUT = {3: "9c48923a49e9dec7"}


def _run(name, checkpoint=None, resume=False, invariants=False, telemetry=None):
    kw, _ = RUNS[name]
    kw = dict(kw)
    return stream_simulate(
        kw.pop("process"),
        kw.pop("factory"),
        seed=kw.pop("seed", 5),
        checkpoint=checkpoint,
        resume=resume,
        record_outcomes=True,
        reservoir_capacity=32,
        invariants=invariants,
        telemetry=telemetry,
        **kw,
    )


class _Cut(Exception):
    """Stops a parent run after its first checkpoint write."""


@pytest.fixture(scope="module")
def parents(tmp_path_factory):
    """``parent(name)``: the path of the run's parent checkpoint, written
    once per module."""
    written = {}

    def parent(name):
        if name not in written:
            path = tmp_path_factory.mktemp(name) / "ck.bin"
            save = engine.save_checkpoint

            def save_and_stop(p, state):
                save(p, state)
                raise _Cut

            every = RUNS[name][1]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "save_checkpoint", save_and_stop)
                with pytest.raises(_Cut):
                    _run(name, CheckpointConfig(str(path), every_slots=every))
            written[name] = path
        return written[name]

    return parent


@pytest.fixture
def copy(parents, tmp_path):
    """``copy(name)``: a copy of the run's parent checkpoint to resume."""

    def make(name):
        path = tmp_path / "ck.bin"
        shutil.copyfile(parents(name), path)
        return path

    return make


def _comparable(res):
    d = res.to_dict()
    d.pop("checkpoints_written")
    d.pop("resumed_at_slot")
    return d, res.outcomes, sorted(res.latency_sample.values.tolist())


def _contention(telemetry):
    """Per-slot contention, the sum of live ``last_p`` values."""
    return telemetry.metrics.histogram("contention").values


def test_every_streamable_protocol_has_a_case():
    cased = {name.split("-")[0] for name in RUNS}
    assert cased == set(STREAM_PROTOCOLS)


def _broadcasting(run):
    return run.estimate is not None and not run.done


def _estimating(run):
    return run.tally.steps_seen > 0 and run.estimate is None


@pytest.mark.parametrize(
    "name, in_state",
    [
        ("punctual", _broadcasting),
        ("punctual-estimating", lambda r: r.tally.steps_seen > 0),
        ("punctual-anarchy-estimating", _estimating),
        ("punctual-anarchy-broadcasting", _broadcasting),
    ],
)
def test_punctual_fixtures_hold_running_class_runs(parents, name, in_state):
    state, _ = load_checkpoint(str(parents(name)))
    protos = state["core"].protos
    assert any(p._origin is not None for p in protos)
    if "anarchy" in name:
        assert any(p.stage is Stage.ANARCHIST for p in protos)
    runs = [
        run
        for p in protos
        if p.stage is Stage.FOLLOW and p.machine is not None
        for run in p.machine.view.runs.values()
        if run.level > 0
    ]
    assert any(in_state(r) for r in runs)


@pytest.mark.parametrize(
    "name, cls, progressed",
    [
        ("sawtooth", SawtoothBackoff, lambda p: p.run_size > p.initial_run),
        ("soft", CollisionSofteningBackoff, lambda p: p.window_size > 1.0),
        ("nocd", NoCollisionDetectionBackoff, lambda p: p.estimate > 2.0),
        ("beb", BinaryExponentialBackoff, lambda p: p.attempt > 0),
        ("slowfb", SlowFeedbackBackoff, lambda p: p.epoch_len > p.base),
        ("aloha", SlottedAloha, lambda p: p.transmissions > 0),
        ("urgency", UrgencyAloha, lambda p: p.transmissions > 0),
    ],
)
def test_baseline_fixtures_hold_live_jobs(parents, name, cls, progressed):
    state, _ = load_checkpoint(str(parents(name)))
    protos = state["core"].protos
    assert len(protos) >= 4
    assert all(type(p) is cls for p in protos)
    assert any(progressed(p) for p in protos)


@pytest.mark.parametrize("invariants", [False, True])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_parent_checkpoint_resumes_bit_exactly(copy, name, invariants):
    every = RUNS[name][1]
    part, full = Telemetry(), Telemetry()
    resumed = _run(
        name, CheckpointConfig(str(copy(name)), every_slots=every), True,
        invariants, part,
    )
    assert resumed.resumed_at_slot > 0
    assert _comparable(resumed) == _comparable(_run(name, telemetry=full))
    # The resumed slots report the contention the uninterrupted run did.
    tail = _contention(part)
    assert tail and _contention(full)[-len(tail):] == tail


#: Runs whose resumed jobs sleep (see the wake promise in
#: repro.sim.protocolbase).
SLEEPING = {
    "uniform", "beb", "aloha", "punctual", "punctual-estimating",
    "punctual-anarchy-estimating", "punctual-anarchy-broadcasting",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_parent_checkpoint_resumes_asleep(copy, monkeypatch, name):
    """With no per-slot hook attached, the resumed jobs sleep on the
    wakes their protocols were pickled with."""
    path = copy(name)
    slept = []
    step = SlotCore.step

    def counted(core, t, finalize):
        if core.napping:
            slept.append(sum(1 for w in core.wake if w > t))
        return step(core, t, finalize)

    monkeypatch.setattr(SlotCore, "step", counted)
    every = RUNS[name][1]
    resumed = _run(name, CheckpointConfig(str(path), every_slots=every), True)
    assert resumed.resumed_at_slot > 0
    assert (sum(slept) > 0) == (name in SLEEPING)
    assert _comparable(resumed) == _comparable(_run(name))


@pytest.mark.parametrize("name", ["sawtooth", "soft", "nocd", "beb", "slowfb"])
def test_current_checkpoint_resumes_bit_exactly(tmp_path, name):
    """The same runs resume bit-exactly from the last checkpoint a whole
    run wrote (unread coin blocks, cached values and slowfb's descending
    offsets)."""
    config = CheckpointConfig(str(tmp_path / "ck.bin"), every_slots=RUNS[name][1])
    part, full = Telemetry(), Telemetry()
    first = _run(name, config, telemetry=full)
    resumed = _run(name, config, True, telemetry=part)
    assert resumed.resumed_at_slot > 0
    assert _comparable(resumed) == _comparable(first)
    tail = _contention(part)
    assert tail and _contention(full)[-len(tail):] == tail


def _pickled_names(state):
    """For each ``repro`` class reachable from ``state``, the attribute
    names its objects hold (instance dict plus set slots), walking
    lists, tuples, dicts, deques and bound methods' ``__self__``."""
    names = {}
    seen = set()
    todo = [state]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple, deque)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj)
            todo.extend(obj.values())
        elif isinstance(obj, types.MethodType):
            todo.append(obj.__self__)
        elif type(obj).__module__.startswith("repro.") and not isinstance(
            obj, enum.Enum
        ):
            attrs = dict(getattr(obj, "__dict__", {}))
            for cls in type(obj).__mro__:
                slots = getattr(cls, "__slots__", ())
                for slot in (slots,) if isinstance(slots, str) else slots:
                    if slot not in ("__dict__", "__weakref__") and hasattr(obj, slot):
                        attrs[slot] = getattr(obj, slot)
            cls = type(obj)
            names.setdefault(f"{cls.__module__}.{cls.__qualname__}", set()).update(
                attrs
            )
            todo.extend(attrs.values())
    return names


def test_pickled_layout_is_pinned_to_the_stream_version(parents):
    names = {}
    for name in RUNS:
        state, _ = load_checkpoint(str(parents(name)))
        for cls, attrs in _pickled_names(state).items():
            names.setdefault(cls, set()).update(attrs)
    layout = json.dumps({cls: sorted(attrs) for cls, attrs in sorted(names.items())})
    digest = hashlib.sha256(layout.encode()).hexdigest()[:16]
    assert digest == LAYOUT.get(STREAM_VERSION), (
        f"checkpoints now pickle another layout (digest {digest}, "
        f"{len(names)} classes): bump STREAM_VERSION and pin the digest "
        f"in LAYOUT\n{layout}"
    )
