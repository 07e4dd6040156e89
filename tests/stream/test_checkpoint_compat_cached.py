"""Stream checkpoints written before protocols cached their per-slot values.

Three ``STREAM_VERSION`` 2 checkpoints from the last commit before the
slot core bound protocol hooks directly and the protocols fixed their
per-slot constants once:

* ``fixtures/stream_v2_uniform.ckpt`` — live UNIFORM jobs pickled
  without ``_last_age``;
* ``fixtures/stream_v2_punctual.ckpt`` and
  ``fixtures/stream_v2_punctual-estimating.ckpt`` — live PUNCTUAL jobs
  pickled without ``_origin``, some of them following a leader with an
  embedded ALIGNED machine whose ``ClassRun`` and ``EstimationTally``
  objects were pickled while ``done``, ``total_steps`` and
  ``estimation_steps`` were properties.  In the first, class runs are
  broadcasting; in the second, they are part-way through estimation.

Five more from the last commit before coin flips were drawn in blocks
and the baselines fixed their per-slot values where they change:
``fixtures/stream_v2_{sawtooth,soft,nocd,beb,slowfb}.ckpt`` hold live
jobs of those baselines whose contexts were pickled without ``_coins``
(no unread block: each generator stands at the job's next coin), without
the probability of the next act (``_next_p``), and, for BEB and
slow-feedback backoff, without the next send slot (``_next_tx_slot``)
or offset (``_next_send``).

Unpickling rebuilds each missing value from the fields the old pickle
does hold, so all resume bit-exactly.  They were regenerated with::

    mkdir parent && git archive dce3891 src | tar -x -C parent
    PYTHONPATH=parent/src python tests/stream/test_checkpoint_compat_cached.py \
        tests/stream/fixtures uniform punctual punctual-estimating

and the same with ``34d8954`` and ``sawtooth soft nocd beb slowfb``,
which runs :func:`_run` below for each named protocol with a checkpoint
and keeps the first one written.
"""

import shutil
import sys
from pathlib import Path

import pytest

from repro.baselines import (
    BinaryExponentialBackoff,
    CollisionSofteningBackoff,
    NoCollisionDetectionBackoff,
    SawtoothBackoff,
    SlowFeedbackBackoff,
    beb_factory,
    nocd_factory,
    sawtooth_factory,
    slowfeedback_factory,
    softened_factory,
)
from repro.channel.jamming import StochasticJammer
from repro.core.punctual import Stage, punctual_factory
from repro.core.uniform import uniform_factory
from repro.obs.telemetry import Telemetry
from repro.params import PunctualParams
from repro.stream.arrivals import PoissonProcess
from repro.stream.checkpoint import CheckpointConfig, load_checkpoint
from repro.stream.engine import StreamBudget, stream_simulate

FIXTURES = Path(__file__).parent / "fixtures"

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
# fixture name -> (keyword arguments of the run, slots between checkpoints)
RUNS = {
    "uniform": (dict(OVERLOAD, factory=uniform_factory()), 600),
    "punctual": (PUNCTUAL, 1400),
    "punctual-estimating": (PUNCTUAL, 869),
    "sawtooth": (dict(OVERLOAD, factory=sawtooth_factory()), 400),
    "soft": (dict(OVERLOAD, factory=softened_factory()), 600),
    "nocd": (dict(OVERLOAD, factory=nocd_factory()), 900),
    "beb": (dict(OVERLOAD, factory=beb_factory()), 600),
    "slowfb": (dict(OVERLOAD, factory=slowfeedback_factory()), 600),
}
# The attributes each fixture predates, checked in its raw bytes.
CACHED = {
    "uniform": [b"_last_age"],
    "punctual": [b"_origin"],
    "punctual-estimating": [b"_origin"],
    "sawtooth": [b"_coins", b"_next_p"],
    "soft": [b"_coins", b"_next_p"],
    "nocd": [b"_coins", b"_next_p"],
    "beb": [b"_coins", b"_next_p", b"_next_tx_slot"],
    "slowfb": [b"_coins", b"_next_p", b"_next_send"],
}


def _fixture(name):
    return FIXTURES / f"stream_v2_{name}.ckpt"


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


def _comparable(res):
    d = res.to_dict()
    d.pop("checkpoints_written")
    d.pop("resumed_at_slot")
    return d, res.outcomes, sorted(res.latency_sample.values.tolist())


def _contention(telemetry):
    """Per-slot contention, the sum of live ``last_p`` values."""
    return telemetry.metrics.histogram("contention").values


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fixture_predates_the_cached_values(name):
    raw = _fixture(name).read_bytes()
    assert len(raw) < 32 * 1024
    for attr in CACHED[name]:
        assert attr not in raw


@pytest.mark.parametrize(
    "name, in_state",
    [
        ("punctual", lambda r: r.estimate is not None and not r.done),
        ("punctual-estimating", lambda r: r.tally.steps_seen > 0),
    ],
)
def test_punctual_fixtures_hold_running_class_runs(tmp_path, name, in_state):
    path = tmp_path / "ck.bin"
    shutil.copyfile(_fixture(name), path)
    state, _ = load_checkpoint(str(path))
    protos = state["core"].protos
    assert any(p._origin is not None for p in protos)
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
    ],
)
def test_baseline_fixtures_hold_live_jobs(tmp_path, name, cls, progressed):
    path = tmp_path / "ck.bin"
    shutil.copyfile(_fixture(name), path)
    state, _ = load_checkpoint(str(path))
    protos = state["core"].protos
    assert len(protos) >= 4
    assert all(type(p) is cls for p in protos)
    assert any(progressed(p) for p in protos)
    assert all(p.ctx._coins == [] for p in protos)


@pytest.mark.parametrize("invariants", [False, True])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_parent_checkpoint_resumes_bit_exactly(tmp_path, name, invariants):
    path = tmp_path / "ck.bin"
    shutil.copyfile(_fixture(name), path)
    every = RUNS[name][1]
    part, full = Telemetry(), Telemetry()
    resumed = _run(
        name, CheckpointConfig(str(path), every_slots=every), True, invariants,
        part,
    )
    assert resumed.resumed_at_slot > 0
    assert _comparable(resumed) == _comparable(_run(name, telemetry=full))
    # The resumed slots report the contention the uninterrupted run did.
    tail = _contention(part)
    assert tail and _contention(full)[-len(tail):] == tail


@pytest.mark.parametrize("name", ["sawtooth", "soft", "nocd", "beb", "slowfb"])
def test_current_checkpoint_resumes_bit_exactly(tmp_path, name):
    """The same runs resume bit-exactly from a checkpoint this code wrote
    (unread coin blocks, cached values and slowfb's descending offsets)."""
    config = CheckpointConfig(str(tmp_path / "ck.bin"), every_slots=RUNS[name][1])
    part, full = Telemetry(), Telemetry()
    first = _run(name, config, telemetry=full)
    resumed = _run(name, config, True, telemetry=part)
    assert resumed.resumed_at_slot > 0
    assert _comparable(resumed) == _comparable(first)
    tail = _contention(part)
    assert tail and _contention(full)[-len(tail):] == tail


if __name__ == "__main__":
    import repro.stream.engine as engine

    class _Written(Exception):
        pass

    save = engine.save_checkpoint

    def save_first(path, state):
        save(path, state)
        raise _Written

    engine.save_checkpoint = save_first
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else FIXTURES
    out_dir.mkdir(exist_ok=True)
    for name in sys.argv[2:] or RUNS:
        every = RUNS[name][1]
        out = out_dir / _fixture(name).name
        try:
            _run(name, CheckpointConfig(str(out), every_slots=every))
        except _Written:
            print(f"wrote {out} ({out.stat().st_size} bytes)")
