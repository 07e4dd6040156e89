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

Unpickling rebuilds each missing value from the fields the old pickle
does hold, so both resume bit-exactly.  They were regenerated with::

    mkdir parent && git archive dce3891 src | tar -x -C parent
    PYTHONPATH=parent/src python tests/stream/test_checkpoint_compat_cached.py

which runs :func:`_run` below for each protocol with a checkpoint and
keeps the first one written.
"""

import shutil
import sys
from pathlib import Path

import pytest

from repro.channel.jamming import StochasticJammer
from repro.core.punctual import Stage, punctual_factory
from repro.core.uniform import uniform_factory
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
# fixture name -> (keyword arguments of the run, slots between checkpoints)
RUNS = {
    "uniform": (
        dict(
            process=PoissonProcess(rate=0.3, window_sizes=(16, 64)),
            factory=uniform_factory(),
            max_jobs=600,
            budget=StreamBudget(max_live=8, policy="shed-loosest-deadline"),
            jammer=StochasticJammer(0.25),
        ),
        600,
    ),
    "punctual": (PUNCTUAL, 1400),
    "punctual-estimating": (PUNCTUAL, 869),
}
# The attribute each fixture predates, checked in its raw bytes.
CACHED = {
    "uniform": b"_last_age",
    "punctual": b"_origin",
    "punctual-estimating": b"_origin",
}


def _fixture(name):
    return FIXTURES / f"stream_v2_{name}.ckpt"


def _run(name, checkpoint=None, resume=False, invariants=False):
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
        **kw,
    )


def _comparable(res):
    d = res.to_dict()
    d.pop("checkpoints_written")
    d.pop("resumed_at_slot")
    return d, res.outcomes, sorted(res.latency_sample.values.tolist())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fixture_predates_the_cached_values(name):
    raw = _fixture(name).read_bytes()
    assert len(raw) < 32 * 1024
    assert CACHED[name] not in raw


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


@pytest.mark.parametrize("invariants", [False, True])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_parent_checkpoint_resumes_bit_exactly(tmp_path, name, invariants):
    path = tmp_path / "ck.bin"
    shutil.copyfile(_fixture(name), path)
    every = RUNS[name][1]
    resumed = _run(
        name, CheckpointConfig(str(path), every_slots=every), True, invariants
    )
    assert resumed.resumed_at_slot > 0
    assert _comparable(resumed) == _comparable(_run(name))


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
    for name, (_, every) in RUNS.items():
        out = out_dir / _fixture(name).name
        try:
            _run(name, CheckpointConfig(str(out), every_slots=every))
        except _Written:
            print(f"wrote {out} ({out.stat().st_size} bytes)")
