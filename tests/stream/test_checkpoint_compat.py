"""Stream checkpoints written before job streams were derived in blocks.

``fixtures/stream_v2_seedsequence.ckpt`` is a ``STREAM_VERSION`` 2
checkpoint from the last commit before :meth:`RngFactory.prepare`
existed: its factory pickles an unused root ``SeedSequence`` under
``_root``, and every live job's generator carries a ``SeedSequence``.
It was regenerated with::

    mkdir parent && git archive 2d22640 src | tar -x -C parent
    PYTHONPATH=parent/src python tests/stream/test_checkpoint_compat.py

which runs :func:`_run` below with a checkpoint and keeps the first one
written.
"""

import shutil
import sys
from pathlib import Path

from repro.baselines.sawtooth import sawtooth_factory
from repro.channel.jamming import StochasticJammer
from repro.stream.arrivals import PoissonProcess
from repro.stream.checkpoint import CheckpointConfig
from repro.stream.engine import StreamBudget, stream_simulate

FIXTURE = Path(__file__).parent / "fixtures" / "stream_v2_seedsequence.ckpt"
EVERY_SLOTS = 600


def _run(checkpoint=None, resume=False):
    return stream_simulate(
        PoissonProcess(rate=0.3, window_sizes=(16, 64)),
        sawtooth_factory(),
        seed=5,
        max_jobs=600,
        budget=StreamBudget(max_live=8, policy="shed-loosest-deadline"),
        jammer=StochasticJammer(0.25),
        checkpoint=checkpoint,
        resume=resume,
        record_outcomes=True,
        reservoir_capacity=32,
    )


def _comparable(res):
    d = res.to_dict()
    d.pop("checkpoints_written")
    d.pop("resumed_at_slot")
    return d, res.outcomes, sorted(res.latency_sample.values.tolist())


def test_fixture_is_small():
    assert FIXTURE.stat().st_size < 16 * 1024


def test_parent_checkpoint_resumes_bit_exactly(tmp_path):
    path = tmp_path / "ck.bin"
    shutil.copyfile(FIXTURE, path)
    resumed = _run(CheckpointConfig(str(path), every_slots=EVERY_SLOTS), True)
    assert resumed.resumed_at_slot > 0
    assert _comparable(resumed) == _comparable(_run())


if __name__ == "__main__":
    import repro.stream.engine as engine

    class _Written(Exception):
        pass

    save = engine.save_checkpoint

    def save_first(path, state):
        save(path, state)
        raise _Written

    engine.save_checkpoint = save_first
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else FIXTURE
    out.parent.mkdir(exist_ok=True)
    try:
        _run(CheckpointConfig(str(out), every_slots=EVERY_SLOTS))
    except _Written:
        print(f"wrote {out} ({out.stat().st_size} bytes)")
