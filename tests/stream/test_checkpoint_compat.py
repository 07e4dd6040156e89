"""A checkpoint written under another ``STREAM_VERSION`` is refused.

``fixtures/stream_v2_seedsequence.ckpt`` is the first checkpoint of
:func:`_run` below as an older build (commit 2d22640) wrote it, under
``STREAM_VERSION`` 2.  This build loads it, but a checkpoint resumes
only under the version that wrote it: the resume raises
:class:`CheckpointError` naming both versions before anything runs.
"""

import shutil
from pathlib import Path

import pytest

from repro.baselines.sawtooth import sawtooth_factory
from repro.channel.jamming import StochasticJammer
from repro.cli import main
from repro.stream.arrivals import PoissonProcess
from repro.stream.checkpoint import CheckpointConfig, CheckpointError, load_checkpoint
from repro.stream.engine import STREAM_VERSION, StreamBudget, stream_simulate

FIXTURE = Path(__file__).parent / "fixtures" / "stream_v2_seedsequence.ckpt"
EVERY_SLOTS = 600
REFUSAL = (
    f"has STREAM_VERSION 2, this build resumes version {STREAM_VERSION}; "
    "finish that run with the build that wrote it"
)


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


@pytest.fixture
def old(tmp_path):
    """A copy of the fixture, which a refused resume must leave as it is."""
    path = tmp_path / "ck.bin"
    shutil.copyfile(FIXTURE, path)
    yield path
    assert path.read_bytes() == FIXTURE.read_bytes()


def test_fixture_is_small():
    assert FIXTURE.stat().st_size < 16 * 1024


def test_older_version_loads(old):
    state, healed = load_checkpoint(str(old))
    assert not healed
    assert state["config"][0] == 2 != STREAM_VERSION


def test_older_version_is_refused(old):
    with pytest.raises(CheckpointError, match=REFUSAL):
        _run(CheckpointConfig(str(old), every_slots=EVERY_SLOTS), True)


def test_cli_refuses_an_older_version(old):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "stream", "--rho", "0.3", "--windows", "16,64",
                "--protocol", "sawtooth", "--max-jobs", "600",
                "--checkpoint", str(old), "--resume",
            ]
        )
    assert REFUSAL in str(exc.value.code)
