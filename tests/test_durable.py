"""The shared durable-write path (:mod:`repro.durable`)."""

import json
import os
import select
import stat
import sys
import threading

import pytest

import repro.durable as durable
from repro.analysis.export import write_csv
from repro.channel.feedback import Feedback
from repro.durable import write_atomic
from repro.experiments.certify import BreakingPoint, CertificationReport
from repro.experiments.frontier import FrontierPoint, FrontierReport
from repro.obs.progress import Heartbeat
from repro.obs.telemetry import Telemetry
from repro.sim.trace import SlotRecord, TraceRecorder
from repro.stream.report import SustainedLoadReport


def _leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if p.suffix == ".tmp")


class TestWriteAtomic:
    def test_creates_then_replaces_content(self, tmp_path):
        path = tmp_path / "sub" / "file.bin"
        write_atomic(path, b"first")
        assert path.read_bytes() == b"first"
        write_atomic(path, b"second, longer")
        assert path.read_bytes() == b"second, longer"
        assert _leftovers(path.parent) == []

    def test_failed_replace_removes_temp_and_keeps_old(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "file.bin"
        write_atomic(path, b"old")

        def broken_replace(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(durable.os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk went away"):
            write_atomic(path, b"new")
        assert path.read_bytes() == b"old"
        assert _leftovers(tmp_path) == []

    def test_fsync_syncs_file_and_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(durable.os, "fsync", counting_fsync)
        path = tmp_path / "ck.bin"
        write_atomic(path, b"payload")
        assert synced == []  # the default path never syncs
        write_atomic(path, b"payload 2", fsync=True)
        assert len(synced) == 2  # the file, then its directory
        assert path.read_bytes() == b"payload 2"
        assert _leftovers(tmp_path) == []

    def test_concurrent_writers_of_one_path_never_collide(self, tmp_path):
        """Each write has its own temp file: writers sharing one
        heartbeat path must not fail on each other's rename."""
        path = tmp_path / "run.heartbeat.json"
        errors = []

        def writer(tag):
            hb = Heartbeat(path, every_seconds=0)
            try:
                for i in range(300):
                    hb.write({"writer": tag, "i": i})
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert json.loads(path.read_text())["i"] == 299
        assert _leftovers(tmp_path) == []


class TestOpenLikeContract:
    """Everything but atomicity is what ``open(path, "wb")`` does."""

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        path = tmp_path / "new.bin"
        old = os.umask(0o022)
        try:
            write_atomic(path, b"x")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "kept.bin"
        write_atomic(path, b"old")
        path.chmod(0o640)
        write_atomic(path, b"new")
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_bytes() == b"new"

    def test_symlink_stays_and_its_target_is_replaced(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_bytes(b"old")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        write_atomic(link, b"new")
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == b"new"
        assert _leftovers(tmp_path) == []

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # A reader first, so opening the FIFO for writing cannot block.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            writer = threading.Thread(
                target=write_atomic, args=(fifo, b"payload"), daemon=True
            )
            writer.start()
            writer.join(timeout=10)
            assert not writer.is_alive()
            received = b""
            while select.select([reader], [], [], 5)[0]:
                chunk = os.read(reader, 64)
                if not chunk:
                    break
                received += chunk
        finally:
            os.close(reader)
        assert received == b"payload"
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert _leftovers(tmp_path) == []

    def test_chunks_are_written_in_order(self, tmp_path):
        path = tmp_path / "chunks.txt"
        write_atomic(path, (f"{i}\n".encode() for i in range(3)))
        assert path.read_bytes() == b"0\n1\n2\n"

    def test_a_failing_chunk_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "chunks.txt"
        write_atomic(path, b"old")

        def chunks():
            yield b"half"
            raise RuntimeError("serializer failed")

        with pytest.raises(RuntimeError, match="serializer failed"):
            write_atomic(path, chunks())
        assert path.read_bytes() == b"old"
        assert _leftovers(tmp_path) == []


def _telemetry(path):
    Telemetry(label="bad", context={"value": object()}).write_jsonl(path)


def _trace(path):
    rec = TraceRecorder()
    rec.records = [
        SlotRecord(0, Feedback.SILENCE, 0, 1, 0.5, False, ""),
        SlotRecord(1, Feedback.SUCCESS, 1, 1, 0.5, False, object()),
    ]
    rec.write_jsonl(path)


def _frontier(path):
    points = (
        FrontierPoint("uniform", 0.0, 4, 1, 9),
        FrontierPoint(object(), 0.0, 4, 1, 9),
    )
    FrontierReport("inst", 1, (0.0,), points).to_jsonl(path)


def _certify(path):
    points = [
        BreakingPoint("punctual", "jam", 0.9, 0.5, 0.45, 0.55),
        BreakingPoint("punctual", "rate", 0.9, object(), 0.45, 0.55),
    ]
    CertificationReport(points=points, target=0.9).to_jsonl(path)


def _stream_report(path):
    SustainedLoadReport(protocol="sawtooth", meta={"value": object()}).save(
        path
    )


def _csv(path):
    write_csv([{"a": 1}, {"a": 2, "b": 3}], path)


@pytest.mark.parametrize(
    "write",
    [_telemetry, _trace, _frontier, _certify, _stream_report, _csv],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_a_writer_that_fails_partway_keeps_the_old_file(tmp_path, write):
    """A serialization error partway through a writer leaves the old
    file byte-identical and no temp file beside it."""
    path = tmp_path / "artifact"
    path.write_bytes(b"old\n")
    with pytest.raises((TypeError, ValueError)):
        write(path)
    assert path.read_bytes() == b"old\n"
    assert _leftovers(tmp_path) == []


def test_ledger_keeps_exporting_the_jsonl_helpers():
    from repro.obs import ledger

    assert ledger.append_jsonl_atomic is durable.append_jsonl_atomic
    assert ledger.read_jsonl_tolerant is durable.read_jsonl_tolerant
