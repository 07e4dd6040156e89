"""The shared durable-write path (:mod:`repro.durable`)."""

import json
import os
import sys
import threading

import pytest

import repro.durable as durable
from repro.durable import write_atomic
from repro.obs.progress import Heartbeat


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


def test_ledger_keeps_exporting_the_jsonl_helpers():
    from repro.obs import ledger

    assert ledger.append_jsonl_atomic is durable.append_jsonl_atomic
    assert ledger.read_jsonl_tolerant is durable.read_jsonl_tolerant
