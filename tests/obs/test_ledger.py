"""The run ledger: atomic appends, torn tails, concurrency, diffs."""

import json
import multiprocessing
import os

import pytest

from repro.obs.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    RunRecord,
    compare_runs,
    default_ledger_path,
    new_run_id,
    summarize_records,
)


def _record(**kw):
    base = dict(run_id="", kind="test", started=1000.0, wall_seconds=0.5)
    base.update(kw)
    return RunRecord(**base)


class TestAppendRead:
    def test_round_trip(self, tmp_path):
        led = RunLedger(tmp_path / "led.jsonl")
        rec = led.append(
            _record(
                counters={"jobs": 8, "success_rate": 1.0},
                artifacts=["a.jsonl"],
                engine_version=3,
            )
        )
        assert rec.run_id and rec.hostname and rec.pid == os.getpid()
        (got,) = led.read()
        assert got.run_id == rec.run_id
        assert got.counters == {"jobs": 8, "success_rate": 1.0}
        assert got.artifacts == ["a.jsonl"]
        assert got.engine_version == 3

    def test_records_carry_schema(self, tmp_path):
        led = RunLedger(tmp_path / "led.jsonl")
        led.append(_record())
        rec = json.loads(led.path.read_text())
        assert rec["type"] == "run"
        assert rec["schema"] == LEDGER_SCHEMA

    def test_missing_file_reads_empty(self, tmp_path):
        assert RunLedger(tmp_path / "absent.jsonl").read() == []

    def test_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "led.jsonl"
        path.write_text('{"type": "other"}\nnot json at all\n')
        led = RunLedger(path)
        led.append(_record())
        assert len(led.read()) == 1

    def test_parent_directory_created(self, tmp_path):
        led = RunLedger(tmp_path / "deep" / "down" / "led.jsonl")
        led.append(_record())
        assert len(led.read()) == 1


class TestTornTail:
    def test_torn_tail_skipped_on_read(self, tmp_path):
        led = RunLedger(tmp_path / "led.jsonl")
        led.append(_record(kind="whole"))
        # A writer killed mid-record leaves a partial line, no newline.
        with open(led.path, "ab") as fh:
            fh.write(b'{"type": "run", "kind": "torn", "sta')
        records = led.read()
        assert [r.kind for r in records] == ["whole"]

    def test_append_heals_torn_tail(self, tmp_path):
        led = RunLedger(tmp_path / "led.jsonl")
        led.append(_record(kind="first"))
        with open(led.path, "ab") as fh:
            fh.write(b'{"type": "run", "kind": "torn", "sta')
        led.append(_record(kind="after"))
        # The healing newline keeps the new record on its own line.
        assert [r.kind for r in led.read()] == ["first", "after"]
        assert led.path.read_text().endswith("\n")


def _worker_append(args):
    path, worker, n = args
    led = RunLedger(path)
    for i in range(n):
        led.append(
            _record(kind="concurrent", counters={"worker": worker, "i": i})
        )
    return worker


class TestConcurrency:
    def test_concurrent_appends_interleave_whole_lines(self, tmp_path):
        """O_APPEND single-write appends: no fragments under contention."""
        path = tmp_path / "led.jsonl"
        workers, per_worker = 4, 25
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(workers) as pool:
            pool.map(
                _worker_append,
                [(str(path), w, per_worker) for w in range(workers)],
            )
        # Every line parses — no torn or interleaved fragments.
        lines = path.read_text().splitlines()
        assert len(lines) == workers * per_worker
        for line in lines:
            json.loads(line)
        records = RunLedger(path).read()
        assert len(records) == workers * per_worker
        seen = {
            (r.counters["worker"], r.counters["i"]) for r in records
        }
        assert len(seen) == workers * per_worker


class TestTrack:
    def test_track_appends_ok_record(self, tmp_path):
        led = RunLedger(tmp_path / "led.jsonl")
        with led.track("sweep", config={"param": "n"}) as trk:
            trk.counters["points"] = 3
            trk.artifact("ck.json")
            trk.artifact("ck.json")  # dedup
        (rec,) = led.read()
        assert rec.kind == "sweep"
        assert rec.status == "ok"
        assert rec.config == {"param": "n"}
        assert rec.counters == {"points": 3}
        assert rec.artifacts == ["ck.json"]
        assert rec.wall_seconds >= 0.0

    def test_track_records_failure_and_reraises(self, tmp_path):
        led = RunLedger(tmp_path / "led.jsonl")
        with pytest.raises(RuntimeError, match="boom"):
            with led.track("certify"):
                raise RuntimeError("boom")
        (rec,) = led.read()
        assert rec.status == "failed"


class TestFind:
    def test_find_by_prefix(self, tmp_path):
        led = RunLedger(tmp_path / "led.jsonl")
        a = led.append(_record(run_id="aaaa00000001"))
        led.append(_record(run_id="bbbb00000002"))
        assert led.find("aaaa").run_id == a.run_id
        assert led.find(a.run_id).run_id == a.run_id

    def test_find_ambiguous_or_missing_raises(self, tmp_path):
        led = RunLedger(tmp_path / "led.jsonl")
        led.append(_record(run_id="aaaa00000001"))
        led.append(_record(run_id="aaaa00000002"))
        with pytest.raises(KeyError, match="ambiguous"):
            led.find("aaaa")
        with pytest.raises(KeyError, match="no ledger entry"):
            led.find("zzzz")


class TestKnob:
    def test_env_var_names_default_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "env.jsonl"))
        assert default_ledger_path() == tmp_path / "env.jsonl"

    def test_run_ids_are_unique_enough(self):
        ids = {new_run_id() for _ in range(512)}
        assert len(ids) == 512


class TestCompare:
    def test_compare_across_engine_version_bump(self, tmp_path):
        """The observatory question: same config, new engine — what moved?"""
        a = _record(
            run_id="a" * 12,
            engine_version=3,
            config={"protocol": "punctual", "seeds": 5},
            config_digest="d" * 16,
            counters={"jobs": 40, "succeeded": 38, "success_rate": 0.95},
            wall_seconds=2.0,
        )
        b = _record(
            run_id="b" * 12,
            engine_version=4,
            config={"protocol": "punctual", "seeds": 5},
            config_digest="d" * 16,
            counters={"jobs": 40, "succeeded": 36, "success_rate": 0.90},
            wall_seconds=1.0,
        )
        diff = compare_runs(a, b)
        assert diff["same_config"] is True
        assert diff["config"] == {}
        assert diff["versions"] == {"engine_version": [3, 4]}
        assert diff["counters"]["succeeded"]["delta"] == -2.0
        assert diff["counters"]["success_rate"]["ratio"] == pytest.approx(
            0.90 / 0.95
        )
        assert diff["wall_seconds"]["ratio"] == pytest.approx(0.5)

    def test_compare_disjoint_counters(self, tmp_path):
        a = _record(counters={"jobs": 10})
        b = _record(counters={"cells": 3})
        diff = compare_runs(a, b)
        assert diff["counters"]["jobs"] == {"a": 10.0, "b": None}
        assert diff["counters"]["cells"] == {"a": None, "b": 3.0}

    def test_config_diff_lists_changed_keys(self):
        a = _record(config={"n": 8, "window": 1024})
        b = _record(config={"n": 16, "window": 1024})
        diff = compare_runs(a, b)
        assert diff["config"] == {"n": [8, 16]}


class TestSummaries:
    def test_summarize_headline_preference(self):
        recs = [
            _record(counters={"success_rate": 1.0, "jobs": 5}),
            _record(counters={"jobs_succeeded": 7}),
            _record(counters={}),
        ]
        rows = summarize_records(recs)
        assert rows[0][-1] == "success_rate=1.0"
        assert rows[1][-1] == "jobs_succeeded=7"
        assert rows[2][-1] == ""
