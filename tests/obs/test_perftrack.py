"""The performance record: bench/run.py records judged and kept."""

import json
from pathlib import Path

import pytest

from repro.fastpath.batched import KERNEL_VERSION
from repro.obs.perftrack import (
    MIN_TREND_HISTORY,
    TRAILING_ENTRIES,
    TREND_FLOOR_FRACTION,
    append_history,
    detect_regressions,
    history_samples,
    load_bench,
    read_records,
    throughput_samples,
)
from repro.sim.engine import ENGINE_VERSION

ROOT = Path(__file__).resolve().parents[2]
NODE = "benchhost"


def make_record(
    workload="engine-grid",
    rounds=(1000.0, 1010.0, 990.0, 1005.0, 995.0),
    *,
    seed=1,
    node=NODE,
    correct=True,
    trace=False,
    warm=None,
):
    """A minimal bench/run.py result record (the keys repro perf reads)."""

    def metric(unit, values):
        values = [float(v) for v in values]
        return {
            "value": sorted(values)[len(values) // 2],
            "unit": unit,
            "q1": min(values),
            "q3": max(values),
            "rounds": values,
        }

    if trace:
        metrics = {"engine.simulate_s": metric("s", [2.0, 2.1, 1.9])}
    else:
        metrics = {
            "setup_s": metric("s", [0.25] * 5),
            "jobs_per_s": metric("jobs/s", rounds),
            "peak_rss_mib": metric("MiB", [45.0]),
        }
        if warm is not None:
            metrics["warm_jobs_per_s"] = metric("jobs/s", warm)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": 15.0,
        "trace": trace,
        "config": {},
        "host": {"node": node, "platform": "Linux", "cpus": 2},
        "pinned": True,
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "errors": [],
        "metrics": metrics,
    }


def grow(path, means, *, node=NODE):
    """One ``x`` entry per mean (five rounds jittered around it)."""
    append_history(
        [
            make_record("x", [m * 0.99, m, m * 1.01, m, m], node=node)
            for m in means
        ],
        path=path,
        now=1000.0,
    )
    return load_bench(path)


class TestLoadAppend:
    def test_load_missing_gives_scaffold(self, tmp_path):
        assert load_bench(tmp_path / "absent.json") == {"history": []}

    @pytest.mark.parametrize(
        "text",
        [
            "{torn",
            "[]",
            '{"history": {}}',
            '{"history": [1]}',
            '{"history": [{"env": {}, "rates": {}}]}',
        ],
        ids=[
            "torn",
            "not-an-object",
            "history-not-a-list",
            "not-an-entry",
            "old-format-entry",
        ],
    )
    def test_malformed_file_raises_naming_path(self, tmp_path, text):
        path = tmp_path / "bench.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="bench.json"):
            load_bench(path)

    def test_append_leaves_a_conflicted_file_untouched(self, tmp_path):
        path = tmp_path / "bench.json"
        grow(path, [1000.0])
        conflicted = "<<<<<<< HEAD\n" + path.read_text()
        path.write_text(conflicted)
        with pytest.raises(ValueError, match="bench.json"):
            append_history([make_record()], path=path)
        assert path.read_text() == conflicted

    def test_append_preserves_foreign_keys(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"history": [], "about": "kept"}))
        append_history([make_record()], path=path)
        data = load_bench(path)
        assert data["about"] == "kept"
        assert len(data["history"]) == 1

    def test_append_entry_fields(self, tmp_path):
        path = tmp_path / "bench.json"
        rec = make_record("campaign-cache", seed=7, warm=[9.0] * 5)
        (entry,) = append_history([rec], path=path, note="n", now=5.0)
        assert load_bench(path)["history"] == [entry]
        assert entry["workload"] == "campaign-cache"
        assert entry["seed"] == 7
        assert entry["seconds"] == 15.0
        assert entry["trace"] is False
        assert entry["host"] == rec["host"]
        assert entry["engine_version"] == ENGINE_VERSION
        assert entry["kernel_version"] == KERNEL_VERSION
        assert entry["timestamp"] == 5.0
        assert entry["note"] == "n"
        assert set(entry["metrics"]) == {
            "setup_s", "jobs_per_s", "peak_rss_mib", "warm_jobs_per_s",
        }
        for name, m in entry["metrics"].items():
            assert set(m) == {"value", "unit", "rounds"}
            assert m["rounds"] == rec["metrics"][name]["rounds"]

    def test_traced_record_keeps_per_layer_metrics(self, tmp_path):
        path = tmp_path / "bench.json"
        (entry,) = append_history([make_record(trace=True)], path=path)
        assert entry["trace"] is True
        assert entry["metrics"]["engine.simulate_s"]["rounds"] == [
            2.0, 2.1, 1.9,
        ]

    def test_history_is_never_capped(self, tmp_path):
        path = tmp_path / "bench.json"
        data = grow(path, [float(i + 1) for i in range(250)])
        assert len(data["history"]) == 250
        assert data["history"][0]["metrics"]["jobs_per_s"]["rounds"][1] == 1.0


class TestReadRecords:
    def _write(self, tmp_path, records):
        paths = []
        for i, rec in enumerate(records):
            paths.append(tmp_path / f"rec{i}.json")
            paths[-1].write_text(json.dumps(rec))
        return paths

    def test_reads_records_of_one_host(self, tmp_path):
        recs = [make_record("engine-grid"), make_record("stream-jammed")]
        assert read_records(self._write(tmp_path, recs)) == recs

    def test_incorrect_record_refused(self, tmp_path):
        paths = self._write(
            tmp_path, [make_record(), make_record(correct=False)]
        )
        with pytest.raises(ValueError, match=r"rec1\.json.*correct: False"):
            read_records(paths)

    def test_records_from_two_hosts_refused(self, tmp_path):
        paths = self._write(
            tmp_path, [make_record(), make_record(node="otherhost")]
        )
        with pytest.raises(ValueError, match="benchhost, otherhost"):
            read_records(paths)

    @pytest.mark.parametrize(
        "text",
        ["{torn", "[]", '{"workload": "x"}'],
        ids=["torn", "not-an-object", "missing-keys"],
    )
    def test_non_record_refused(self, tmp_path, text):
        path = tmp_path / "rec.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"rec\.json"):
            read_records([path])


class TestHistorySamples:
    def test_records_pool_by_label(self):
        current = throughput_samples([
            make_record("campaign-cache", [1.0] * 5, warm=[2.0] * 5),
            make_record("campaign-cache", [3.0] * 5, warm=[4.0] * 5),
            make_record("engine-grid", [5.0] * 5),
            make_record("engine-grid", trace=True),
        ])
        assert current == {
            "campaign-cache/jobs_per_s": [1.0] * 5 + [3.0] * 5,
            "campaign-cache/warm_jobs_per_s": [2.0] * 5 + [4.0] * 5,
            "engine-grid/jobs_per_s": [5.0] * 5,
        }

    def test_same_host_filter(self, tmp_path):
        path = tmp_path / "bench.json"
        grow(path, [1.0] * 2, node="otherhost")
        data = grow(path, [2.0])
        assert history_samples(data, "x/jobs_per_s", node=NODE) == [
            1.98, 2.0, 2.02, 2.0, 2.0,
        ]
        assert len(history_samples(data, "x/jobs_per_s")) == 15
        assert history_samples(data, "x/jobs_per_s", node="nohost") == []

    def test_trailing_window(self, tmp_path):
        data = grow(
            tmp_path / "bench.json",
            [float(i) for i in range(2 * TRAILING_ENTRIES)],
        )
        past = history_samples(data, "x/jobs_per_s", node=NODE)
        assert len(past) == 5 * TRAILING_ENTRIES
        assert min(past) == pytest.approx(0.99 * TRAILING_ENTRIES)

    def test_traced_entries_are_not_samples(self, tmp_path):
        path = tmp_path / "bench.json"
        append_history([make_record("x", trace=True)] * 4, path=path)
        assert history_samples(load_bench(path), "x/jobs_per_s") == []


class TestDetect:
    def test_injected_regression_is_flagged(self, tmp_path):
        """The acceptance check: a synthetic 30% throughput drop trips."""
        data = grow(tmp_path / "bench.json", [1000.0, 1010.0, 990.0, 1005.0])
        current = {"x/jobs_per_s": [700.0, 705.0, 698.0, 702.0, 700.0]}
        v = detect_regressions(current, data, node=NODE)["x/jobs_per_s"]
        assert v["regression"] is True
        assert "regression" in v["verdict"]
        assert v["rel_change"] < -0.15
        assert v["ci_high"] < 0.0

    def test_steady_throughput_is_ok(self, tmp_path):
        data = grow(tmp_path / "bench.json", [1000.0, 1010.0, 990.0, 1005.0])
        current = {"x/jobs_per_s": [1002.0, 998.0, 1004.0]}
        v = detect_regressions(current, data, node=NODE)["x/jobs_per_s"]
        assert v["regression"] is False
        assert v["verdict"] == "ok"

    def test_small_statistically_real_dip_stays_ok(self, tmp_path):
        # CI excludes zero but the drop is under the 15% materiality bar.
        data = grow(tmp_path / "bench.json", [1000.0] * 4)
        current = {"x/jobs_per_s": [950.0, 951.0, 949.0]}
        v = detect_regressions(current, data, node=NODE)["x/jobs_per_s"]
        assert v["regression"] is False
        assert "noise band" in v["verdict"]

    def test_trend_reads_the_newest_entries(self, tmp_path):
        # A record 30% under the newest level is flagged even though an
        # older, slower level sits further back in the history.
        path = tmp_path / "bench.json"
        grow(path, [500.0] * 40)
        data = grow(path, [1000.0] * TRAILING_ENTRIES)
        current = {"x/jobs_per_s": [700.0] * 5}
        assert detect_regressions(current, data, node=NODE)[
            "x/jobs_per_s"
        ]["regression"]

    def test_insufficient_history_never_flags(self, tmp_path):
        assert MIN_TREND_HISTORY > 1
        data = load_bench(tmp_path / "absent.json")
        v = detect_regressions({"x/jobs_per_s": [1.0]}, data, node=NODE)
        assert v["x/jobs_per_s"]["regression"] is False
        assert v["x/jobs_per_s"]["verdict"] == "insufficient-history"

    def test_other_hosts_set_a_floor(self, tmp_path):
        data = grow(tmp_path / "bench.json", [1000.0] * 4, node="otherhost")
        ok = detect_regressions(
            {"x/jobs_per_s": [900.0] * 5}, data, node=NODE
        )["x/jobs_per_s"]
        assert ok["regression"] is False
        assert ok["floor"] == pytest.approx(TREND_FLOOR_FRACTION * 1000.0)
        assert ok["verdict"] == "ok: 1.80x the floor (other hosts)"
        low = detect_regressions(
            {"x/jobs_per_s": [400.0] * 5}, data, node=NODE
        )["x/jobs_per_s"]
        assert low["regression"] is True
        assert "floor" in low["verdict"]

    def test_deterministic_given_seed(self, tmp_path):
        data = grow(tmp_path / "bench.json", [1000.0, 990.0, 1010.0, 1000.0])
        current = {"x/jobs_per_s": [900.0, 905.0]}
        a = detect_regressions(current, data, node=NODE)
        b = detect_regressions(current, data, node=NODE)
        assert a == b


class TestTrendFloor:
    def test_trend_raises_the_floor(self, tmp_path):
        # The floor is half the trailing median, so it follows the
        # newest level up as the code gets faster.
        path = tmp_path / "bench.json"
        grow(path, [1000.0] * 20, node="otherhost")
        data = grow(path, [3000.0] * TRAILING_ENTRIES, node="otherhost")
        v = detect_regressions(
            {"x/jobs_per_s": [1400.0] * 5}, data, node=NODE
        )["x/jobs_per_s"]
        assert v["floor"] == pytest.approx(TREND_FLOOR_FRACTION * 3000.0)
        assert v["regression"] is True


class TestCommittedTrajectory:
    """The committed BENCH_e2e.json: complete entries, baseline once."""

    @pytest.fixture(scope="class")
    def history(self):
        return load_bench(ROOT / "BENCH_e2e.json")["history"]

    def test_every_entry_is_complete(self, history):
        assert history
        for e in history:
            assert set(e) == {
                "workload", "seed", "seconds", "trace", "host", "metrics",
                "engine_version", "kernel_version", "timestamp", "note",
            }
            assert e["host"]["node"]
            assert e["metrics"]
            for m in e["metrics"].values():
                assert set(m) == {"value", "unit", "rounds"}
                assert m["rounds"]

    def test_every_entry_has_versions_3_1(self, history):
        assert {(e["engine_version"], e["kernel_version"]) for e in history} \
            == {(3, 1)}

    def test_each_baseline_record_appears_once(self, history):
        paths = sorted((ROOT / "bench" / "baseline").glob("run[12]/*.json"))
        assert len(paths) == 80
        for path in paths:
            rec = json.loads(path.read_text())
            rounds = {
                name: m["rounds"] for name, m in rec["metrics"].items()
            }
            matches = [
                e
                for e in history
                if e["workload"] == rec["workload"]
                and e["seed"] == rec["seed"]
                and e["host"] == rec["host"]
                and {n: m["rounds"] for n, m in e["metrics"].items()}
                == rounds
            ]
            assert len(matches) == 1, path
            assert matches[0]["note"] == "baseline 1857c33"
