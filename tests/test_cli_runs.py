"""The run ledger CLI: --ledger wiring, runs list/show/compare, perf, top."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.ledger import RunLedger
from repro.obs.perftrack import load_bench
from repro.obs.progress import Heartbeat, ProgressTracker


@pytest.fixture(scope="module")
def ledger_path(tmp_path_factory):
    """One ledger grown by five different entry points (module-scoped:
    the runs are real simulations, so pay for them once)."""
    path = tmp_path_factory.mktemp("ledger") / "ledger.jsonl"
    sim_common = [
        "simulate",
        "--workload", "batch",
        "--n", "4",
        "--window", "256",
        "--protocol", "uniform",
        "--ledger", str(path),
    ]
    assert main(sim_common + ["--seed", "0"]) == 0
    assert main(sim_common + ["--seed", "1"]) == 0
    assert main([
        "sweep",
        "--workload", "batch",
        "--protocol", "uniform",
        "--param", "n",
        "--values", "2,4",
        "--window", "128",
        "--seeds", "2",
        "--ledger", str(path),
    ]) == 0
    assert main([
        "compare",
        "--workload", "single-class",
        "--n", "6",
        "--level", "9",
        "--seeds", "1",
        "--ledger", str(path),
    ]) == 0
    assert main([
        "stream",
        "--rho", "0.2",
        "--windows", "16,64",
        "--max-jobs", "200",
        "--ledger", str(path),
    ]) == 0
    assert main([
        "verify",
        "--cases", "fastpath-uniform-clean",
        "--ledger", str(path),
    ]) == 0
    return path


class TestLedgerWiring:
    def test_every_entry_point_recorded(self, ledger_path):
        records = RunLedger(ledger_path).read()
        kinds = {r.kind for r in records}
        assert kinds >= {
            "simulate", "sweep", "run_seeds", "stream", "verify",
        }
        assert all(r.status == "ok" for r in records)
        assert all(r.wall_seconds >= 0.0 for r in records)
        assert all(r.run_id for r in records)

    def test_simulate_records_carry_outcome_counters(self, ledger_path):
        records = [
            r for r in RunLedger(ledger_path).read()
            if r.kind == "simulate"
        ]
        assert len(records) == 2
        for rec in records:
            assert rec.counters["jobs"] == 4
            assert "success_rate" in rec.counters
            assert rec.engine_version is not None
            assert rec.config["protocol"] == "uniform"
        # Different seeds must hash to different config digests.
        assert records[0].config_digest != records[1].config_digest

    def test_stream_and_verify_counters(self, ledger_path):
        by_kind = {r.kind: r for r in RunLedger(ledger_path).read()}
        stream = by_kind["stream"]
        assert stream.counters["jobs_released"] > 0
        verify = by_kind["verify"]
        assert verify.counters["checks"] >= 1
        assert verify.counters["failures"] == 0

    def test_bare_ledger_flag_uses_env_default(self, tmp_path, monkeypatch):
        path = tmp_path / "env-ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        rc = main([
            "simulate",
            "--workload", "batch",
            "--n", "2",
            "--window", "128",
            "--protocol", "uniform",
            "--ledger",
        ])
        assert rc == 0
        (rec,) = RunLedger(path).read()
        assert rec.kind == "simulate"

    def test_ledger_does_not_perturb_cache_keys(self, tmp_path):
        """--ledger is observational: a cache warmed by a plain run must
        fully hit from a ledgered one."""
        cache = tmp_path / "cache"
        argv = [
            "sweep",
            "--workload", "batch",
            "--protocol", "uniform",
            "--param", "n",
            "--values", "2,4",
            "--window", "128",
            "--seeds", "2",
            "--cache", str(cache),
        ]
        assert main(argv) == 0  # plain warm-up
        tele = tmp_path / "warm.jsonl"
        ledger = tmp_path / "ledger.jsonl"
        rc = main(
            argv + ["--telemetry", str(tele), "--ledger", str(ledger)]
        )
        assert rc == 0
        from repro.obs import read_artifact

        art = read_artifact(tele)
        assert art.counter_value("cache.hits") == 4
        assert art.counter_value("cache.misses") == 0


class TestRunsCommands:
    def test_list_renders_table(self, ledger_path, capsys):
        rc = main(["runs", "list", "--ledger", str(ledger_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "run ledger:" in out
        for kind in ("simulate", "sweep", "stream", "verify"):
            assert kind in out

    def test_list_json(self, ledger_path, capsys):
        rc = main(["runs", "list", "--ledger", str(ledger_path), "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        records = json.loads(out)
        assert all(r["type"] == "run" for r in records)
        assert {"simulate", "stream"} <= {r["kind"] for r in records}

    def test_list_empty_ledger(self, tmp_path, capsys):
        rc = main([
            "runs", "list", "--ledger", str(tmp_path / "absent.jsonl"),
        ])
        assert rc == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_show_by_prefix(self, ledger_path, capsys):
        rec = RunLedger(ledger_path).read()[0]
        rc = main([
            "runs", "show", rec.run_id[:6], "--ledger", str(ledger_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"run {rec.run_id} ({rec.kind})" in out
        assert "started:" in out
        assert "versions: engine=" in out

    def test_show_json_round_trips(self, ledger_path, capsys):
        rec = RunLedger(ledger_path).read()[0]
        rc = main([
            "runs", "show", rec.run_id,
            "--ledger", str(ledger_path), "--json",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        data = json.loads(out)
        assert data["run_id"] == rec.run_id
        assert data["kind"] == rec.kind

    def test_show_unknown_id_exits(self, ledger_path):
        with pytest.raises(SystemExit):
            main([
                "runs", "show", "ffffffffffff",
                "--ledger", str(ledger_path),
            ])

    def test_compare_two_simulate_runs(self, ledger_path, capsys):
        a, b = [
            r.run_id for r in RunLedger(ledger_path).read()
            if r.kind == "simulate"
        ]
        rc = main([
            "runs", "compare", a, b, "--ledger", str(ledger_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "config: DIFFERS" in out  # seeds 0 vs 1
        assert "seed: 0 -> 1" in out
        assert "wall seconds:" in out

    def test_compare_prints_digests_when_summary_agrees(
        self, tmp_path, capsys
    ):
        # Same summary config dict, different full-content digests
        # (e.g. runs differing only in workload state the summary
        # does not carry): the digest pair is the only visible diff.
        path = tmp_path / "ledger.jsonl"
        led = RunLedger(path)
        for run_id, digest in (("a" * 12, "1" * 16), ("b" * 12, "2" * 16)):
            with led.track("sweep", config={"kind": "sweep"}) as trk:
                trk.run_id = run_id
                trk.config_digest = digest
        rc = main([
            "runs", "compare", "a" * 12, "b" * 12, "--ledger", str(path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "config: DIFFERS" in out
        assert f"config digest: {'1' * 12} -> {'2' * 12}" in out

    def test_compare_json(self, ledger_path, capsys):
        a, b = [
            r.run_id for r in RunLedger(ledger_path).read()
            if r.kind == "simulate"
        ]
        rc = main([
            "runs", "compare", a, b,
            "--ledger", str(ledger_path), "--json",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        diff = json.loads(out)
        assert diff["a"] == a and diff["b"] == b
        assert diff["same_config"] is False
        assert "wall_seconds" in diff


BASELINE = Path(__file__).resolve().parents[1] / "bench" / "baseline"
#: The throughput labels of one full baseline pass.
LABELS = [
    "campaign-cache/jobs_per_s",
    "campaign-cache/warm_jobs_per_s",
    "engine-grid/jobs_per_s",
    "fastpath-batch/jobs_per_s",
    "stream-jammed/jobs_per_s",
]


class TestPerfCommand:
    """``repro perf`` over committed bench/run.py records (bench/baseline)."""

    @staticmethod
    def _records(tmp_path, run, *, scale=1.0, node=None):
        """Copies of one baseline pass, throughput rounds scaled."""
        out = tmp_path / run
        out.mkdir(parents=True)
        for src in sorted((BASELINE / run).glob("*.json")):
            rec = json.loads(src.read_text())
            for name in ("jobs_per_s", "warm_jobs_per_s"):
                if name in rec["metrics"]:
                    m = rec["metrics"][name]
                    m["rounds"] = [v * scale for v in m["rounds"]]
            if node is not None:
                rec["host"]["node"] = node
            (out / src.name).write_text(json.dumps(rec))
        return sorted(str(p) for p in out.glob("*.json"))

    @pytest.fixture
    def bench(self, tmp_path, capsys):
        """A trajectory holding the first baseline pass (40 entries)."""
        path = tmp_path / "bench.json"
        assert main(["perf", "--bench", str(path), "--note", "run1",
                     *self._records(tmp_path, "run1")]) == 0
        capsys.readouterr()
        return path

    def test_perf_appends_history(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        rc = main(["perf", "--bench", str(path), "--note", "first",
                   *self._records(tmp_path, "run1")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "perf trajectory" in out
        assert out.count("insufficient-history") == len(LABELS)
        assert "appended 40 history entries" in out
        history = load_bench(path)["history"]
        assert len(history) == 40
        assert {e["note"] for e in history} == {"first"}
        assert {e["host"]["node"] for e in history} == {"vm"}

    def test_real_records_pass(self, bench, tmp_path, capsys):
        rc = main(["perf", "--bench", str(bench),
                   *self._records(tmp_path, "run2")])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PERF REGRESSION" not in out
        assert len(load_bench(bench)["history"]) == 80

    def test_perf_flags_injected_regression(self, bench, tmp_path, capsys):
        """The acceptance check: records 30% slower exit 1 on every label."""
        rc = main(["perf", "--bench", str(bench),
                   *self._records(tmp_path, "run2", scale=0.7)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "PERF REGRESSION: " + ", ".join(LABELS) in out
        # The slow records still land in the history (forensics).
        assert len(load_bench(bench)["history"]) == 80

    def test_perf_json(self, bench, tmp_path, capsys):
        rc = main(["perf", "--bench", str(bench), "--json",
                   *self._records(tmp_path, "run2")])
        result = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert result["appended"] == 40
        assert result["regressions"] == []
        assert sorted(result["verdicts"]) == LABELS
        for v in result["verdicts"].values():
            assert v["history_n"] >= 50  # ten entries of >= 5 rounds
            assert "ci_high" in v

    def test_floor_on_another_host(self, bench, tmp_path, capsys):
        rc = main(["perf", "--bench", str(bench), "--json",
                   *self._records(tmp_path, "run2", node="ci-runner")])
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert rc == 0
        assert sorted(verdicts) == LABELS
        for v in verdicts.values():
            assert v["verdict"].startswith("ok: ")
            assert v["current_mean"] > v["floor"]
        rc = main(["perf", "--bench", str(bench), "--json",
                   *self._records(tmp_path / "slow", "run2", scale=0.4,
                                  node="ci-runner")])
        result = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert result["regressions"] == LABELS

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("correct", False, "refusing to record it"),
            ("host", {"node": "otherhost"}, "more than one host"),
        ],
        ids=["incorrect", "two hosts"],
    )
    def test_refused_records_append_nothing(
        self, bench, tmp_path, key, value, message
    ):
        paths = self._records(tmp_path, "run2")
        rec = json.loads(Path(paths[-1]).read_text())
        rec[key] = value
        Path(paths[-1]).write_text(json.dumps(rec))
        before = bench.read_bytes()
        with pytest.raises(SystemExit, match=message):
            main(["perf", "--bench", str(bench), *paths])
        assert bench.read_bytes() == before

    def test_malformed_trajectory_left_untouched(self, bench, tmp_path):
        conflicted = bench.read_bytes() + b"<<<<<<< HEAD\n"
        bench.write_bytes(conflicted)
        with pytest.raises(SystemExit, match="bench.json"):
            main(["perf", "--bench", str(bench),
                  *self._records(tmp_path, "run2")])
        assert bench.read_bytes() == conflicted

    def test_traced_records_are_stored_not_gated(
        self, bench, tmp_path, capsys
    ):
        traced = sorted(str(p) for p in (BASELINE / "trace").glob("*.json"))
        rc = main(["perf", "--bench", str(bench), "--json", *traced])
        result = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert result["verdicts"] == {}
        assert result["appended"] == 4
        stored = load_bench(bench)["history"][-4:]
        assert all(e["trace"] for e in stored)
        assert all("engine.simulate_s" in e["metrics"] for e in stored)


class TestTopCommand:
    def _beat(self, directory, label, done, total, status=None):
        hb = Heartbeat(
            directory / f"{label}.heartbeat.json", every_seconds=0.0
        )
        trk = ProgressTracker(total, label=label, heartbeat=hb)
        trk.add(done)
        if status is not None:
            trk.finish(status)

    def test_top_renders_heartbeats(self, tmp_path, capsys):
        self._beat(tmp_path, "sweep-a", 3, 10)
        self._beat(tmp_path, "certify-b", 5, 5, status="done")
        rc = main(["top", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "heartbeats (2)" in out
        assert "sweep-a" in out
        assert "3/10" in out
        assert "done" in out

    def test_top_json(self, tmp_path, capsys):
        self._beat(tmp_path, "run-x", 1, 4)
        rc = main(["top", str(tmp_path), "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        (snap,) = json.loads(out)
        assert snap["label"] == "run-x"
        assert snap["done"] == 1

    def test_top_empty_dir(self, tmp_path, capsys):
        rc = main(["top", str(tmp_path)])
        assert rc == 0
        assert "no heartbeat files" in capsys.readouterr().out

    def test_sweep_heartbeat_end_to_end(self, tmp_path, capsys):
        """--heartbeat on a real sweep leaves a final 'done' snapshot."""
        hb = tmp_path / "sweep.heartbeat.json"
        rc = main([
            "sweep",
            "--workload", "batch",
            "--protocol", "uniform",
            "--param", "n",
            "--values", "2,4",
            "--window", "128",
            "--seeds", "1",
            "--heartbeat", str(hb),
            "--heartbeat-every", "0",
        ])
        assert rc == 0
        snap = json.loads(hb.read_text())
        assert snap["status"] == "done"
        assert snap["done"] == snap["total"] == 2
