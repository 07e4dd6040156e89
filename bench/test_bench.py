"""Tests for the benchmark itself; run with ``pytest bench``.

Each workload runs at a tiny size, so these check the harness — names,
units, correctness checks, verdict logic — not performance.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from harness import ROOT, benchmark_spec, require_repro

require_repro()

import compare  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    CampaignCache,
    EngineGrid,
    FastpathBatch,
    Op,
    RoundResult,
    StreamJammed,
)

SPEC = benchmark_spec()

TINY = {
    "engine-grid": lambda: EngineGrid(seeds=1, sets=2, n=8, window=512),
    "fastpath-batch": lambda: FastpathBatch(
        seeds={"uniform": 3, "punctual": 3, "aligned": 3}, n=8, window=512
    ),
    "campaign-cache": lambda: CampaignCache(seeds=1),
    "stream-jammed": lambda: StreamJammed(
        phases=((0.1, 300), (0.3, 200)), checkpoint_every=500
    ),
}


def test_tiny_sizes_cover_every_declared_workload():
    assert set(TINY) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_emits_every_metric_and_traces_faithfully(name, tmp_path):
    untraced = run.measure(TINY[name](), 0, 0.0, False, tmp_path,
                           min_rounds=2, setup_samples=1)
    assert untraced["correct"], untraced["errors"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    if name == "campaign-cache":
        expected["warm_jobs_per_s"] = "jobs/s"
    assert {k: m["unit"] for k, m in untraced["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    traced = run.measure(TINY[name](), 0, 0.0, True, tmp_path)
    # Every traced round matched the untraced rounds' fingerprints and
    # parity values, or the run would not be correct.
    assert traced["correct"], traced["errors"]
    common = traced["fingerprints"].keys() & untraced["fingerprints"].keys()
    assert common
    assert all(traced["fingerprints"][k] == untraced["fingerprints"][k] for k in common)
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert (tmp_path / f"trace-{name}.json").is_file()

    line = json.loads(run.result_line(untraced))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def _round(fp_a="x", fp_b="y", parity=None, error=""):
    return RoundResult(
        1.0, 1.0,
        {"a": Op(2, 10, fp_a, error), "b": Op(3, 10, fp_b)},
        parity=parity or {},
    )


def test_check_counts_differences_pins_and_parity():
    same = [_round(), _round()]
    assert run._check(same, None) == (10, 0, [])
    attempted, failed, errors = run._check([_round(), _round(fp_a="z")], None)
    assert (attempted, failed) == (10, 2) and "differs from its first run" in errors[0]
    _, failed, _ = run._check(same, {"a": "x", "b": "wrong"})
    assert failed == 6
    _, failed, _ = run._check([_round(), _round(error="boom")], None)
    assert failed == 2
    _, failed, _ = run._check([_round(parity={"n": 1}), _round(parity={"n": 2})], None)
    assert failed == 5


def test_compare_verdicts_on_synthetic_samples():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [x * 1.2 for x in base]
    slower = [x * 0.8 for x in base]
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(base, faster, "higher", 0.1, 10)[0] == "improved"
    assert compare.verdict(base, base, "higher", 0.1, 10)[0] == "no-change"
    assert compare.verdict(base, slower, "higher", 0.1, 10)[0] == "regression"
    assert compare.verdict(base, faster, "lower", 0.1, 10)[0] == "regression"
    assert compare.verdict(noisy, noisy, "higher", 0.1, 10)[0] == "unresolved"
    assert compare.verdict(noisy, [200.0] * 10, "higher", 0.1, 10)[0] == "improved"
    # A wide spread is not unresolved when every change sample is better.
    assert compare.verdict(noisy, [200.0] * 10, "higher", 0.1, 1)[0] == "no-change"
    # 8 wins of 10 is short of nine tenths, and 9 runs are too few.
    mixed = faster[:8] + base[8:]
    assert compare.verdict(base, mixed, "higher", 0.5, 10)[0] == "no-change"
    assert compare.verdict(base[:9], faster[:9], "higher", 0.1, 9)[0] == "no-change"
    # The rounds of a single run are never enough for "improved", and
    # their spread counts in full.
    assert compare.verdict(base * 2, faster * 2, "higher", 0.1, 1)[0] == "no-change"
    rounds = [80.0, 120.0] * 8
    assert compare.verdict(rounds, rounds, "higher", 0.1, 1)[0] == "unresolved"


def _record(seed, fp, value, failed=0):
    return {
        "workload": "engine-grid", "seed": seed, "trace": False,
        "config": {"n": 1}, "fingerprints": {"op": fp},
        "attempted": 10, "failed": failed,
        "metrics": {m["name"]: {"value": value, "rounds": [value]}
                    for m in SPEC["end_to_end"]},
    }


def test_compare_fails_on_fingerprint_difference_or_failure(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "r.json").write_text(json.dumps(_record(0, "f1", 10.0)))
    (b / "r.json").write_text(json.dumps(_record(0, "f1", 10.0)))
    assert compare.main([str(a), str(b)]) == 0
    (b / "r.json").write_text(json.dumps(_record(0, "f2", 10.0)))
    assert compare.main([str(a), str(b)]) == 1
    assert "fingerprint difference" in capsys.readouterr().out
    (b / "r.json").write_text(json.dumps(_record(0, "f1", 10.0, failed=1)))
    assert compare.main([str(a), str(b)]) == 1
    assert "failed operations: B engine-grid seed 0" in capsys.readouterr().out


def test_benchmark_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "engine-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
