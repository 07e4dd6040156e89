"""The campaign orchestrator: evaluate, execute, quarantine, resume."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStateError,
    QUARANTINE_EXIT_CODE,
    evaluate,
    run_campaign,
)
from repro.campaign.state import CampaignState
from repro.obs.ledger import RunLedger


def _spec(tmp_path, **overrides):
    raw = {
        "name": "t",
        "workloads": ["batch", "single-class"],
        "protocols": ["punctual"],
        "seeds": 2,
        "knobs": {"n": 4, "window": 256},
        "executor": "serial",
        "retries": 1,
        "retry_backoff": 0.0,
        "cache": "cache",
        "state": "state.jsonl",
        "ledger": "ledger.jsonl",
    }
    raw.update(overrides)
    return CampaignSpec.from_dict(raw, base_dir=tmp_path)


class TestDryRun:
    def test_cold_start_predicts_all_misses(self, tmp_path):
        spec = _spec(tmp_path)
        report = run_campaign(spec, dry_run=True)
        assert report.dry_run
        assert report.counts["missing"] == 2
        assert report.counts["cache_hits"] == 0
        assert report.counts["cache_misses"] == 4  # 2 cells x 2 seeds

    def test_dry_run_writes_nothing(self, tmp_path):
        spec = _spec(tmp_path)
        run_campaign(spec, dry_run=True)
        assert not spec.state_path.exists()
        assert not spec.ledger_path.exists()

    def test_warm_cache_predicts_exact_hits(self, tmp_path):
        spec = _spec(tmp_path)
        run_campaign(spec)
        # Fresh state, same cache: every seed is already addressed.
        spec2 = _spec(tmp_path, state="state2.jsonl")
        report = run_campaign(spec2, dry_run=True)
        assert report.counts["cache_hits"] == 4
        assert report.counts["cache_misses"] == 0

    def test_prediction_matches_fastpath_routing(self, tmp_path):
        # Runs cached under fastpath keys must be predicted as hits by
        # a fastpath dry run — and as misses by an engine-path dry run
        # (the two key namespaces are deliberately disjoint).
        fp = _spec(tmp_path, fastpath="auto")
        run_campaign(fp)
        warm_fp = _spec(tmp_path, fastpath="auto", state="s2.jsonl")
        assert run_campaign(warm_fp, dry_run=True).counts["cache_hits"] == 4
        warm_engine = _spec(tmp_path, fastpath="off", state="s3.jsonl")
        assert (
            run_campaign(warm_engine, dry_run=True).counts["cache_hits"] == 0
        )

    def test_dry_run_refuses_a_drifted_grid(self, tmp_path):
        spec = _spec(tmp_path)
        run_campaign(spec)
        before = spec.state_path.read_bytes()
        with pytest.raises(CampaignStateError, match="different campaign"):
            run_campaign(_spec(tmp_path, seeds=3), dry_run=True)
        assert spec.state_path.read_bytes() == before


class TestCacheReads:
    def test_cold_run_reads_each_seed_once(self, tmp_path, monkeypatch):
        from repro.cache import ResultCache

        gets = []
        real_get = ResultCache.get

        def counting_get(self, key):
            gets.append(key)
            return real_get(self, key)

        monkeypatch.setattr(ResultCache, "get", counting_get)
        report = run_campaign(_spec(tmp_path))
        assert report.counts["done"] == 2
        assert len(gets) == 4  # 2 cells x 2 seeds, one lookup each
        assert len(set(gets)) == 4


class TestRunAndResume:
    def test_clean_run_executes_every_cell_once(self, tmp_path):
        spec = _spec(tmp_path)
        report = run_campaign(spec)
        assert report.exit_code == 0
        assert len(report.executed) == 2
        assert report.counts["done"] == 2
        recs = [
            r for r in RunLedger(spec.ledger_path).read()
            if r.kind == "campaign-cell"
        ]
        assert len(recs) == 2
        assert len({r.config_digest for r in recs}) == 2

    def test_second_run_is_a_no_op(self, tmp_path):
        spec = _spec(tmp_path)
        run_campaign(spec)
        report = run_campaign(spec)
        assert report.executed == []
        assert report.counts["done"] == 2
        # No new cell records: completions are exactly-once.
        recs = [
            r for r in RunLedger(spec.ledger_path).read()
            if r.kind == "campaign-cell"
        ]
        assert len(recs) == 2

    def test_drift_is_refused(self, tmp_path):
        run_campaign(_spec(tmp_path))
        edited = _spec(tmp_path, seeds=5)
        with pytest.raises(CampaignStateError, match="different campaign"):
            run_campaign(edited)

    def test_progress_reports_each_executed_cell(self, tmp_path):
        ticks = []
        run_campaign(_spec(tmp_path), progress=lambda d, t: ticks.append((d, t)))
        assert ticks == [(1, 2), (2, 2)]


class TestQuarantine:
    def test_poison_cell_quarantined_others_complete(self, tmp_path):
        spec = _spec(
            tmp_path,
            workloads=["batch", {"workload": "poison"}],
            retries=1,
        )
        report = run_campaign(spec)
        assert report.exit_code == QUARANTINE_EXIT_CODE
        assert report.counts == {
            "cells": 2,
            "done": 1,
            "quarantined": 1,
            "missing": 0,
            "cache_hits": 0,
            "cache_misses": 0,
        }
        (q,) = report.quarantined
        assert q.attempts == 2  # 1 + retries
        assert "poison" in q.error

    def test_quarantine_is_durable_across_runs(self, tmp_path):
        spec = _spec(tmp_path, workloads=[{"workload": "poison"}])
        run_campaign(spec)
        report = run_campaign(spec)
        assert report.executed == []
        assert len(report.quarantined) == 1
        assert report.exit_code == QUARANTINE_EXIT_CODE

    def test_attempt_budget_survives_crashes(self, tmp_path):
        # Simulate a campaign that burned its whole budget in runs that
        # crashed before completing: resume quarantines without another
        # attempt instead of retrying forever.
        spec = _spec(tmp_path, retries=1)
        cell = spec.cells()[0]
        state = CampaignState(spec.state_path)
        state.ensure_header(name=spec.name, spec_digest=spec.digest())
        state.record_attempt(cell.key(), 1)
        state.record_attempt(cell.key(), 2)
        report = run_campaign(spec)
        assert report.counts["quarantined"] == 1
        assert report.counts["done"] == 1  # the other cell still ran
        (q,) = report.quarantined
        assert "prior attempt" in q.error


class TestReportJson:
    def test_to_json_is_strict(self, tmp_path):
        spec = _spec(tmp_path, workloads=["batch", {"workload": "poison"}])
        report = run_campaign(spec)
        text = json.dumps(report.to_json(), allow_nan=False)
        parsed = json.loads(text)
        assert parsed["exit_code"] == QUARANTINE_EXIT_CODE
        assert parsed["counts"]["quarantined"] == 1
        assert len(parsed["executed"]) == 1


class TestEvaluate:
    def test_statuses_partition_the_grid(self, tmp_path):
        spec = _spec(tmp_path, workloads=["batch", {"workload": "poison"}])
        run_campaign(spec)
        plan = evaluate(spec)
        statuses = sorted(c.status for c in plan.cells)
        assert statuses == ["done", "quarantined"]
        assert plan.counts["missing"] == 0


class TestJammedKernelCells:
    """``uniform x {none, jam@0.25}`` cells run on the UNIFORM kernel."""

    def _jam_spec(self, tmp_path, fastpath, **overrides):
        raw = {
            "workloads": ["batch"],
            "protocols": ["uniform"],
            "adversaries": ["none", "jam@0.25"],
            "knobs": {"n": 32, "window": 1024},
            "fastpath": fastpath,
            "cache": f"cache-{fastpath}",
            "state": f"state-{fastpath}.jsonl",
        }
        return _spec(tmp_path, **{**raw, **overrides})

    @staticmethod
    def _summaries(report):
        return {r.label: r.summary for r in report.executed}

    def test_auto_runs_every_cell_on_the_kernel(self, tmp_path, monkeypatch):
        import repro.experiments.parallel as parallel_mod
        from repro.fastpath import batched as batched_mod

        trials = []
        real_trial = batched_mod.simulate_fastpath

        def counting_trial(plan, seed):
            trials.append((plan.kind, plan.p_jam))
            return real_trial(plan, seed)

        def no_engine(*args, **kwargs):
            raise AssertionError("a jammed UNIFORM cell reached the engine")

        with monkeypatch.context() as m:
            m.setattr(batched_mod, "simulate_fastpath", counting_trial)
            m.setattr(parallel_mod, "simulate", no_engine)
            auto = run_campaign(self._jam_spec(tmp_path, "auto"))
        assert auto.counts["done"] == 2
        assert sorted(trials) == [("uniform", 0.0)] * 2 + [
            ("uniform", 0.25)
        ] * 2
        engine = run_campaign(self._jam_spec(tmp_path, "off"))
        assert self._summaries(auto) == self._summaries(engine)
        assert set(self._summaries(auto)) == {
            "batch/uniform/none",
            "batch/uniform/jam@0.25",
        }

    def test_warm_dry_run_predicts_every_seed_a_hit(self, tmp_path):
        run_campaign(self._jam_spec(tmp_path, "auto"))
        warm = self._jam_spec(tmp_path, "auto", state="state-warm.jsonl")
        counts = run_campaign(warm, dry_run=True).counts
        assert counts["cache_hits"] == 4
        assert counts["cache_misses"] == 0

    def test_fastpath_on_completes_the_jam_cell(self, tmp_path):
        report = run_campaign(self._jam_spec(tmp_path, "on"))
        assert report.counts["quarantined"] == 0
        assert report.counts["done"] == 2
        assert report.exit_code == 0
