"""End-to-end CLI tests for ``repro campaign run/resume/status/manifest``."""

import json

import pytest

from repro.cli import main

SPEC = {
    "name": "clicamp",
    "workloads": ["batch", {"workload": "poison"}],
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


@pytest.fixture
def spec_file(tmp_path):
    p = tmp_path / "camp.json"
    p.write_text(json.dumps(SPEC))
    return str(p)


@pytest.fixture
def yaml_spec_file(tmp_path):
    import yaml

    p = tmp_path / "camp.yaml"
    p.write_text(yaml.safe_dump(SPEC))
    return str(p)


class TestDryRun:
    def test_plan_predicts_without_executing(self, spec_file, capsys, tmp_path):
        rc = main(["campaign", "run", spec_file, "--dry-run"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "campaign plan" in out
        assert "missing: 2" in out
        assert "4 miss(es) predicted" in out
        assert not (tmp_path / "state.jsonl").exists()

    def test_yaml_specs_work(self, yaml_spec_file, capsys):
        rc = main(["campaign", "run", yaml_spec_file, "--dry-run"])
        assert rc == 0
        assert "campaign plan" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd", ["run", "resume"])
    def test_dry_run_refuses_a_drifted_grid(self, tmp_path, capsys, cmd):
        p = tmp_path / "clean.json"
        p.write_text(json.dumps({**SPEC, "workloads": ["batch"]}))
        assert main(["campaign", "run", str(p)]) == 0
        state = (tmp_path / "state.jsonl").read_bytes()
        p.write_text(json.dumps({**SPEC, "workloads": ["batch"], "seeds": 3}))
        with pytest.raises(SystemExit, match="different campaign grid"):
            main(["campaign", cmd, str(p), "--dry-run"])
        assert (tmp_path / "state.jsonl").read_bytes() == state


class TestRun:
    def test_degraded_run_exits_with_quarantine_code(self, spec_file, capsys):
        rc = main(["campaign", "run", spec_file])
        out = capsys.readouterr().out
        assert rc == 3
        assert "quarantined: poison/punctual/none" in out
        assert "executed: 1 cell(s)" in out

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        p = tmp_path / "clean.json"
        p.write_text(json.dumps({**SPEC, "workloads": ["batch"]}))
        assert main(["campaign", "run", str(p)]) == 0

    def test_run_json_is_strict(self, spec_file, capsys):
        rc = main(["campaign", "run", spec_file, "--json"])
        payload = json.loads(
            capsys.readouterr().out, parse_constant=pytest.fail
        )
        assert rc == 3
        assert payload["exit_code"] == 3
        assert payload["counts"]["done"] == 1

    def test_rerun_executes_nothing(self, spec_file, capsys):
        main(["campaign", "run", spec_file])
        capsys.readouterr()
        rc = main(["campaign", "run", spec_file])
        assert rc == 3  # quarantine stays reported
        assert "executed: 0 cell(s)" in capsys.readouterr().out


class TestResume:
    def test_resume_without_state_is_an_error(self, spec_file):
        with pytest.raises(SystemExit, match="no campaign state"):
            main(["campaign", "resume", spec_file])

    def test_resume_after_run_is_a_no_op(self, spec_file, capsys):
        main(["campaign", "run", spec_file])
        capsys.readouterr()
        rc = main(["campaign", "resume", spec_file])
        assert rc == 3
        assert "executed: 0 cell(s)" in capsys.readouterr().out

    def test_edited_grid_is_refused(self, spec_file, tmp_path, capsys):
        main(["campaign", "run", spec_file])
        capsys.readouterr()
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps({**SPEC, "seeds": 5}))
        with pytest.raises(SystemExit, match="different campaign"):
            main(["campaign", "resume", str(edited)])


class TestStatus:
    def test_status_before_any_run(self, spec_file, capsys):
        rc = main(["campaign", "status", spec_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cells: 2" in out and "missing: 2" in out

    def test_status_json_matches_runs_style_strictness(self, spec_file, capsys):
        # Same contract as `repro runs --json` / `repro obs --json`:
        # parseable by a strict reader, never a bare NaN token.
        main(["campaign", "run", spec_file])
        capsys.readouterr()
        rc = main(["campaign", "status", spec_file, "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "NaN" not in out
        payload = json.loads(out, parse_constant=pytest.fail)
        assert payload["counts"] == {
            "cells": 2,
            "done": 1,
            "quarantined": 1,
            "missing": 0,
            "cache_hits": 0,
            "cache_misses": 0,
        }
        assert payload["quarantined"][0]["label"] == "poison/punctual/none"
        assert payload["state_drift"] is False


class TestManifest:
    def test_manifest_lists_every_cell(self, spec_file, capsys):
        main(["campaign", "run", spec_file])
        capsys.readouterr()
        rc = main(["campaign", "manifest", spec_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "batch/punctual/none" in out
        assert "quarantined" in out

    def test_manifest_json_has_keys_and_predictions(self, spec_file, capsys):
        rc = main(["campaign", "manifest", spec_file, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        cells = payload["cells"]
        assert len(cells) == 2
        assert all(len(c["key"]) == 64 for c in cells)
        assert cells[0]["cache_misses"] == 2


class TestBadSpecs:
    def test_parse_error_is_a_clean_exit(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**SPEC, "protocols": ["nope"]}))
        with pytest.raises(SystemExit, match="unknown protocol"):
            main(["campaign", "run", str(p)])

    def test_missing_spec_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["campaign", "status", str(tmp_path / "absent.yaml")])
