"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.obs import read_artifact


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.protocol == "punctual"
        assert args.workload == "batch"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--protocol", "nope"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["robustness", "--seeds", "0", "--protocols", "uniform"],
            ["frontier", "--seeds", "0"],
            ["compare", "--seeds", "0"],
            ["compare", "--seeds", "-1"],
            ["certify", "--seeds", "0", "--protocols", "uniform",
             "--families", "jam"],
            ["sweep", "--values", "4", "--seeds", "-2"],
            ["simulate", "--seed", "-1"],
            ["schedule", "--seed", "-1"],
            ["stream", "--seed", "-1", "--max-jobs", "10"],
            ["simulate", "--workload-seed", "-1"],
        ],
        ids=" ".join,
    )
    def test_seed_flags_that_cannot_run_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >= " in capsys.readouterr().err


class TestSimulate:
    def test_punctual_batch(self, capsys):
        rc = main(
            [
                "simulate",
                "--workload", "batch",
                "--n", "6",
                "--window", "3000",
                "--protocol", "punctual",
                "--min-level", "10",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "success:" in out

    def test_aligned_on_aligned_workload(self, capsys):
        rc = main(
            [
                "simulate",
                "--workload", "single-class",
                "--n", "8",
                "--level", "9",
                "--protocol", "aligned",
                "--min-level", "9",
            ]
        )
        assert rc == 0
        assert "success: 8/8" in capsys.readouterr().out

    def test_aligned_rejected_on_unaligned_workload(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate",
                    "--workload", "batch",
                    "--window", "3000",
                    "--protocol", "aligned",
                ]
            )

    @pytest.mark.parametrize(
        "workload",
        [
            ["--workload", "batch", "--n", "4", "--window", "256"],
            ["--workload", "single-class", "--n", "4", "--level", "8"],
            ["--workload", "single-class", "--n", "4", "--level", "10",
             "--min-level", "11"],
        ],
        ids=["batch-class-8", "single-class-8", "min-level-11"],
    )
    def test_aligned_unavailable_below_min_level(self, workload, capsys):
        """ALIGNED's schedule has no slot for a job class below
        ``--min-level``: simulate refuses it by name, compare drops it."""
        with pytest.raises(SystemExit, match="'aligned' unavailable"):
            main(["simulate", "--protocol", "aligned", *workload])
        assert main(["compare", "--seeds", "1", *workload]) == 0
        rows = [
            line.split("|")[0].strip()
            for line in capsys.readouterr().out.splitlines()
            if "|" in line
        ]
        assert "uniform" in rows and "aligned" not in rows

    def test_require_success_exit_code(self):
        # saturated ALOHA at tight deadlines cannot reach 100%
        rc = main(
            [
                "simulate",
                "--workload", "batch",
                "--n", "64",
                "--window", "64",
                "--protocol", "aloha",
                "--require-success", "1.0",
            ]
        )
        assert rc == 1

    def test_trace_flag(self, capsys):
        rc = main(
            [
                "simulate",
                "--workload", "single-class",
                "--n", "4",
                "--level", "9",
                "--protocol", "uniform",
                "--trace",
            ]
        )
        assert rc == 0
        assert "utilization:" in capsys.readouterr().out

    def test_unknown_fault_family_is_a_clean_exit(self):
        with pytest.raises(SystemExit, match="unknown adversary family"):
            main(["simulate", "--fault", "cosmic:0.5"])


class TestCompare:
    def test_table_lists_protocols(self, capsys):
        rc = main(
            [
                "compare",
                "--workload", "single-class",
                "--n", "6",
                "--level", "9",
                "--seeds", "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("aligned", "beb", "uniform", "edf"):
            assert name in out

    def test_empty_workload_has_zero_miss_rate(self, capsys):
        rc = main(["compare", "--workload", "batch", "--n", "0", "--seeds", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [line.split("|") for line in out.splitlines() if "|" in line]
        assert rows[0][1].strip() == "miss rate"
        assert {r[1].strip() for r in rows[1:]} == {"0.0000"}
        assert {r[2].strip() for r in rows[1:]} == {"0"}


class TestFeasibility:
    def test_harmonic_certificate(self, capsys):
        rc = main(
            ["feasibility", "--workload", "harmonic", "--n", "64", "--gamma", "0.5"]
        )
        out = capsys.readouterr().out
        # the harmonic instance is slack-feasible but its tiny windows
        # cannot cover PUNCTUAL's fixed costs: the certificate must say so
        assert rc == 1
        assert "peak density" in out
        assert "yes" in out
        assert "punctual.window" in out
        assert "NOT READY" in out

    def test_ready_workload_passes_certificate(self, capsys):
        rc = main(
            [
                "feasibility",
                "--workload", "batch",
                "--n", "8",
                "--window", "32768",
                "--gamma", "0.01",
                "--min-level", "10",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: OK" in out

    def test_infeasible_exit_code(self, capsys):
        # 64 jobs in a 64-slot window: density 1.0, not 0.5-slack feasible
        rc = main(
            [
                "feasibility",
                "--workload", "batch",
                "--n", "64",
                "--window", "64",
                "--gamma", "0.5",
            ]
        )
        assert rc == 1


class TestSchedule:
    def test_renders(self, capsys):
        rc = main(["schedule", "--small-level", "9", "--width", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "class  9" in out
        assert "legend" in out


class TestSweep:
    def test_sweep_table(self, capsys):
        rc = main(
            [
                "sweep",
                "--workload", "batch",
                "--protocol", "beb",
                "--param", "n",
                "--values", "2,4",
                "--window", "128",
                "--seeds", "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "sweeping n" in out
        assert "ci low" in out

    def test_sweep_empty_workload_row(self, capsys):
        rc = main(
            [
                "sweep",
                "--protocol", "uniform",
                "--param", "n",
                "--values", "0,4",
                "--seeds", "2",
                "--window", "64",
            ]
        )
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        empty = next(r for r in rows if r.startswith("0 |"))
        cells = [c.strip() for c in empty.split("|")]
        assert cells[1:4] == ["1.0000", "1.0000", "1.0000"]

    def test_sweep_float_values(self, capsys):
        rc = main(
            [
                "sweep",
                "--workload", "aligned-random",
                "--protocol", "uniform",
                "--param", "gamma",
                "--values", "0.01,0.05",
                "--level", "9",
                "--seeds", "1",
            ]
        )
        assert rc == 0
        assert "gamma" in capsys.readouterr().out


class TestExport:
    def test_export_jobs_csv(self, tmp_path, capsys):
        dest = tmp_path / "jobs.csv"
        rc = main(
            [
                "simulate",
                "--workload", "batch",
                "--n", "3",
                "--window", "64",
                "--protocol", "uniform",
                "--export", str(dest),
            ]
        )
        assert rc == 0
        text = dest.read_text()
        assert text.startswith("job_id,")
        assert text.count("\n") == 4  # header + 3 jobs

    def test_export_trace_csv(self, tmp_path):
        dest = tmp_path / "trace.csv"
        rc = main(
            [
                "simulate",
                "--workload", "batch",
                "--n", "2",
                "--window", "32",
                "--protocol", "uniform",
                "--export-trace", str(dest),
            ]
        )
        assert rc == 0
        assert dest.read_text().startswith("slot,")


class TestReport:
    def test_missing_dir_errors(self, capsys, tmp_path):
        rc = main(["report", "--results-dir", str(tmp_path / "nope")])
        assert rc == 1

    def test_empty_dir_errors(self, tmp_path):
        rc = main(["report", "--results-dir", str(tmp_path)])
        assert rc == 1

    def test_assembles_markdown(self, capsys, tmp_path):
        (tmp_path / "E1_demo.txt").write_text("table one\n")
        (tmp_path / "E2_demo.txt").write_text("table two\n")
        rc = main(["report", "--results-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "## E1_demo" in out and "table two" in out

    def test_writes_output_file(self, tmp_path):
        (tmp_path / "E1_demo.txt").write_text("t\n")
        dest = tmp_path / "report.md"
        rc = main(
            [
                "report",
                "--results-dir", str(tmp_path),
                "--output", str(dest),
            ]
        )
        assert rc == 0
        assert "# Experiment report" in dest.read_text()


class TestSimulateFaults:
    def test_fault_flag_parsed_and_reported(self, capsys):
        rc = main(
            [
                "simulate",
                "--workload", "batch",
                "--n", "6",
                "--window", "3000",
                "--protocol", "uniform",
                "--fault", "jobs:0.5",
                "--check-invariants",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "faults:" in out

    def test_fault_flag_rejects_bad_spec(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate",
                    "--workload", "batch",
                    "--window", "3000",
                    "--protocol", "uniform",
                    "--fault", "jobs",
                ]
            )
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate",
                    "--workload", "batch",
                    "--window", "3000",
                    "--protocol", "uniform",
                    "--fault", "jobs:lots",
                ]
            )

    @pytest.mark.parametrize("fastpath", ["auto", "on"])
    def test_jammer_only_fault_routes_like_jam(self, capsys, fastpath):
        base = [
            "simulate",
            "--workload", "batch",
            "--n", "16",
            "--window", "2048",
            "--protocol", "punctual",
            "--seed", "1",
            "--fastpath", fastpath,
        ]
        assert main(base + ["--jam", "0.25"]) == 0
        jam = capsys.readouterr().out
        assert "fastpath: punctual kernel" in jam
        assert main(base + ["--fault", "jam:0.25"]) == 0
        assert capsys.readouterr().out == jam

    def test_jamming_fault_conflicts_with_jam_flag(self):
        with pytest.raises(SystemExit, match="conflicts"):
            main(
                [
                    "simulate",
                    "--workload", "batch",
                    "--window", "3000",
                    "--protocol", "uniform",
                    "--fault", "jam:0.3",
                    "--jam", "0.2",
                ]
            )


class TestRobustness:
    def test_profile_table(self, capsys):
        rc = main(
            [
                "robustness",
                "--workload", "batch",
                "--n", "8",
                "--window", "4000",
                "--protocols", "uniform",
                "--families", "jobs",
                "--severities", "0,0.5",
                "--seeds", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault family: jobs" in out
        assert "uniform" in out

    def test_threshold_note_printed(self, capsys):
        rc = main(
            [
                "robustness",
                "--workload", "batch",
                "--n", "8",
                "--window", "4000",
                "--protocols", "uniform",
                "--families", "jam",
                "--severities", "0,0.5",
                "--seeds", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Thm 14 boundary" in out
        assert "boundary of Theorem 14" in out

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit, match="unknown adversary family"):
            main(
                [
                    "robustness",
                    "--workload", "batch",
                    "--window", "3000",
                    "--protocols", "uniform",
                    "--families", "gremlins",
                ]
            )

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit, match="unavailable"):
            main(
                [
                    "robustness",
                    "--workload", "batch",
                    "--window", "3000",
                    "--protocols", "aligned",  # needs single-class workload
                    "--families", "jobs",
                ]
            )

    def test_empty_workload_is_a_vacuous_success(self, capsys):
        rc = main(
            [
                "robustness",
                "--workload", "batch",
                "--n", "0",
                "--protocols", "uniform",
                "--families", "jam",
                "--severities", "0,0.5",
                "--seeds", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        rows = [line.split("|") for line in out.splitlines() if "|" in line]
        assert rows[0][1].strip() == "uniform"
        assert [r[1].strip() for r in rows[1:]] == ["1.0000", "1.0000"]

    def test_smoke_runs_clean(self, capsys):
        rc = main(["robustness", "--smoke"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault family: rate" in out

    def test_new_rung_is_served_the_cached_seeds(self, tmp_path):
        """Only the workload knobs key a run: a three-rung ladder on two
        workers is served every seed the two-rung ladder cached."""
        argv = [
            "robustness",
            "--workload", "single-class",
            "--n", "10",
            "--level", "9",
            "--protocols", "aligned,uniform",
            "--families", "rate",
            "--seeds", "3",
            "--cache", str(tmp_path / "cache"),
        ]
        assert main(argv + ["--severities", "0,0.5"]) == 0
        tele = tmp_path / "rerun.jsonl"
        assert main(
            argv
            + ["--severities", "0,0.25,0.5", "--processes", "2",
               "--telemetry", str(tele)]
        ) == 0
        art = read_artifact(tele)
        assert art.counter_value("cache.hits") == 12  # 2 rungs x 2 x 3
        assert art.counter_value("cache.misses") == 6  # the new rung


class TestCertify:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["certify"])
        assert args.protocols == "punctual"
        assert args.seeds == 30
        assert args.tol == 0.02
        assert args.min_jam_threshold == 0.4
        # The calibrated certification workload rides on add_common.
        assert args.n == 12 and args.window == 1024

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit, match="unknown adversary family"):
            main(
                [
                    "certify",
                    "--protocols", "uniform",
                    "--families", "gremlins",
                ]
            )

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit, match="unavailable"):
            main(["certify", "--protocols", "nope"])

    def test_frontier_printed_and_artifact_written(self, capsys, tmp_path):
        artifact = tmp_path / "frontier.jsonl"
        rc = main(
            [
                "certify",
                "--protocols", "uniform",
                "--families", "jam",
                "--seeds", "3",
                "--tol", "0.1",
                "--min-jam-threshold", "0",
                "--artifact", str(artifact),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "degradation frontier: uniform" in out
        assert "Thm 14 boundary" in out
        lines = artifact.read_text().splitlines()
        assert len(lines) == 1
        import json

        rec = json.loads(lines[0])
        assert rec["type"] == "breaking_point"
        assert rec["family"] == "jam"

    def test_empty_workload_has_no_breaking_point(self, capsys):
        rc = main(
            [
                "certify",
                "--workload", "batch",
                "--n", "0",
                "--protocols", "uniform",
                "--families", "jam",
                "--seeds", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "none in [0,1]" in out

    def test_gate_passes_on_healthy_uniform_jam(self, capsys):
        # UNIFORM on the calibrated workload holds past 0.4 as well, so
        # the Theorem-14 gate (applied to punctual only) stays quiet.
        rc = main(
            [
                "certify",
                "--protocols", "uniform",
                "--families", "jam,banked",
                "--seeds", "3",
                "--tol", "0.1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "CERTIFY FAILURE" not in out


class TestStream:
    def test_defaults_parse(self):
        args = build_parser().parse_args(["stream"])
        assert args.arrivals == "poisson"
        assert args.policy == "shed-newest"
        assert args.shards == 1

    def test_basic_sweep(self, capsys):
        rc = main(
            [
                "stream",
                "--rho", "0.05,0.2",
                "--windows", "16,64",
                "--protocol", "sawtooth",
                "--max-jobs", "400",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "sustained load" in out
        assert "throughput ceiling" in out
        assert out.count("released=") == 2

    def test_budget_and_report_artifact(self, capsys, tmp_path):
        import json

        report = tmp_path / "stream.json"
        rc = main(
            [
                "stream",
                "--rho", "0.5",
                "--windows", "16,64",
                "--protocol", "sawtooth",
                "--max-jobs", "600",
                "--max-live", "16",
                "--policy", "shed-loosest-deadline",
                "--report", str(report),
            ]
        )
        assert rc == 0
        assert "shed=" in capsys.readouterr().out
        data = json.loads(report.read_text())
        assert data["rows"][0]["peak_live"] <= 16
        assert data["rows"][0]["jobs_released"] == 600

    def test_sharded_run_merges(self, capsys):
        rc = main(
            [
                "stream",
                "--rho", "0.2",
                "--windows", "16",
                "--protocol", "sawtooth",
                "--max-jobs", "600",
                "--shards", "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "released=600" in out

    def test_checkpoint_resume_cycle(self, capsys, tmp_path):
        ck = str(tmp_path / "ck.bin")
        base = [
            "stream",
            "--rho", "0.25",
            "--windows", "16,64",
            "--protocol", "sawtooth",
            "--max-jobs", "1500",
            "--checkpoint", ck,
            "--checkpoint-every", "1000",
        ]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main(base + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed at slot" in second
        # the resumed run reproduces the uninterrupted statistics
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_checkpoint_rejects_multi_rho(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "stream",
                    "--rho", "0.1,0.2",
                    "--protocol", "sawtooth",
                    "--max-jobs", "100",
                    "--checkpoint", "/tmp/nope.bin",
                ]
            )

    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "stream",
                    "--protocol", "sawtooth",
                    "--max-jobs", "100",
                    "--resume",
                ]
            )

    def test_rss_budget_gate(self, capsys):
        rc = main(
            [
                "stream",
                "--rho", "0.2",
                "--windows", "16",
                "--protocol", "sawtooth",
                "--max-jobs", "200",
                "--rss-budget-mb", "4096",
            ]
        )
        assert rc == 0
        assert "peak RSS" in capsys.readouterr().out

    def test_fault_and_jam_compose(self, capsys):
        rc = main(
            [
                "stream",
                "--rho", "0.2",
                "--windows", "16,64",
                "--protocol", "sawtooth",
                "--max-jobs", "400",
                "--fault", "clock:0.3",
                "--jam", "0.1",
            ]
        )
        assert rc == 0
        assert "sustained load" in capsys.readouterr().out
