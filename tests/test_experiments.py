"""Tests for the sweep framework."""

import pytest

from repro.baselines import edf_factory
from repro.channel.jamming import PaperGuaranteeWarning, StochasticJammer
from repro.core.uniform import uniform_factory
from repro.experiments import Sweep
from repro.workloads import batch_instance, single_class_instance


def sparse_build(n):
    return batch_instance(n, window=512 * n)


class TestSweepPoint:
    def test_single_point(self):
        sweep = Sweep(
            build=sparse_build,
            protocol=lambda inst: uniform_factory(),
            seeds=4,
        )
        point = sweep.run_point(n=4)
        assert point.n_jobs == 4
        assert point.n_runs == 4
        assert 0.9 <= point.success.point <= 1.0
        assert point.success.low <= point.success.point <= point.success.high
        assert point.wall_seconds > 0

    def test_by_window_breakdown(self):
        sweep = Sweep(
            build=lambda: single_class_instance(4, level=9),
            protocol=lambda inst: edf_factory(inst),
            seeds=2,
        )
        point = sweep.run_point()
        assert list(point.by_window) == [512]
        assert point.by_window[512].point == 1.0

    def test_empty_workload_is_a_vacuous_success(self):
        """No jobs means no trials: point and interval 1.0, like
        robustness, certify, ``aggregate()`` and ``compare`` read it."""
        sweep = Sweep(
            build=lambda n: batch_instance(n, window=64),
            protocol=lambda inst: uniform_factory(),
            seeds=2,
        )
        point = sweep.run_point(n=0)
        assert point.n_jobs == point.n_succeeded == 0
        assert point.success.trials == 0
        assert (point.success.point, point.success.low, point.success.high) == (
            1.0, 1.0, 1.0,
        )

    def test_latency_aggregated(self):
        sweep = Sweep(
            build=lambda: single_class_instance(3, level=9),
            protocol=lambda inst: edf_factory(inst),
            seeds=1,
        )
        point = sweep.run_point()
        # EDF serves jobs in the first three slots
        assert 1.0 <= point.mean_latency <= 3.0


class TestGrid:
    def test_cartesian_order(self):
        sweep = Sweep(
            build=lambda n, w: batch_instance(n, window=w),
            protocol=lambda inst: uniform_factory(),
            seeds=1,
        )
        pts = sweep.run({"n": [2, 4], "w": [256, 512]})
        combos = [(p.params["n"], p.params["w"]) for p in pts]
        assert combos == [(2, 256), (2, 512), (4, 256), (4, 512)]

    def test_table_renders(self):
        sweep = Sweep(
            build=sparse_build,
            protocol=lambda inst: uniform_factory(),
            seeds=1,
        )
        pts = sweep.run({"n": [2, 4]})
        text = Sweep.table(pts, title="demo")
        assert "demo" in text
        assert "success" in text

    def test_empty_table(self):
        assert Sweep.table([], title="t") == "t"


class TestOptions:
    def test_jammer_applied(self):
        clean = Sweep(
            build=lambda: batch_instance(16, window=2048),
            protocol=lambda inst: uniform_factory(),
            seeds=10,
        ).run_point()
        with pytest.warns(PaperGuaranteeWarning):
            jam = StochasticJammer(1.0)
        jammed = Sweep(
            build=lambda: batch_instance(16, window=2048),
            protocol=lambda inst: uniform_factory(),
            seeds=10,
            jammer=jam,
        ).run_point()
        assert jammed.success.point == 0.0
        assert clean.success.point > 0.8

    def test_seed_base_changes_randomness(self):
        def run(base):
            return Sweep(
                build=lambda: batch_instance(8, window=64),
                protocol=lambda inst: uniform_factory(),
                seeds=1,
                seed_base=base,
            ).run_point().n_succeeded

        results = {run(b) for b in range(8)}
        assert len(results) > 1

    def test_seeds_validated(self):
        with pytest.raises(ValueError):
            Sweep(build=sparse_build, protocol=lambda i: uniform_factory(), seeds=0)


class TestFaultedSweep:
    def test_fault_plan_degrades_grid(self):
        from repro.faults import FaultPlan, JobFault

        clean = Sweep(
            build=sparse_build,
            protocol=lambda inst: uniform_factory(),
            seeds=4,
        ).run_point(n=16)
        crashy = Sweep(
            build=sparse_build,
            protocol=lambda inst: uniform_factory(),
            seeds=4,
            faults=FaultPlan(jobs=JobFault(p_crash=1.0)),
            check_invariants=True,
        ).run_point(n=16)
        assert crashy.n_succeeded < clean.n_succeeded
