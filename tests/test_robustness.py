"""Tests for the robustness degradation-profile experiment."""

import pytest

from repro.core.aligned import aligned_factory
from repro.core.uniform import uniform_factory
from repro.errors import InvalidParameterError
from repro.experiments import RobustnessReport, run_robustness
from repro.experiments.robustness import JAM_THRESHOLD, ProfilePoint
from repro.params import AlignedParams
from repro.workloads import batch_instance, single_class_instance


def build_batch():
    return batch_instance(12, window=4096)


def build_aligned():
    return single_class_instance(10, level=9)


def uniform_protocol(instance):
    return uniform_factory()


def aligned_protocol(instance):
    return aligned_factory(AlignedParams(lam=1, tau=4, min_level=9))


class TestReport:
    def points(self):
        from repro.analysis.stats import estimate_proportion

        pts = []
        for sev in (0.0, 0.5, 0.75):
            for proto in ("uniform", "aligned"):
                pts.append(
                    ProfilePoint(
                        family="jam",
                        protocol=proto,
                        severity=sev,
                        success=estimate_proportion(8, 10),
                        mean_latency=12.0,
                        n_runs=2,
                    )
                )
        return pts

    def test_threshold_row_flagged(self):
        report = RobustnessReport(self.points())
        table = report.table("jam")
        assert "p_jam = 1/2 (Thm 14 boundary)" in table
        assert "beyond paper guarantee" in table

    def test_at_threshold_property(self):
        pts = self.points()
        assert any(p.at_threshold for p in pts)
        assert all(
            p.severity == JAM_THRESHOLD for p in pts if p.at_threshold
        )

    def test_render_covers_all_families(self):
        report = RobustnessReport(self.points())
        assert report.families() == ["jam"]
        assert report.protocols() == ["uniform", "aligned"]
        assert "fault family: jam" in report.render()

    def test_point_lookup(self):
        report = RobustnessReport(self.points())
        p = report.point("jam", "aligned", 0.5)
        assert p.protocol == "aligned"
        with pytest.raises(KeyError):
            report.point("jam", "aligned", 0.99)


class TestRunRobustness:
    def test_profiles_degrade_monotonically_in_spirit(self):
        # severity 1.0 is deliberately past the paper's threshold and
        # should announce it.
        from repro.channel.jamming import PaperGuaranteeWarning

        with pytest.warns(PaperGuaranteeWarning):
            report = run_robustness(
                build_batch,
                {"uniform": uniform_protocol},
                families=["jam"],
                severities=(0.0, 1.0),
                seeds=3,
            )
        clean = report.point("jam", "uniform", 0.0)
        worst = report.point("jam", "uniform", 1.0)
        assert clean.success.point > worst.success.point
        assert worst.success.point == 0.0  # p_jam=1 kills every single

    def test_aligned_within_guarantee_at_threshold(self):
        # Theorem 14: ALIGNED keeps its whp guarantee for p_jam <= 1/2.
        # On this small instance that should manifest as a high success
        # rate right at the boundary.
        report = run_robustness(
            build_aligned,
            {"aligned": aligned_protocol},
            families=["jam"],
            severities=(0.0, JAM_THRESHOLD),
            seeds=5,
        )
        at = report.point("jam", "aligned", JAM_THRESHOLD)
        assert at.at_threshold
        assert at.success.point >= 0.9

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_robustness(
                build_batch, {"uniform": uniform_protocol},
                families=["nope"],
            )

    def test_invariants_on_by_default_and_progress_called(self):
        seen = []
        report = run_robustness(
            build_batch,
            {"uniform": uniform_protocol},
            families=["jobs"],
            severities=(0.0, 0.5),
            seeds=2,
            progress=lambda f, p, s: seen.append((f, p, s)),
        )
        assert seen == [("jobs", "uniform", 0.0), ("jobs", "uniform", 0.5)]
        assert len(report.points) == 2
