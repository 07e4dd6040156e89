"""The adversary catalogue: one ``family@severity`` map for every experiment."""

import warnings

import pytest

from repro.adversary import FAMILIES, REACTIVE, fault_plan
from repro.errors import InvalidParameterError


class TestFaultPlanBuilders:
    def test_every_family_builds_at_every_severity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for family in FAMILIES:
                for sev in (0.0, 0.1, 0.5, 1.0):
                    plan = fault_plan(family, sev)
                    if sev == 0.0:
                        assert plan.is_noop, (family, sev)
                    else:
                        assert not plan.is_noop, (family, sev)

    def test_unknown_family_rejected(self):
        with pytest.raises(
            InvalidParameterError, match="unknown adversary family"
        ):
            fault_plan("cosmic-rays", 0.5)

    def test_severity_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            fault_plan("jam", 1.5)
        with pytest.raises(InvalidParameterError):
            fault_plan("jam", -0.1)

    def test_jam_severity_is_p_jam(self):
        plan = fault_plan("jam", 0.3)
        assert plan.jammer.p_jam == 0.3


class TestFamilies:
    def test_reactive_families_are_in_the_catalogue(self):
        assert set(REACTIVE) < set(FAMILIES)
        assert "jam" in FAMILIES and "jam" not in REACTIVE
        assert "struct-delivery" in REACTIVE
