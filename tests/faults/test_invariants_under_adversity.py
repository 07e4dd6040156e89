"""Runtime invariants hold under every fault family and reactive adversary.

The invariant checker guards engine-level soundness (one success per
slot, no post-deadline delivery, feasible bookkeeping).  High-severity
adversity is exactly where such guarantees are easiest to break, so
every fault family of :data:`repro.experiments.robustness.FAULT_FAMILIES`
and every reactive adversary of :mod:`repro.adversary` runs here with
``invariants=True`` — a violation raises, so passing means the engine
stayed sound while the protocols were being torn apart.
"""

from __future__ import annotations

import warnings

import pytest

from repro.adversary import (
    AdaptiveBudgetJammer,
    FeedbackReactiveJammer,
    LeaderAssassinJammer,
    StructureTargetedJammer,
    fault_plan,
)
from repro.core.punctual import punctual_factory
from repro.core.uniform import uniform_factory
from repro.experiments.robustness import FAULT_FAMILIES
from repro.params import AlignedParams, PunctualParams
from repro.sim.engine import simulate
from repro.sim.watchdog import Watchdog
from repro.workloads import batch_instance

HIGH_SEVERITY = 0.85

PUNCTUAL = punctual_factory(
    PunctualParams(
        aligned=AlignedParams(lam=1, tau=2, min_level=8),
        lam=2,
        pullback_exp=1,
        slingshot_exp=2,
    )
)

REACTIVE_ADVERSARIES = [
    lambda: FeedbackReactiveJammer(HIGH_SEVERITY, memory=64),
    lambda: StructureTargetedJammer(HIGH_SEVERITY),
    lambda: StructureTargetedJammer(HIGH_SEVERITY, targets=(5, 9)),
    lambda: LeaderAssassinJammer(HIGH_SEVERITY),
    lambda: AdaptiveBudgetJammer(HIGH_SEVERITY),
]


def make_quietly(build):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build()


@pytest.mark.parametrize("family", sorted(FAULT_FAMILIES))
def test_fault_families_at_high_severity(family):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # beyond-guarantee severities
        plan = fault_plan(family, HIGH_SEVERITY)
    res = simulate(
        batch_instance(10, window=1024), uniform_factory(),
        seed=13, faults=plan, invariants=True,
        watchdog=Watchdog(max_slots=200_000, stall_factor=8.0),
    )
    assert len(res) == 10  # checker raised nothing; every job resolved


@pytest.mark.parametrize(
    "build", REACTIVE_ADVERSARIES,
    ids=["reactive", "struct-control", "struct-delivery", "assassin", "banked"],
)
@pytest.mark.parametrize("proto_name", ["uniform", "punctual"])
def test_reactive_adversaries_at_high_severity(build, proto_name):
    factory = uniform_factory() if proto_name == "uniform" else PUNCTUAL
    res = simulate(
        batch_instance(10, window=1024), factory,
        seed=13, jammer=make_quietly(build), invariants=True,
        watchdog=Watchdog(max_slots=200_000, stall_factor=8.0),
    )
    assert len(res) == 10


def test_adversity_plus_feedback_fault_compose():
    """A reactive jammer and feedback corruption in one run stay sound."""
    from repro.faults import FaultPlan, FeedbackFault

    plan = FaultPlan(
        jammer=make_quietly(lambda: AdaptiveBudgetJammer(HIGH_SEVERITY)),
        feedback=FeedbackFault(
            p_silence_to_noise=0.2, p_noise_to_silence=0.2,
            p_success_erasure=0.1,
        ),
    )
    res = simulate(
        batch_instance(8, window=1024), uniform_factory(),
        seed=17, faults=plan, invariants=True,
        watchdog=Watchdog(max_slots=200_000, stall_factor=8.0),
    )
    assert len(res) == 8
