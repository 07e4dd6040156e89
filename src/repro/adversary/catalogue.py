"""The adversary catalogue: every ``family@severity`` the repo runs.

:data:`FAMILIES` maps each family name to a ``severity -> FaultPlan``
builder.  Severity is one float in ``[0, 1]`` for every family, and 0 is
always the empty plan, so degradation profiles, breaking-point
bisections and campaign cells all start from the same clean channel:

* ``jam``: the paper's oblivious stochastic jammer, ``p_jam = severity``
  (Theorem 14's regime);
* ``rate``: a rate-limited adaptive jammer corrupting at most
  ``severity`` of every 64-slot window (the budgeted analogue of
  ``p_jam = severity``);
* ``burst``: duty-cycled deterministic interference jamming a
  ``severity`` fraction of each 64-slot period in one burst;
* ``feedback``: per-listener feedback corruption (SILENCE<->NOISE flips
  at ``severity/2``, success erasure at ``severity/4``);
* ``clock``: per-job skew up to ``64 * severity`` slots and drift up to
  ``0.2 * severity``;
* ``jobs``: late releases (probability ``severity``, delay up to 256
  slots) and crash-before-deadline (probability ``severity/2``);
* the :data:`REACTIVE` families, the feedback-aware jammers of
  :mod:`repro.adversary.reactive`, beyond the paper's model:
  ``reactive``, ``struct-control`` (timekeeper and election slots),
  ``struct-delivery`` (PUNCTUAL's delivery slots 5 and 9),
  ``assassin`` and ``banked``.

``jam``, ``rate``, ``burst`` and the reactive families build plans that
carry only a jammer.  Such a plan runs, routes and caches exactly like
``jammer=`` with its jammer (see
:func:`repro.fastpath.batched.seed_route`).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.adversary.reactive import (
    AdaptiveBudgetJammer,
    FeedbackReactiveJammer,
    LeaderAssassinJammer,
    StructureTargetedJammer,
)
from repro.channel.jamming import (
    BurstJammer,
    StochasticJammer,
    WindowedRateJammer,
)
from repro.errors import InvalidParameterError
from repro.faults import ClockFault, FaultPlan, FeedbackFault, JobFault

__all__ = ["FAMILIES", "REACTIVE", "check_family", "fault_plan"]

#: Reference window of the rate/burst duty cycles.
_WINDOW = 64


def _burst(severity: float) -> FaultPlan:
    burst = max(1, round(severity * _WINDOW))
    return FaultPlan(jammer=BurstJammer(burst, max(_WINDOW - burst, 0)))


#: name -> ``severity -> FaultPlan``, for severity in ``(0, 1]``.
FAMILIES: Dict[str, Callable[[float], FaultPlan]] = {
    "jam": lambda s: FaultPlan(jammer=StochasticJammer(s)),
    "rate": lambda s: FaultPlan(
        jammer=WindowedRateJammer(_WINDOW, round(s * _WINDOW))
    ),
    "burst": _burst,
    "feedback": lambda s: FaultPlan(
        feedback=FeedbackFault(
            p_silence_to_noise=s / 2,
            p_noise_to_silence=s / 2,
            p_success_erasure=s / 4,
        )
    ),
    "clock": lambda s: FaultPlan(
        clock=ClockFault(max_skew=round(64 * s), drift=0.2 * s)
    ),
    "jobs": lambda s: FaultPlan(
        jobs=JobFault(p_late=s, max_delay=256, p_crash=s / 2)
    ),
    "reactive": lambda s: FaultPlan(jammer=FeedbackReactiveJammer(s)),
    "struct-control": lambda s: FaultPlan(jammer=StructureTargetedJammer(s)),
    "struct-delivery": lambda s: FaultPlan(
        jammer=StructureTargetedJammer(s, targets=(5, 9))
    ),
    "assassin": lambda s: FaultPlan(jammer=LeaderAssassinJammer(s)),
    "banked": lambda s: FaultPlan(jammer=AdaptiveBudgetJammer(s)),
}

#: The reactive attackers of :mod:`repro.adversary.reactive`.
REACTIVE: Tuple[str, ...] = (
    "reactive",
    "struct-control",
    "struct-delivery",
    "assassin",
    "banked",
)


def check_family(family: str, severity: float = 0.0) -> None:
    """Raise :class:`InvalidParameterError` unless ``family`` is in
    :data:`FAMILIES` and ``severity`` is in ``[0, 1]``."""
    if family not in FAMILIES:
        raise InvalidParameterError(
            f"unknown adversary family {family!r} "
            f"(choices: {sorted(FAMILIES)})"
        )
    if not 0.0 <= severity <= 1.0:
        raise InvalidParameterError(
            f"severity must be in [0, 1], got {severity}"
        )


def fault_plan(family: str, severity: float) -> FaultPlan:
    """The :class:`FaultPlan` of one family at one severity (empty at 0)."""
    check_family(family, severity)
    return FAMILIES[family](severity) if severity > 0.0 else FaultPlan()
