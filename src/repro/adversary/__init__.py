"""Adversaries: the one ``family@severity`` catalogue and the reactive jammers.

:mod:`repro.adversary.catalogue` names every adversary the experiments
run (:data:`FAMILIES`, each a ``severity -> FaultPlan`` builder, and
:func:`fault_plan`), from the paper's oblivious stochastic jammer to
clock and job faults.  The reactive attackers here listen to the
channel through the sanctioned
:class:`~repro.adversary.view.ChannelView` (trinary feedback, decoded
successes, own jam history — nothing else) and aim their budget where it
hurts: at recent activity, at PUNCTUAL's structural slots, at the
decoded leader, or in banked bursts.  They are ordinary
:class:`~repro.channel.jamming.Jammer` subclasses, composable with
:class:`~repro.faults.FaultPlan` and the result cache, and exercised by
:mod:`repro.experiments.certify` to chart each protocol's degradation
frontier against smarter-than-analysed interference.
"""

from repro.adversary.catalogue import (
    FAMILIES,
    REACTIVE,
    check_family,
    fault_plan,
)
from repro.adversary.reactive import (
    AdaptiveBudgetJammer,
    FeedbackReactiveJammer,
    LeaderAssassinJammer,
    ReactiveAdversary,
    StructureTargetedJammer,
)
from repro.adversary.view import ChannelView

__all__ = [
    "AdaptiveBudgetJammer",
    "ChannelView",
    "FAMILIES",
    "FeedbackReactiveJammer",
    "LeaderAssassinJammer",
    "REACTIVE",
    "ReactiveAdversary",
    "StructureTargetedJammer",
    "check_family",
    "fault_plan",
]
