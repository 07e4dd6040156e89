"""Reactive, feedback-aware jamming adversaries.

The paper's Theorem 14 is proved against an *oblivious* stochastic
adversary: each would-be success is corrupted independently with a
constant ``p_jam <= 1/2``.  The adversaries here are the natural stress
beyond that model — attackers in the spirit of the adaptive-jamming MAC
line (Richa et al.) and the resource-bounded jammers of robust-backoff
work (Bender et al.) that *listen* to the channel and aim their budget:

* :class:`FeedbackReactiveJammer` — jams only after hearing activity,
  so it spends nothing while the protocols are quiet and everything
  once they wake up;
* :class:`StructureTargetedJammer` — learns PUNCTUAL's round phase from
  the busy/busy/silent round-start signature and concentrates an
  energy-equivalent budget on the timekeeper and leader-election slots;
* :class:`LeaderAssassinJammer` — waits for a leader to be decoded on
  the wire (a successful leader claim or timekeeper beacon) and then
  silences exactly that job, plus any would-be successor's claim;
* :class:`AdaptiveBudgetJammer` — a rate-limited jammer that banks the
  budget of quiet windows and unloads the arrears when traffic appears.

All of them observe the channel exclusively through the sanctioned
:class:`~repro.adversary.view.ChannelView` — trinary feedback, decoded
successes, and their own jam history; never protocol internals.  They
are ordinary :class:`~repro.channel.jamming.Jammer` subclasses, so they
compose with :class:`~repro.faults.FaultPlan` (``FaultPlan(jammer=...)``),
fold into result-cache keys like any jammer, and cost nothing when
absent — the engine's clean path does not change.

Severity convention
-------------------
Every constructor takes a single ``severity`` in ``[0, 1]``: the
adversary's *sustained channel budget*, i.e. the expected fraction of
slots it may corrupt, matching the oblivious families (``jam``,
``rate``, ``burst``) of the catalogue :data:`repro.adversary.FAMILIES`,
where these attackers are the reactive families ``reactive``,
``struct-control``, ``struct-delivery``, ``assassin`` and ``banked``
(:data:`repro.adversary.REACTIVE`).  A reactive
attacker is "smarter, not stronger": at equal severity it never spends
more energy than the oblivious stochastic jammer, only places it
better.  Severity above 1/2 triggers the same
:class:`~repro.errors.PaperGuaranteeWarning` as every other adversary.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.adversary.view import ChannelView
from repro.channel.feedback import Feedback
from repro.channel.messages import Message
from repro.channel.jamming import Jammer, warn_beyond_guarantee
from repro.errors import InvalidParameterError

__all__ = [
    "AdaptiveBudgetJammer",
    "FeedbackReactiveJammer",
    "LeaderAssassinJammer",
    "ReactiveAdversary",
    "StructureTargetedJammer",
]

#: PUNCTUAL's published frame layout, as an attacker would assume it:
#: ten-slot rounds with the timekeeper in slot 3 and leader election in
#: slot 7 (see repro.core.rounds).  The attacker *guesses* this grid and
#: verifies the phase from channel activity; it never reads the
#: protocol's state.
PUNCTUAL_ROUND_PERIOD = 10
PUNCTUAL_STRUCTURAL_SLOTS: Tuple[int, ...] = (3, 7)


def _check_severity(name: str, severity: float) -> float:
    if not 0.0 <= severity <= 1.0:
        raise InvalidParameterError(
            f"{name} severity must be in [0, 1], got {severity}"
        )
    return float(severity)


class ReactiveAdversary(Jammer):
    """Base class: a jammer that listens before it decides.

    Maintains a :class:`~repro.adversary.view.ChannelView` from the
    per-slot information the channel already hands every jammer, and
    funnels the decision through :meth:`decide`.  Subclasses see only
    the view, the current slot's pre-jam content, and the channel RNG.

    The engine calls :meth:`attempt` exactly once per simulated slot
    (reactive adversaries rely on this to keep their view gap-free;
    the engine's idle-gap jump only skips slots with no live jobs, which
    carry no information anyway).
    """

    __slots__ = ("view",)

    def __init__(self) -> None:
        self.view = ChannelView()

    def reset(self) -> None:
        """Forget the previous run entirely (engine calls this per run)."""
        self.view.reset()

    @abc.abstractmethod
    def decide(
        self,
        slot: int,
        feedback: Feedback,
        message: Optional[Message],
        rng: np.random.Generator,
    ) -> bool:
        """Return True to corrupt the slot.

        ``feedback``/``message`` describe the slot *absent* jamming:
        SILENCE (nobody transmitted), SUCCESS with the decodable
        ``message``, or NOISE (collision, ``message is None``).
        """

    def attempt(
        self,
        slot: int,
        n_transmitters: int,
        message: Optional[Message],
        rng: np.random.Generator,
    ) -> bool:
        if n_transmitters == 0:
            feedback = Feedback.SILENCE
        elif n_transmitters == 1:
            feedback = Feedback.SUCCESS
        else:
            feedback = Feedback.NOISE
        jam = self.decide(slot, feedback, message, rng)
        self.view.record(slot, feedback, message, jam)
        return jam


class FeedbackReactiveJammer(ReactiveAdversary):
    """Jams would-be successes, but only after hearing recent activity.

    A sleeper: while the channel has been silent for more than
    ``memory`` slots it does nothing (and spends nothing), so protocols
    whose traffic is bursty wake it exactly when they need the channel
    most.  Once awake it behaves like the paper's stochastic adversary
    at probability ``severity``.

    Against steady traffic this is indistinguishable from
    :class:`~repro.channel.jamming.StochasticJammer`; the difference —
    and the reason it stresses deadline protocols harder per unit of
    *spent* energy — is that none of its budget leaks into the idle
    stretches an oblivious jammer wastes attempts on.
    """

    __slots__ = ("severity", "memory")

    def __init__(self, severity: float, *, memory: int = 8) -> None:
        super().__init__()
        self.severity = _check_severity("FeedbackReactiveJammer", severity)
        if memory < 1:
            raise InvalidParameterError(
                f"memory must be >= 1, got {memory}"
            )
        self.memory = int(memory)
        warn_beyond_guarantee(
            f"FeedbackReactiveJammer(severity={severity})", self.severity
        )

    def decide(
        self,
        slot: int,
        feedback: Feedback,
        message: Optional[Message],
        rng: np.random.Generator,
    ) -> bool:
        if feedback is not Feedback.SUCCESS:
            return False
        if not self.view.heard_activity_within(slot, self.memory):
            return False
        return bool(rng.random() < self.severity)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"FeedbackReactiveJammer(severity={self.severity}, "
            f"memory={self.memory})"
        )


class StructureTargetedJammer(ReactiveAdversary):
    """Learns the round grid and burns its budget on structural slots.

    Dormant until the :class:`~repro.adversary.view.ChannelView` infers
    a round origin from the busy/busy/silent start signature; from then
    on it jams only slots whose phase is in ``targets`` (by default
    PUNCTUAL's timekeeper and leader-election slots).

    The per-target-slot jam probability is
    ``min(1, severity * period / len(targets))`` — the *same* expected
    channel budget as an oblivious jammer of probability ``severity``,
    compressed onto the ``len(targets)/period`` of slots that carry
    leader election and timekeeping.  At severity 0.2 against PUNCTUAL
    that is a guaranteed kill of every timekeeper and election slot:
    exactly the concentration attack Theorem 14's oblivious model
    cannot express.
    """

    __slots__ = ("severity", "period", "targets", "p_slot")

    def __init__(
        self,
        severity: float,
        *,
        period: int = PUNCTUAL_ROUND_PERIOD,
        targets: Sequence[int] = PUNCTUAL_STRUCTURAL_SLOTS,
    ) -> None:
        super().__init__()
        self.severity = _check_severity("StructureTargetedJammer", severity)
        if period <= 0:
            raise InvalidParameterError(f"period must be positive, got {period}")
        targs = sorted(set(int(x) % period for x in targets))
        if not targs:
            raise InvalidParameterError("targets must be non-empty")
        self.period = int(period)
        self.targets = tuple(targs)
        self.p_slot = min(
            1.0, self.severity * self.period / len(self.targets)
        )
        warn_beyond_guarantee(
            f"StructureTargetedJammer(severity={severity})", self.severity
        )

    def decide(
        self,
        slot: int,
        feedback: Feedback,
        message: Optional[Message],
        rng: np.random.Generator,
    ) -> bool:
        phase = self.view.phase_of(slot, self.period)
        if phase is None or phase not in self.targets:
            return False
        # Structural slots are jammed regardless of content: an empty
        # timekeeper slot reads as "no leader" to followers, which is
        # precisely the confusion this attacker wants to sow.
        if self.p_slot >= 1.0:
            return True
        return bool(rng.random() < self.p_slot)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"StructureTargetedJammer(severity={self.severity}, "
            f"period={self.period}, targets={self.targets})"
        )


class LeaderAssassinJammer(ReactiveAdversary):
    """Decodes the current leader off the wire and silences exactly it.

    Waits (spending nothing) until the view decodes a leader — a
    successful leader claim or timekeeper beacon names its sender.  From
    then on it jams, with probability ``severity`` each:

    * every would-be success transmitted by the known leader (beacons,
      handover payloads, its data), and
    * every would-be success that *names a new leader* (a claim or a
      beacon from a different sender), so successors die in the cradle.

    All other traffic passes untouched — the assassin's budget goes
    entirely into decapitating PUNCTUAL's timekeeping.
    """

    __slots__ = ("severity",)

    def __init__(self, severity: float) -> None:
        super().__init__()
        self.severity = _check_severity("LeaderAssassinJammer", severity)
        warn_beyond_guarantee(
            f"LeaderAssassinJammer(severity={severity})", self.severity
        )

    def decide(
        self,
        slot: int,
        feedback: Feedback,
        message: Optional[Message],
        rng: np.random.Generator,
    ) -> bool:
        if feedback is not Feedback.SUCCESS or message is None:
            return False
        leader = self.view.leader_id
        if leader is None:
            # Nobody has led yet; let the first claim through so there
            # is a throat to cut (jamming it would merely be stochastic).
            return False
        is_leaderly = type(message).__name__ in (
            "LeaderClaim",
            "TimekeeperBeacon",
        )
        if message.sender != leader and not is_leaderly:
            return False
        return bool(rng.random() < self.severity)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"LeaderAssassinJammer(severity={self.severity})"


class AdaptiveBudgetJammer(ReactiveAdversary):
    """A rate-limited jammer that reallocates unspent budget.

    Earns ``severity * window`` jam credits per aligned window of
    ``window`` slots — the same sustained rate as
    :class:`~repro.channel.jamming.WindowedRateJammer` at equal
    severity — but credits *carry over*: windows where the protocols
    were quiet (nothing worth jamming) bank their budget, up to
    ``max_bank`` windows of saved credit.  Each would-be success is
    then jammed with probability ``credits / window`` (capped at 1), so
    a fully banked attacker behaves like a stochastic jammer at
    ``max_bank * severity`` while its *sustained* spend can never
    exceed ``severity`` — each landed jam burns a credit and the bank
    self-regulates back toward the earn rate under dense traffic.

    This models the energy-constrained attacker of the related work at
    its most patient: total energy is identical to the oblivious
    rate-limited jammer, placement is concentrated on the stretches
    where the protocols actually deliver.
    """

    __slots__ = ("severity", "window", "max_bank", "_credits", "_window_index")

    def __init__(
        self, severity: float, *, window: int = 64, max_bank: int = 4
    ) -> None:
        super().__init__()
        self.severity = _check_severity("AdaptiveBudgetJammer", severity)
        if window <= 0:
            raise InvalidParameterError(f"window must be positive, got {window}")
        if max_bank < 1:
            raise InvalidParameterError(f"max_bank must be >= 1, got {max_bank}")
        self.window = int(window)
        self.max_bank = int(max_bank)
        self._credits = 0.0
        self._window_index = -1
        warn_beyond_guarantee(
            f"AdaptiveBudgetJammer(severity={severity})", self.severity
        )

    def reset(self) -> None:
        super().reset()
        self._credits = 0.0
        self._window_index = -1

    def decide(
        self,
        slot: int,
        feedback: Feedback,
        message: Optional[Message],
        rng: np.random.Generator,
    ) -> bool:
        k = slot // self.window
        if k != self._window_index:
            # Earn this window's credit; missed windows (idle-gap jumps)
            # earn too, capped at the bank limit.
            behind = 1 if self._window_index < 0 else k - self._window_index
            self._window_index = k
            cap = self.max_bank * self.severity * self.window
            self._credits = min(
                cap, self._credits + behind * self.severity * self.window
            )
        if feedback is not Feedback.SUCCESS or self._credits < 1.0:
            return False
        p = min(1.0, self._credits / self.window)
        if p < 1.0 and not rng.random() < p:
            return False
        self._credits -= 1.0
        return True

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"AdaptiveBudgetJammer(severity={self.severity}, "
            f"window={self.window}, max_bank={self.max_bank})"
        )
