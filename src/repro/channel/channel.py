"""The multiple-access channel with collision detection.

Implements the model of Section 1.1: time is a sequence of synchronized
slots; in each slot any subset of players may transmit; a transmission
succeeds iff it is the *only* one in its slot (and the jammer does not
corrupt it).  Listeners perceive trinary feedback (silence / success /
noise) and receive the message content on success.

The channel is a pure resolution function plus a slot counter and success
log; it holds no job state, so it can be shared by the slot engine, the
fast paths, and unit tests alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.feedback import Feedback, Observation
from repro.channel.jamming import Jammer, NoJammer
from repro.channel.messages import Message

__all__ = ["SlotOutcome", "MultipleAccessChannel", "resolve_slot"]


@dataclass(frozen=True, slots=True)
class SlotOutcome:
    """What happened on the channel in one slot.

    Attributes
    ----------
    slot:
        Index of the slot (simulator timeline).
    feedback:
        Trinary channel state perceived by every listener.
    message:
        Delivered message on SUCCESS, else ``None``.
    n_transmitters:
        How many players transmitted (known to the simulator, not to jobs).
    jammed:
        Whether the jammer corrupted the slot.
    """

    slot: int
    feedback: Feedback
    message: Optional[Message]
    n_transmitters: int
    jammed: bool

    @property
    def successful(self) -> bool:
        return self.feedback is Feedback.SUCCESS


def resolve_slot(
    slot: int,
    transmissions: Sequence[Tuple[int, Message]],
    jammer: Jammer,
    rng: np.random.Generator,
) -> SlotOutcome:
    """Resolve one slot of the multiple-access channel.

    Parameters
    ----------
    slot:
        Slot index, passed through to the outcome and the jammer.
    transmissions:
        ``(player_id, message)`` pairs for every player transmitting in
        this slot.  Order is irrelevant.
    jammer:
        Adversary consulted once, after the would-be outcome is known.
    rng:
        Randomness source for the jammer.

    Returns
    -------
    SlotOutcome
        Silence when nobody transmits, success when exactly one player
        transmits un-jammed, noise otherwise.
    """
    n = len(transmissions)
    message: Optional[Message] = transmissions[0][1] if n == 1 else None
    jammed = jammer.attempt(slot, n, message, rng)
    if jammed:
        return SlotOutcome(slot, Feedback.NOISE, None, n, True)
    if n == 0:
        return SlotOutcome(slot, Feedback.SILENCE, None, 0, False)
    if n == 1:
        return SlotOutcome(slot, Feedback.SUCCESS, message, 1, False)
    return SlotOutcome(slot, Feedback.NOISE, None, n, False)


class MultipleAccessChannel:
    """Stateful wrapper around :func:`resolve_slot`.

    Tracks the slot counter, accumulates a success log, and converts a
    :class:`SlotOutcome` into per-player :class:`Observation` objects.

    Parameters
    ----------
    jammer:
        Adversary; defaults to the benign :class:`NoJammer`.
    rng:
        Randomness source used only for jamming decisions.  Protocol
        randomness lives with the protocols so that jamming does not
        perturb their random streams.
    """

    def __init__(
        self,
        jammer: Optional[Jammer] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.jammer: Jammer = jammer if jammer is not None else NoJammer()
        self.rng: np.random.Generator = (
            rng if rng is not None else np.random.default_rng()
        )
        self.now: int = 0
        self.successes: List[SlotOutcome] = []
        self._history: List[SlotOutcome] = []

    @property
    def history(self) -> List[SlotOutcome]:
        """All resolved slots, in order (one entry per slot)."""
        return self._history

    def step(self, transmissions: Sequence[Tuple[int, Message]]) -> SlotOutcome:
        """Resolve the current slot and advance the clock.

        Raises
        ------
        ValueError
            If the same player id appears twice in ``transmissions``.
        """
        seen: Dict[int, bool] = {}
        for pid, _ in transmissions:
            if pid in seen:
                raise ValueError(f"player {pid} transmitted twice in slot {self.now}")
            seen[pid] = True
        outcome = resolve_slot(self.now, transmissions, self.jammer, self.rng)
        self._history.append(outcome)
        if outcome.successful:
            self.successes.append(outcome)
        self.now += 1
        return outcome

    @staticmethod
    def observation_for(
        outcome: SlotOutcome, player: int, transmitted: bool
    ) -> Observation:
        """Build the :class:`Observation` player ``player`` perceives.

        All players (transmitters included) perceive the trinary feedback;
        a transmitter additionally learns whether its own transmission was
        the successful one.
        """
        own = (
            transmitted
            and outcome.successful
            and outcome.message is not None
            and outcome.message.sender == player
        )
        if outcome.feedback is Feedback.SUCCESS:
            assert outcome.message is not None
            return Observation.success(outcome.message, transmitted, own)
        if outcome.feedback is Feedback.SILENCE:
            return Observation.silence(transmitted)
        return Observation.noise(transmitted)

    def reset(self) -> None:
        """Clear the clock and logs (the jammer and rng are kept)."""
        self.now = 0
        self.successes.clear()
        self._history.clear()
