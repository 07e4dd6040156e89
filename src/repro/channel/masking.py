"""Feedback masking: running protocols on weaker channel models.

The paper's model grants **collision detection**: listeners distinguish
silence from noise (Section 1.1, "the channel provides trinary
feedback"), citing consistency with prior work; a parallel line of work
([16] in the paper) studies contention resolution *without* collision
detection, where a listener only learns "I received a message" or "I
did not".

:class:`FeedbackMaskingProtocol` wraps any protocol and degrades its
observations before delivery, letting the A6 ablation measure exactly
what each feedback bit is worth to each algorithm:

* ``NO_COLLISION_DETECTION`` — noise is reported as silence (the binary
  "message or nothing" channel).  The transmitter's own success bit is
  kept (acknowledgement-style feedback, standard in the no-CD model).
* ``NO_FEEDBACK`` — listeners learn nothing at all (silence always);
  transmitters still learn their own outcome.  The harshest model in
  which backoff is still meaningful.

Masking happens strictly on the observation path: the wrapped protocol's
actions pass through untouched, and the engine's ground truth is
unaffected — only the information available to the algorithm shrinks.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.channel.feedback import Feedback, Observation
from repro.channel.messages import Message
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol

__all__ = ["FeedbackMode", "FeedbackMaskingProtocol", "masked_factory"]


class FeedbackMode(enum.Enum):
    """How much channel feedback the wrapped protocol receives."""

    FULL = "full"  # trinary feedback (the paper's model); no masking
    NO_COLLISION_DETECTION = "no_cd"  # noise reads as silence
    NO_FEEDBACK = "none"  # listeners hear nothing


def mask_observation(obs: Observation, mode: FeedbackMode) -> Observation:
    """Degrade one observation according to the feedback mode.

    The transmitter's own-success bit survives every mode (a sender
    always learns whether its own transmission got through — without at
    least that, no termination is possible).
    """
    if mode is FeedbackMode.FULL:
        return obs
    if mode is FeedbackMode.NO_COLLISION_DETECTION:
        if obs.feedback is Feedback.NOISE:
            return Observation.silence(transmitted=obs.transmitted)
        return obs
    # NO_FEEDBACK: keep only the sender's own outcome
    if obs.own_success:
        return obs
    return Observation.silence(transmitted=obs.transmitted)


class FeedbackMaskingProtocol(Protocol):
    """Wrap a protocol, degrading every observation it receives."""

    def __init__(self, inner: Protocol, mode: FeedbackMode) -> None:
        super().__init__(inner.ctx)
        self.inner = inner
        self.mode = mode

    def on_begin(self, slot: int) -> None:
        self.inner.begin(slot)

    def on_act(self, slot: int) -> Optional[Message]:
        msg = self.inner.act(slot)
        self.last_p = getattr(self.inner, "last_p", 0.0)
        return msg

    def on_observe(self, slot: int, obs: Observation) -> None:
        self.inner.observe(slot, mask_observation(obs, self.mode))
        # mirror the inner protocol's resolution
        if self.inner.succeeded:
            self.succeeded = True
        if self.inner.gave_up:
            self.gave_up = True

    @property
    def transmissions(self) -> int:  # type: ignore[override]
        return self.inner.transmissions

    @transmissions.setter
    def transmissions(self, value: int) -> None:
        # the base class initializes this attribute; writes are ignored
        # because the inner protocol is the single source of truth.
        pass


def masked_factory(inner_factory, mode: FeedbackMode):
    """Wrap a protocol factory so every job sees masked feedback."""

    def make(job: Job, rng: np.random.Generator) -> FeedbackMaskingProtocol:
        return FeedbackMaskingProtocol(inner_factory(job, rng), mode)

    return make
