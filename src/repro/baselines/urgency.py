"""Urgency-ramped ALOHA: probability rises as the deadline approaches.

The natural deadline-aware heuristic missing from the paper's menu: a
memoryless transmitter whose per-slot probability is ``c / remaining``
where *remaining* is the number of slots left in its window.  Early in a
large window the job is nearly silent (like SLINGSHOT's pullback); as
the deadline closes in, the probability ramps toward the 1/2 cap (like
the anarchist's release, but continuous).

Worth having as a baseline because it captures the *intuition* behind
PUNCTUAL (be meek early, aggressive late) with none of its machinery —
no rounds, no estimation, no leader.  The comparison benches show where
intuition alone falls short: with many same-deadline jobs everyone ramps
together and the endgame collapses into collisions, whereas PUNCTUAL's
estimation spreads the load.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.feedback import Observation
from repro.channel.messages import DataMessage, Message
from repro.errors import InvalidParameterError
from repro.params import cap_probability
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol, ProtocolContext

__all__ = ["UrgencyAloha", "urgency_aloha_factory"]


class UrgencyAloha(Protocol):
    """Transmit w.p. ``min(c / remaining, 1/2)``, remaining-slot counted.

    Parameters
    ----------
    c:
        The urgency budget: the expected number of attempts a lone job
        makes over any suffix of its window is ≈ ``c·ln(remaining)``,
        concentrated near the deadline.
    """

    def __init__(self, ctx: ProtocolContext, c: float = 2.0) -> None:
        super().__init__(ctx)
        if c <= 0:
            raise InvalidParameterError(f"c must be positive, got {c}")
        self.c = float(c)
        self.last_p = 0.0

    def probability_at(self, slot: int) -> float:
        remaining = self.ctx.window - self.local_age(slot)
        if remaining <= 0:
            return 0.0
        return cap_probability(self.c / remaining)

    def on_act(self, slot: int) -> Optional[Message]:
        p = self.probability_at(slot)
        self.last_p = p
        if p > 0 and self.ctx.random() < p:
            return DataMessage(self.ctx.job_id)
        return None

    def on_observe(self, slot: int, obs: Observation) -> None:
        pass


def urgency_aloha_factory(c: float = 2.0):
    """A :data:`~repro.sim.engine.ProtocolFactory` for urgency-ramped ALOHA."""
    if c <= 0:
        raise InvalidParameterError(f"c must be positive, got {c}")

    def make(job: Job, rng: np.random.Generator) -> UrgencyAloha:
        return UrgencyAloha(ProtocolContext.for_job(job, rng), c)

    return make
