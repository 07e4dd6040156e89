"""Collision-softening backoff (after arXiv 2408.11275).

The collision-softening line of work observes that classic exponential
backoff over-reacts to collisions: doubling the contention window after
*every* collision overshoots the contention estimate and wastes the tail
of the window.  Softened backoff grows the window by a *sub-doubling*
multiplicative factor on each of its own collided attempts, and shrinks
it again when the channel shows signs of draining (another job's
success) — a multiplicative-increase / multiplicative-decrease scheme
whose window tracks the true contention instead of racing past it.

Adaptation to this engine: the protocol transmits in each slot
independently with probability ``1/W`` (the probabilistic form of a
window, matching :class:`~repro.baselines.sawtooth.SawtoothBackoff`'s
idiom).  On an own collided attempt ``W ← min(W·growth, cap)``; on an
observed success — its own contention evidence *decreasing* — ``W ←
max(W/soften, 1)``.  Like BEB and sawtooth it ignores deadlines: the
deadline only truncates it, which is exactly the comparison the frontier
experiment draws against the deadline-aware protocols.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.feedback import Feedback, Observation
from repro.channel.messages import DataMessage, Message
from repro.errors import InvalidParameterError
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol, ProtocolContext

__all__ = ["CollisionSofteningBackoff", "softened_factory"]

_SUCCESS = Feedback.SUCCESS


class CollisionSofteningBackoff(Protocol):
    """MIMD backoff: sub-doubling growth on collision, decay on drain.

    Parameters
    ----------
    ctx:
        Protocol context.
    growth:
        Multiplicative window growth per own collided attempt; must be
        ``> 1``.  The softening literature uses factors well below the
        classic 2 (default 1.5).
    soften:
        Multiplicative window decrease per observed success; must be
        ``>= 1`` (1 disables the decrease, degenerating to a gentler
        BEB).
    initial_window:
        Starting window ``W`` (``>= 1``).
    max_window:
        Cap on ``W`` so a long jam cannot push the transmission
        probability to zero permanently.

    The probability ``1/W`` is set whenever ``W`` changes; ``last_p`` is
    the one the latest act used.
    """

    def __init__(
        self,
        ctx: ProtocolContext,
        growth: float = 1.5,
        soften: float = 1.25,
        initial_window: float = 1.0,
        max_window: float = float(1 << 16),
    ) -> None:
        super().__init__(ctx)
        if growth <= 1.0:
            raise InvalidParameterError(f"growth must be > 1, got {growth}")
        if soften < 1.0:
            raise InvalidParameterError(f"soften must be >= 1, got {soften}")
        if initial_window < 1.0:
            raise InvalidParameterError(
                f"initial_window must be >= 1, got {initial_window}"
            )
        if max_window < initial_window:
            raise InvalidParameterError(
                f"max_window {max_window} below initial_window {initial_window}"
            )
        self.growth = growth
        self.soften = soften
        self.max_window = max_window
        self.window_size = initial_window  # the current W
        self._transmitted = False  # did we transmit in the pending slot?
        self._next_p = 1.0 / initial_window
        self.last_p = 0.0

    def on_act(self, slot: int) -> Optional[Message]:
        p = self.last_p = self._next_p
        if self.ctx.random() < p:
            self._transmitted = True
            return DataMessage(self.ctx.job_id)
        self._transmitted = False
        return None

    def on_observe(self, slot: int, obs: Observation) -> None:
        if self._transmitted and not self.succeeded:
            # own attempt collided (or was jammed): soft growth
            self.window_size = min(
                self.window_size * self.growth, self.max_window
            )
        elif obs.feedback is _SUCCESS:
            # a contender drained: decrease toward the new contention
            self.window_size = max(self.window_size / self.soften, 1.0)
        else:
            return
        self._next_p = 1.0 / self.window_size


def softened_factory(
    growth: float = 1.5,
    soften: float = 1.25,
    initial_window: float = 1.0,
    max_window: float = float(1 << 16),
):
    """A :data:`~repro.sim.engine.ProtocolFactory` running softened backoff."""

    def make(job: Job, rng: np.random.Generator) -> CollisionSofteningBackoff:
        return CollisionSofteningBackoff(
            ProtocolContext.for_job(job, rng),
            growth,
            soften,
            initial_window,
            max_window,
        )

    return make
