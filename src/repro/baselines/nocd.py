"""Contention resolution without collision detection (after arXiv
2111.06650 / 2004.08039).

The robust no-CD line drops the trinary feedback the rest of this repo
assumes: a device cannot tell an empty slot from a collision (both are
"no success"), so the only channel information is *success / no
success*.  The standard scheme maintains a contention estimate ``m`` and
transmits with probability ``1/m``: each observed success means one
contender drained (``m`` decrements), while a long stretch with no
success at all means the estimate is too low and the true contention is
choking the channel (``m`` doubles).  With the right patience factor the
estimate converges to within a constant of the true contention and
throughput is constant.

Feedback discipline: :meth:`on_observe` reads *only* whether the slot
carried a success (``obs.feedback is SUCCESS``) and the base class's
own-success latch — never the silence/noise distinction, which a no-CD
device cannot perceive.  A jammer that turns successes into noise is
therefore indistinguishable from contention and inflates ``m`` — the
documented robustness trade of this model: energy stays bounded while
throughput degrades.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.feedback import Feedback, Observation
from repro.channel.messages import DataMessage, Message
from repro.errors import InvalidParameterError
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol, ProtocolContext

__all__ = ["NoCollisionDetectionBackoff", "nocd_factory"]

_SUCCESS = Feedback.SUCCESS


class NoCollisionDetectionBackoff(Protocol):
    """Success-only contention estimation: transmit w.p. ``1/m``.

    Parameters
    ----------
    ctx:
        Protocol context.
    initial_estimate:
        Starting contention estimate ``m`` (``>= 1``).
    patience:
        How many successless slots (as a multiple of ``m``) before the
        estimate doubles; must be ``> 0``.  Larger values are more
        conservative: fewer spurious doublings, slower reaction to a
        burst of arrivals.
    max_estimate:
        Cap on ``m`` so adversarial jamming cannot push the send
        probability to zero permanently.

    The probability ``1/m`` (at most 1) and the successless stretch
    that doubles ``m`` are set whenever ``m`` changes; ``last_p`` is the
    probability the latest act used.
    """

    def __init__(
        self,
        ctx: ProtocolContext,
        initial_estimate: float = 2.0,
        patience: float = 2.0,
        max_estimate: float = float(1 << 20),
    ) -> None:
        super().__init__(ctx)
        if initial_estimate < 1.0:
            raise InvalidParameterError(
                f"initial_estimate must be >= 1, got {initial_estimate}"
            )
        if patience <= 0.0:
            raise InvalidParameterError(
                f"patience must be > 0, got {patience}"
            )
        if max_estimate < initial_estimate:
            raise InvalidParameterError(
                f"max_estimate {max_estimate} below initial_estimate "
                f"{initial_estimate}"
            )
        self.estimate = initial_estimate  # the current m
        self.patience = patience
        self.max_estimate = max_estimate
        self._successless = 0  # slots since the last observed success
        self._fix_estimate()
        self.last_p = 0.0

    def __setstate__(self, state: tuple) -> None:
        super().__setstate__(state)
        # Pickled (in a stream checkpoint) when both were derived from
        # ``m`` every slot.
        self._fix_estimate()

    def _fix_estimate(self) -> None:
        """Derive the per-slot values of the current estimate ``m``."""
        self._next_p = min(1.0, 1.0 / self.estimate)
        self._patience_slots = self.patience * self.estimate

    def on_act(self, slot: int) -> Optional[Message]:
        p = self.last_p = self._next_p
        if self.ctx.random() < p:
            return DataMessage(self.ctx.job_id)
        return None

    def on_observe(self, slot: int, obs: Observation) -> None:
        if obs.feedback is _SUCCESS:
            # one contender drained; the estimate follows it down
            self.estimate = max(self.estimate - 1.0, 1.0)
            self._successless = 0
            self._fix_estimate()
            return
        # no success this slot — silence and collision look identical
        self._successless += 1
        if self._successless >= self._patience_slots:
            self.estimate = min(self.estimate * 2.0, self.max_estimate)
            self._successless = 0
            self._fix_estimate()


def nocd_factory(
    initial_estimate: float = 2.0,
    patience: float = 2.0,
    max_estimate: float = float(1 << 20),
):
    """A :data:`~repro.sim.engine.ProtocolFactory` for the no-CD protocol."""

    def make(job: Job, rng: np.random.Generator) -> NoCollisionDetectionBackoff:
        return NoCollisionDetectionBackoff(
            ProtocolContext.for_job(job, rng),
            initial_estimate,
            patience,
            max_estimate,
        )

    return make
