"""Binary exponential backoff (BEB) with a deadline cutoff.

The classic algorithm the paper positions itself against (Section 1,
"Randomized Backoff"; used by Ethernet [72] and IEEE 802.11 [1]).  The
windowed formulation: a job's *k*-th attempt is made in a uniformly random
slot of a backoff window of ``2^k`` slots placed immediately after its
previous attempt; the window doubles after every failure.  A job keeps
trying until it succeeds or its deadline passes — the deadline is a
cutoff, not an input to the strategy, which is precisely the unfairness
the paper targets (no starvation protection, no prioritization).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.feedback import Observation
from repro.channel.messages import DataMessage, Message
from repro.errors import InvalidParameterError
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol, ProtocolContext

__all__ = ["BinaryExponentialBackoff", "beb_factory"]


class BinaryExponentialBackoff(Protocol):
    """Windowed binary exponential backoff.

    Parameters
    ----------
    ctx:
        Protocol context.
    initial_window:
        Size of the first backoff window (``>= 1``); the classic protocol
        uses 1 (transmit immediately) or a small constant.
    max_exponent:
        Cap on the doubling, mirroring e.g. 802.11's CWmax.  ``None``
        doubles forever.

    The next attempt's slot and probability (one over the backoff
    window) are set at activation and at each backoff; ``last_p`` is the
    probability the latest act used.  The next attempt's slot is the
    job's :attr:`~Protocol.wake`: it sleeps until then.
    """

    def __init__(
        self,
        ctx: ProtocolContext,
        initial_window: int = 1,
        max_exponent: Optional[int] = 16,
    ) -> None:
        super().__init__(ctx)
        if initial_window < 1:
            raise InvalidParameterError(
                f"initial_window must be >= 1, got {initial_window}"
            )
        if max_exponent is not None and max_exponent < 0:
            raise InvalidParameterError(
                f"max_exponent must be >= 0, got {max_exponent}"
            )
        self.initial_window = initial_window
        self.max_exponent = max_exponent
        self.attempt = 0  # number of failed attempts so far
        self.wake = 0  # slot of the next attempt
        self._next_p = 1.0 / self.current_backoff_window()
        self.last_p = 0.0

    def current_backoff_window(self) -> int:
        """The backoff window for the upcoming attempt."""
        exp = self.attempt
        if self.max_exponent is not None:
            exp = min(exp, self.max_exponent)
        return self.initial_window << exp

    def on_begin(self, slot: int) -> None:
        w = self.current_backoff_window()
        self.sleep_until(slot + int(self.ctx.rng.integers(w)))

    def on_act(self, slot: int) -> Optional[Message]:
        self.last_p = self._next_p
        if slot == self.wake:
            return DataMessage(self.ctx.job_id)
        return None

    def on_observe(self, slot: int, obs: Observation) -> None:
        if slot == self.wake and not self.succeeded:
            # attempt failed: back off into the next, doubled window
            self.attempt += 1
            w = self.current_backoff_window()
            self.sleep_until(slot + 1 + int(self.ctx.rng.integers(w)))
            self._next_p = 1.0 / w


def beb_factory(initial_window: int = 1, max_exponent: Optional[int] = 16):
    """A :data:`~repro.sim.engine.ProtocolFactory` running BEB."""

    def make(job: Job, rng: np.random.Generator) -> BinaryExponentialBackoff:
        return BinaryExponentialBackoff(
            ProtocolContext.for_job(job, rng), initial_window, max_exponent
        )

    return make
