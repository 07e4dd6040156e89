"""Sawtooth backoff — the asymptotically optimal non-monotone strategy.

The paper's related-work section (citing [8, 45, 52]) notes that
monotone backoff is suboptimal for makespan while the non-monotone
*sawtooth* strategy is optimal.  One sawtooth "run" over a window of size
``W`` executes rounds of sizes ``W, W/2, W/4, ..., 1``: in the round of
size ``s`` the job transmits in each slot independently with probability
``1/s``.  If the whole run fails, the next run doubles ``W`` and repeats.
Sweeping the probability *upward* within a run guarantees that whatever
the (unknown) number of contenders ``n``, some round has ``Θ(1/n)``-ish
probability while ``Θ(n)`` slots remain — hence constant throughput.

Like BEB, sawtooth ignores deadlines: the deadline only truncates it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.feedback import Observation
from repro.channel.messages import DataMessage, Message
from repro.errors import InvalidParameterError
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol, ProtocolContext

__all__ = ["SawtoothBackoff", "sawtooth_factory"]


class SawtoothBackoff(Protocol):
    """Doubling runs of halving rounds, transmitting w.p. ``1/s`` in size-s rounds.

    The current round's probability is set at each round change;
    ``last_p`` is the one the latest act used.
    """

    def __init__(self, ctx: ProtocolContext, initial_run: int = 2) -> None:
        super().__init__(ctx)
        if initial_run < 2:
            raise InvalidParameterError(
                f"initial_run must be >= 2, got {initial_run}"
            )
        self.initial_run = initial_run
        self.run_size = initial_run  # W of the current run
        self.round_size = initial_run  # s of the current round within the run
        self.round_left = initial_run  # slots remaining in the current round
        self._next_p = 1.0 / initial_run  # the current round's probability
        self.last_p = 0.0

    def __setstate__(self, state: tuple) -> None:
        super().__setstate__(state)
        # Pickled (in a stream checkpoint) when the probability was
        # derived at each act.
        self._next_p = 1.0 / self.round_size

    def on_act(self, slot: int) -> Optional[Message]:
        p = self.last_p = self._next_p
        if self.ctx.random() < p:
            return DataMessage(self.ctx.job_id)
        return None

    def on_observe(self, slot: int, obs: Observation) -> None:
        # move to the next slot of the sawtooth pattern
        self.round_left -= 1
        if self.round_left > 0:
            return
        if self.round_size > 1:
            self.round_size //= 2
        else:
            # run exhausted: double the run and restart the sweep
            self.run_size *= 2
            self.round_size = self.run_size
        self.round_left = self.round_size
        self._next_p = 1.0 / self.round_size


def sawtooth_factory(initial_run: int = 2):
    """A :data:`~repro.sim.engine.ProtocolFactory` running sawtooth backoff."""

    def make(job: Job, rng: np.random.Generator) -> SawtoothBackoff:
        return SawtoothBackoff(ProtocolContext.for_job(job, rng), initial_run)

    return make
