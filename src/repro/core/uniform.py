"""UNIFORM — the natural (and provably unfair) algorithm of Section 2.

Each job picks one (or Θ(1)) uniformly random slot(s) of its own window
and transmits its data message there; no listening, no adaptation.  The
paper proves two things about it, both reproduced by experiments E1/E2:

* Lemma 4 — on a γ-slack-feasible instance with γ < 1/6, a constant
  fraction of all n messages succeed, with probability 1 − exp(−Θ(n));
* Lemma 5 — it is *not fair*: on the harmonic instance certain jobs
  (ironically the most urgent ones) succeed with probability only
  ``O(1/n^Θ(1))``.

UNIFORM uses only local age, never the global clock.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from repro.channel.feedback import Observation
from repro.channel.messages import DataMessage, Message
from repro.params import UniformParams
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol, ProtocolContext

__all__ = ["UniformProtocol", "uniform_factory"]


class UniformProtocol(Protocol):
    """Transmit in ``attempts`` random window slots (without replacement).

    When the window is smaller than ``attempts``, every slot is used.
    A success stops further attempts (the job terminates).  Every
    per-slot constant is fixed in :meth:`on_begin`.  The job sleeps
    between its chosen slots (:attr:`~Protocol.wake`).
    """

    def __init__(self, ctx: ProtocolContext, params: UniformParams) -> None:
        super().__init__(ctx)
        self.params = params
        self.chosen: Set[int] = set()
        self.last_p = 0.0
        self._last_age = 0  # the latest chosen age, set at begin
        self.wake = 0

    def on_begin(self, slot: int) -> None:
        w = self.ctx.window
        k = min(self.params.attempts, w)
        picks = self.ctx.rng.choice(w, size=k, replace=False)
        self.chosen = {int(x) for x in picks}
        self._last_age = max(self.chosen)
        self.sleep_until(slot + min(self.chosen))
        # Marginal per-slot probability, for contention traces: the chance
        # a fresh job would transmit here is attempts/window.
        self.last_p = min(self.params.attempts / w, 1.0)

    def on_act(self, slot: int) -> Optional[Message]:
        if slot - self.start_slot in self.chosen:
            return DataMessage(self.ctx.job_id)
        return None

    def on_observe(self, slot: int, obs: Observation) -> None:
        # Succeeded jobs terminate (handled by the base class).  A job that
        # exhausted its chosen slots without success stays silent forever;
        # we mark it given-up so the engine can retire it early (pure
        # bookkeeping — it would not touch the channel again anyway).
        if slot < self.wake:
            return
        age = slot - self.start_slot
        if age < self._last_age:
            self.sleep_until(self.start_slot + min(a for a in self.chosen if a > age))
        elif not self.succeeded:
            self.gave_up = True
            self.emit("uniform.exhausted", slot, attempts=len(self.chosen))


def uniform_factory(params: UniformParams = UniformParams()):
    """A :data:`~repro.sim.engine.ProtocolFactory` running UNIFORM."""

    def make(job: Job, rng: np.random.Generator) -> UniformProtocol:
        return UniformProtocol(ProtocolContext.for_job(job, rng), params)

    # Fastpath marker (repro.fastpath.batched.plan_fastpath): function
    # attributes are not part of stable_digest's callable encoding, so
    # attaching them leaves every existing cache key untouched.
    make.fastpath_kind = "uniform"
    make.fastpath_params = params
    return make
