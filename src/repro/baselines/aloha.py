"""Slotted ALOHA with a fixed (or window-scaled) transmit probability.

The simplest memoryless strategy: transmit with probability ``p`` in
every slot until success or deadline.  With ``p`` tuned to ``1/n`` for
``n`` contenders this is throughput-optimal among memoryless strategies
(the classic ``1/e``), but ``n`` is unknown in our setting — so ALOHA
serves as the "no coordination at all" baseline, and the window-scaled
variant ``p = c/w_j`` is the natural deadline-aware tweak (each job
expects ``c`` attempts within its window).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.channel.feedback import Observation
from repro.channel.messages import DataMessage, Message
from repro.errors import InvalidParameterError
from repro.params import cap_probability
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol, ProtocolContext

__all__ = ["SlottedAloha", "aloha_factory", "window_scaled_aloha_factory"]


class SlottedAloha(Protocol):
    """Transmit i.i.d. with probability ``p`` every slot until success."""

    def __init__(self, ctx: ProtocolContext, p: float) -> None:
        super().__init__(ctx)
        if not 0.0 < p <= 1.0:
            raise InvalidParameterError(f"p must be in (0, 1], got {p}")
        self.p = p
        self.last_p = p

    def on_act(self, slot: int) -> Optional[Message]:
        if self.ctx.random() < self.p:
            return DataMessage(self.ctx.job_id)
        return None

    def on_observe(self, slot: int, obs: Observation) -> None:
        pass


def aloha_factory(p: float):
    """ALOHA with one fixed probability for every job."""

    def make(job: Job, rng: np.random.Generator) -> SlottedAloha:
        return SlottedAloha(ProtocolContext.for_job(job, rng), p)

    return make


def window_scaled_aloha_factory(c: float = 4.0):
    """ALOHA with ``p = min(c / w_j, 1/2)`` per job.

    Each job budgets ``c`` expected attempts across its window — a
    deadline-aware heuristic that, like UNIFORM, still lets small-window
    jobs drown among large populations (no estimation, no pecking order).
    """
    if c <= 0:
        raise InvalidParameterError(f"c must be positive, got {c}")

    def make(job: Job, rng: np.random.Generator) -> SlottedAloha:
        p = cap_probability(c / job.window)
        p = max(p, 1e-9)  # degenerate huge windows still get a chance
        return SlottedAloha(ProtocolContext.for_job(job, rng), p)

    return make
