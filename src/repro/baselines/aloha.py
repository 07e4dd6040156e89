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

from typing import Optional

import numpy as np

from repro.channel.feedback import Observation
from repro.channel.messages import DataMessage, Message
from repro.errors import InvalidParameterError
from repro.params import cap_probability
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol, ProtocolContext

__all__ = ["SlottedAloha", "aloha_factory", "window_scaled_aloha_factory"]


class SlottedAloha(Protocol):
    """Transmit i.i.d. with probability ``p`` every slot until success.

    Slot ``t``'s coin is the stream's ``t``-th :meth:`ProtocolContext.random`
    value from activation on, as if drawn at each act; the job draws them
    ahead instead, up to the next coin that comes up, and sleeps until
    that slot (:attr:`~Protocol.wake`).  After a send it draws nothing
    until the next act, so a job whose send succeeds draws no more.
    """

    def __init__(self, ctx: ProtocolContext, p: float) -> None:
        super().__init__(ctx)
        if not 0.0 < p <= 1.0:
            raise InvalidParameterError(f"p must be in (0, 1], got {p}")
        self.p = p
        self.last_p = p
        self.wake = 0
        self._send = False  # whether the coin of slot ``wake`` came up

    def _scan(self, slot: int) -> None:
        """Draw the coins of slots ``slot``, ``slot + 1``, ... until one
        comes up (wake there to send) or a window's worth of them does
        not (wake there to draw on)."""
        random = self.ctx.random
        p = self.p
        stop = slot + self.ctx.window
        while slot < stop:
            if random() < p:
                self._send = True
                self.sleep_until(slot)
                return
            slot += 1
        self._send = False
        self.sleep_until(stop)

    def on_begin(self, slot: int) -> None:
        self._scan(slot)

    def on_act(self, slot: int) -> Optional[Message]:
        if slot < self.wake:
            return None
        if not self._send:
            self._scan(slot)
            if slot < self.wake:
                return None
        # Awake next slot, whose coin the next act draws.
        self.wake, self._send = slot + 1, False
        return DataMessage(self.ctx.job_id)

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
