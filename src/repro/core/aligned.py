"""The ALIGNED protocol (Section 3) for power-of-2-aligned windows.

Each job runs three nested layers:

1. a :class:`~repro.core.schedule.PeckingOrderView` deciding which class
   is active each slot (Lemma 7 agreement);
2. when its own class is active, the class algorithm: the size-estimation
   protocol (ping with probability ``1/2^i`` in phase i) followed by the
   batch broadcast protocol (one uniformly random slot per subphase);
3. termination: succeed on own delivery, give up if the class run
   completes without one or is truncated by the window end (the engine
   enforces the latter).

:class:`AlignedMachine` contains all the logic against an abstract slot
index so PUNCTUAL can re-run it in round-indexed *virtual* time on the
aligned slots; :class:`AlignedProtocol` adapts it to the real slot engine
one-to-one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.feedback import Feedback, Observation
from repro.channel.messages import DataMessage, EstimateReport, Message
from repro.core.schedule import PeckingOrderView
from repro.errors import InvalidInstanceError
from repro.params import AlignedParams
from repro.sim.job import Job, is_power_of_two, window_class
from repro.sim.protocolbase import Protocol, ProtocolContext

__all__ = ["AlignedMachine", "AlignedProtocol", "aligned_factory"]

# Read once per machine slot; an enum member lookup costs several plain
# loads before CPython 3.12.
_SUCCESS = Feedback.SUCCESS


class AlignedMachine:
    """Per-job ALIGNED state machine over an abstract slot timeline.

    Parameters
    ----------
    job_id:
        Identity stamped on outgoing messages.
    level:
        The job's class ℓ (window size ``2^ℓ`` in machine slots).
    params:
        λ, τ and the schedule's ``min_level``.
    rng:
        The job's private random stream.

    The machine must be driven for *every* consecutive slot from its
    ``begin`` slot until it reports :attr:`finished` (or its window ends):
    ``act(v)`` then ``observe(v, obs)``.
    """

    def __init__(
        self,
        job_id: int,
        level: int,
        params: AlignedParams,
        rng: np.random.Generator,
    ) -> None:
        self.job_id = job_id
        self.level = level
        self.params = params
        self.rng = rng
        self.view: Optional[PeckingOrderView] = None
        self.succeeded = False
        self.gave_up = False
        self.last_p = 0.0
        self._my_subphase_slot: int = -1  # drawn at each subphase start
        # Optional telemetry sink (repro.obs.events.EventSink); the
        # embedding protocol propagates it.  Once-per-lifecycle flags keep
        # phase events from repeating every slot.
        self.events = None
        self._ev_agreed = False
        self._ev_estimating = False
        self._ev_broadcasting = False

    # -- lifecycle -----------------------------------------------------------

    def begin(self, v: int) -> None:
        """Start at machine slot ``v`` (must be a multiple of ``2^level``)."""
        self.view = PeckingOrderView(self.params, self.level, v)

    @property
    def finished(self) -> bool:
        """True once the job has succeeded or given up."""
        return self.succeeded or self.gave_up

    # -- slot protocol ---------------------------------------------------------

    def act(self, v: int) -> Optional[Message]:
        """Decide this machine-slot's action; sets :attr:`last_p`."""
        view = self.view
        assert view is not None, "act() before begin()"
        active = view.on_slot_start(v)
        self.last_p = 0.0
        if self.succeeded or self.gave_up:
            return None
        run = view.runs[self.level]
        if active != self.level:
            # A smaller class holds the channel (wait), or every tracked
            # run is done.  If mine is, the class algorithm ran to
            # completion without me: give up (the paper's jobs only
            # terminate on success or truncation, and a completed run
            # leaves no further steps to take).
            if run.done:
                self.gave_up = True
                if self.events is not None:
                    self.events.emit(
                        "aligned.exhausted", v, self.job_id, level=self.level
                    )
            return None
        if self.events is not None and not self._ev_agreed:
            self._ev_agreed = True
            self.events.emit(
                "aligned.class_agreement", v, self.job_id, level=self.level
            )

        phase = run.phase
        if phase:
            if self.events is not None and not self._ev_estimating:
                self._ev_estimating = True
                self.events.emit(
                    "aligned.estimation_started", v, self.job_id,
                    level=self.level,
                )
            p = 1.0 / (1 << phase)
            self.last_p = p
            if self.rng.random() < p:
                return EstimateReport(self.job_id, phase)
            return None
        if self.events is not None and not self._ev_broadcasting:
            self._ev_broadcasting = True
            if self._ev_estimating:
                self.events.emit(
                    "aligned.estimation_converged", v, self.job_id,
                    level=self.level,
                )
            self.events.emit(
                "aligned.broadcast_started", v, self.job_id, level=self.level
            )
        length = run.sub_len
        offset = run.sub_off
        if not offset:
            self._my_subphase_slot = int(self.rng.integers(length))
        self.last_p = 1.0 / length
        if offset == self._my_subphase_slot:
            return DataMessage(self.job_id)
        return None

    def observe(self, v: int, obs: Observation) -> None:
        """Feed the slot's channel outcome; advances the shared view."""
        assert self.view is not None, "observe() before begin()"
        if obs.own_success and isinstance(obs.message, DataMessage):
            self.succeeded = True
        self.view.on_slot_end(v, obs.feedback is _SUCCESS)


class AlignedProtocol(Protocol):
    """ALIGNED adapted to the real-time slot engine.

    The aligned special case grants a shared slot index (alignment itself
    synchronizes jobs), so this protocol legitimately uses the absolute
    slot ``t``.
    """

    def __init__(self, ctx: ProtocolContext, params: AlignedParams) -> None:
        super().__init__(ctx)
        if not is_power_of_two(ctx.window):
            raise InvalidInstanceError(
                f"ALIGNED requires power-of-two windows, got {ctx.window}"
            )
        self.params = params
        self.machine = AlignedMachine(
            ctx.job_id, window_class(ctx.window), params, ctx.rng
        )
        self.last_p = 0.0

    def bind_telemetry(self, sink) -> None:
        super().bind_telemetry(sink)
        self.machine.events = sink

    def on_begin(self, slot: int) -> None:
        if slot % self.ctx.window != 0:
            raise InvalidInstanceError(
                f"job {self.ctx.job_id} released at {slot}, not aligned to "
                f"window {self.ctx.window}"
            )
        self.machine.begin(slot)

    def on_act(self, slot: int) -> Optional[Message]:
        msg = self.machine.act(slot)
        self.last_p = self.machine.last_p
        return msg

    def on_observe(self, slot: int, obs: Observation) -> None:
        self.machine.observe(slot, obs)
        if self.machine.gave_up:
            self.gave_up = True


def aligned_factory(params: AlignedParams):
    """A :data:`~repro.sim.engine.ProtocolFactory` running ALIGNED."""

    def make(job: Job, rng: np.random.Generator) -> AlignedProtocol:
        return AlignedProtocol(ProtocolContext.for_job(job, rng), params)

    # Fastpath marker (repro.fastpath.batched.plan_fastpath): function
    # attributes are not part of stable_digest's callable encoding, so
    # attaching them leaves every existing cache key untouched.
    make.fastpath_kind = "aligned"
    make.fastpath_params = params
    return make
