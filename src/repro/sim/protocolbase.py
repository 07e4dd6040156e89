"""The protocol interface every contention-resolution strategy implements.

A protocol is a *per-job* state machine.  The engine drives it with the
slot loop::

    begin(slot)                      # once, at the job's release
    repeat while the job is live:
        msg = act(slot)              # None = listen, Message = transmit
        obs = ...channel resolution...
        observe(slot, obs)

The model gives jobs no global clock; protocols must only use ``slot``
relative to the slot passed to :meth:`begin` (local age).  The aligned
special case (Section 3) is the exception — window alignment implies a
shared slot index, and aligned protocols may use ``slot`` directly.  Each
protocol documents which convention it follows.

Success tracking is redundant on purpose: the engine decides ground-truth
delivery from channel outcomes, while protocols also track their own
success (collision detection lets a transmitter see its own result) so
they can stop transmitting.  Tests assert the two never disagree.

The public :meth:`Protocol.act` and :meth:`Protocol.observe` guard the
calling order for direct callers.  Implement the ``on_*`` hooks: the
slot core calls them directly where it can, and overriding ``act``,
``observe`` or ``done`` means the engine drives the class through the
slower guarded path (see :class:`~repro.sim.engine.SlotCore`).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.channel.feedback import Observation
from repro.channel.messages import DataMessage, Message
from repro.errors import ProtocolViolationError
from repro.sim.job import Job

__all__ = ["Protocol", "ProtocolContext"]

#: Values :meth:`ProtocolContext.random` draws from the stream at a time:
#: smaller blocks cost more per coin, larger ones no less, and each live
#: job holds its unread block.
COIN_BLOCK = 32


class ProtocolContext:
    """Everything a protocol is allowed to know at activation.

    Attributes
    ----------
    job_id:
        Simulator identity (used only to stamp outgoing messages).
    window:
        The job's window size ``w_j`` — known a priori per the model.
    rng:
        The job's private random stream.

    A protocol draws through :meth:`random` alone or through ``rng``
    alone, never both: :meth:`random` reads the stream up to
    :data:`COIN_BLOCK` values ahead, so a direct ``rng`` draw in between
    would take values meant for later coins.
    """

    __slots__ = ("job_id", "window", "rng", "_coins")

    def __init__(self, job_id: int, window: int, rng: np.random.Generator) -> None:
        self.job_id = job_id
        self.window = window
        self.rng = rng
        self._coins: list = []  # unread draws, the next one last

    def __setstate__(self, state: tuple) -> None:
        # A context pickled before coins were drawn in blocks has none
        # unread: its generator stands at the next coin.
        self._coins = []
        for name, value in state[1].items():
            setattr(self, name, value)

    @classmethod
    def for_job(cls, job: Job, rng: np.random.Generator) -> "ProtocolContext":
        return cls(job.job_id, job.window, rng)

    def random(self) -> float:
        """The value the stream's next ``rng.random()`` call returns.

        Drawn :data:`COIN_BLOCK` at a time: numpy fills ``random(n)``
        with the doubles of ``n`` successive scalar calls, in order, at a
        fraction of their cost.
        """
        coins = self._coins
        if not coins:
            coins = self._coins = self.rng.random(COIN_BLOCK).tolist()
            coins.reverse()
        return coins.pop()

    def data_message(self) -> DataMessage:
        """The job's unit data message."""
        return DataMessage(self.job_id)


class Protocol(abc.ABC):
    """Abstract per-job contention-resolution state machine.

    Subclasses implement :meth:`on_begin`, :meth:`on_act`, and
    :meth:`on_observe`; the base class enforces the legal calling order
    and maintains the ``started`` / ``succeeded`` / ``gave_up`` flags and
    the transmission counter.  Overriding ``act``, ``observe`` or
    ``done`` means the engine drives the class through the slower
    guarded path (see :class:`~repro.sim.engine.SlotCore`).

    The base-class state lives in ``__slots__`` so the engine's per-slot
    reads of ``succeeded`` / ``gave_up`` / ``transmissions`` skip the
    instance dict; subclasses without their own ``__slots__`` still get a
    ``__dict__`` for protocol-specific state.
    """

    __slots__ = (
        "ctx",
        "started",
        "start_slot",
        "succeeded",
        "gave_up",
        "transmissions",
        "_awaiting_observation",
        "_events",
    )

    def __init__(self, ctx: ProtocolContext) -> None:
        self.ctx = ctx
        self.started = False
        self.start_slot: int = -1
        self.succeeded = False
        self.gave_up = False
        self.transmissions = 0
        self._awaiting_observation = False
        self._events = None  # telemetry sink; bound by the engine

    def __setstate__(self, state) -> None:
        # What unpickling does by default (the instance dict, then the
        # base-class slots), spelled out so that a subclass can rebuild a
        # cached value that an older pickle lacks.
        inst, slots = state if isinstance(state, tuple) else (state, None)
        if inst:
            self.__dict__.update(inst)
        for name, value in (slots or {}).items():
            setattr(self, name, value)

    # -- engine-facing lifecycle ------------------------------------------

    def bind_telemetry(self, sink) -> None:
        """Attach an :class:`~repro.obs.events.EventSink` for lifecycle
        events.  The engine calls this before :meth:`begin` when a
        telemetry object is attached; without one, ``_events`` stays
        ``None`` and :meth:`emit` is never reached (all emission sites
        guard on the sink), so event work is strictly pay-for-use.
        """
        self._events = sink

    def emit(self, kind: str, slot: int = -1, **data) -> None:
        """Emit one lifecycle event, stamped with this job's id.

        No-op when no sink is bound.  Emission sites on hot paths
        should guard on ``self._events is not None`` themselves to
        skip building ``data`` kwargs.
        """
        if self._events is not None:
            self._events.emit(kind, slot, self.ctx.job_id, **data)

    def begin(self, slot: int) -> None:
        """Activate the protocol at its job's release slot."""
        if self.started:
            raise ProtocolViolationError("begin() called twice")
        self.started = True
        self.start_slot = slot
        self.on_begin(slot)

    def act(self, slot: int) -> Optional[Message]:
        """Return the message to transmit this slot, or None to listen."""
        if not self.started:
            raise ProtocolViolationError("act() before begin()")
        if self._awaiting_observation:
            raise ProtocolViolationError("act() called twice without observe()")
        self._awaiting_observation = True
        if self.done:
            return None
        msg = self.on_act(slot)
        if msg is not None:
            self.transmissions += 1
        return msg

    def observe(self, slot: int, obs: Observation) -> None:
        """Deliver the slot's channel observation."""
        if not self._awaiting_observation:
            raise ProtocolViolationError("observe() without a preceding act()")
        self._awaiting_observation = False
        if (
            obs.own_success
            and obs.message is not None
            and isinstance(obs.message, DataMessage)
            and obs.message.sender == self.ctx.job_id
        ):
            self.succeeded = True
        self.on_observe(slot, obs)

    # -- state queries -----------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether the protocol has stopped interacting with the channel.

        A done protocol still receives observations (it may be listening
        passively in the model, but our engines skip it for speed; no
        implemented protocol acts on post-done feedback).
        """
        return self.succeeded or self.gave_up

    def local_age(self, slot: int) -> int:
        """Slots elapsed since activation (0 in the activation slot)."""
        return slot - self.start_slot

    # -- subclass hooks ------------------------------------------------------

    def on_begin(self, slot: int) -> None:
        """Hook: called once at activation (default: nothing)."""

    @abc.abstractmethod
    def on_act(self, slot: int) -> Optional[Message]:
        """Hook: decide this slot's action (never called once done)."""

    def on_observe(self, slot: int, obs: Observation) -> None:
        """Hook: digest the slot's feedback (default: nothing)."""
