"""The slot core and the closed-instance driver.

Every run, closed or streaming, advances one :class:`SlotCore`, whose
:meth:`~SlotCore.step` is one slot of the paper's model:

1. collect each live protocol's action (transmit / listen);
2. resolve the slot (jammer included);
3. deliver the resulting observation to every live protocol;
4. retire jobs that succeeded, gave up, or hit their deadline.

The drivers only decide which jobs join the live set, and when:
:func:`simulate` admits an :class:`~repro.sim.instance.Instance`'s jobs
in activation order, :func:`repro.stream.engine.stream_simulate` open
arrivals under admission control and checkpoints.

Ground-truth delivery is decided by the core from channel outcomes — a
job succeeded iff a :class:`DataMessage` with its id was delivered (either
directly or piggybacked on a leader's timekeeper beacon), strictly inside
its window.  Protocol self-reported success is cross-checked against this
and any disagreement raises :class:`SimulationError`, catching a whole
class of protocol bugs in every test that runs a simulation.

Hot-path layout
---------------
The inner loop is pure Python and bounds every Monte-Carlo experiment in
the suite, so it is written for throughput:

* live jobs are kept in flat parallel lists (ids, jobs, protocols,
  pre-bound ``act``/``observe`` methods, deadlines) instead of a dict,
  compacted only on retirement;
* a :class:`~repro.sim.protocolbase.Protocol` is bound *directly*: the
  core calls its ``on_act``/``on_observe`` hooks and does the base
  class's bookkeeping itself (it counts each send into
  ``transmissions`` and sets ``succeeded`` when the slot delivers the
  transmitter's own data message, both before the fan-out), skipping the
  guards of :meth:`Protocol.act`/:meth:`Protocol.observe`, which re-check
  what the core already guarantees.  The guarded methods stay bound for
  a job with per-job faults, for every job of a run with an invariant
  checker or feedback corruption, for a class that overrides ``act``,
  ``observe`` or ``done``, and for a duck-typed protocol; the ``direct``
  column records which binding each job got;
* a directly bound job sleeps while its protocol's ``wake`` (see "The
  wake promise" in :mod:`repro.sim.protocolbase`) is a later slot, in a
  run with no checker, telemetry, trace or observers (they read every
  job's per-slot ``last_p``, events and observations).  The ``wake``
  column holds each job's wake as last read (``-1``: call it every
  slot, never read).  In a slot in which some live job sleeps
  (``napping``), only the awake jobs act, observe (each has its wake
  read back after its observation) and are checked for retirement;
  deadlines still retire sleepers.  Any other slot runs the dense loops
  over every job, and reads the wakes back afterwards only when some
  protocol moved one since the last read (:meth:`Protocol.sleep_until
  <repro.sim.protocolbase.Protocol.sleep_until>` counts the moves in
  :data:`~repro.sim.protocolbase.PROMISES`), so a job that never
  sleeps costs a few tests per slot.  When every live job sleeps past
  the next slot and no watchdog is attached, the step returns
  :data:`ASLEEP`, and the driver jumps (:meth:`~SlotCore.skip`) to the
  earliest wake, admission or arrival, deadline retirement, checkpoint
  or end of releases, counting each skipped slot as a silent step
  counts it (the jammer still decides each one);
* slot resolution is inlined (semantically identical to
  :func:`repro.channel.channel.resolve_slot`), and the jammer callout is
  skipped entirely for the benign :class:`NoJammer`;
* observations are shared frozen singletons where their content is
  identical for every listener (silence / noise), so silent slots cost
  one bound-method call per live job and nothing else;
* contention tracking (the per-slot ``last_p`` sum) runs only when a
  trace or telemetry is recorded, with a one-time per-protocol
  capability check instead of a per-slot ``getattr`` probe; the shipped
  protocols fix their probability where it changes, and ``act`` only
  stores it in ``last_p``;
* a coin-flip protocol draws each coin through
  :meth:`ProtocolContext.random
  <repro.sim.protocolbase.ProtocolContext.random>`, which pops the job
  stream's next ``rng.random()`` value from a block of 32 drawn at
  once: the same doubles, at about a quarter of a scalar call's cost;
* message delivery dispatches on the :attr:`Message.kind` tag rather
  than ``isinstance`` chains;
* each job's private ``"job"`` stream comes from a block prepared
  ahead of admission (:meth:`RngFactory.prepare`, 256 jobs at a time):
  bit-identical to the job's ``SeedSequence``, at ~2 µs a stream
  instead of ~28 µs.

Fault and telemetry hooks
-------------------------
A :class:`~repro.faults.plan.FaultPlan` (``faults=``) lets the core
perturb feedback, clocks, and job lifecycles, an
:class:`~repro.sim.invariants.InvariantChecker` (``invariants=``) audits
every slot, a :class:`~repro.obs.telemetry.Telemetry` object
(``telemetry=``) collects metrics, lifecycle events, and spans, and a
:class:`~repro.sim.watchdog.Watchdog` (``watchdog=``) cancels runaway
adversarial runs gracefully with a partial result.  Both drivers accept
all four.  All four are strictly pay-for-what-you-use: with none
attached the hot loop executes the exact same statements as before (the
hook branches collapse to a handful of ``is None`` guards outside the
per-listener fan-out), so a run with none attached is bit-identical to
one on an engine without these hooks, and throughput is preserved.
Telemetry draws no randomness and never alters results — it only
observes — so it is *not* folded into cache keys.  Fault randomness
draws from dedicated RNG streams, never from the channel or job streams.

Any change that alters simulation *semantics* (outcomes, slot counts,
randomness consumption) must bump :data:`ENGINE_VERSION`, which the
result cache folds into its content digests.  Fault-injected runs are
additionally keyed on their plan (see :func:`repro.cache.run_key`), so
attaching a plan never needs a version bump.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.channel import SlotOutcome
from repro.channel.feedback import Feedback, Observation
from repro.channel.jamming import Jammer, NoJammer
from repro.channel.messages import KIND_BEACON, KIND_DATA, Message
from repro.errors import InvalidParameterError, SimulationError
from repro.faults.plan import FaultPlan, _JobRecord, fault_wrappers, job_fault_record
from repro.obs.events import EventSink
from repro.sim.instance import Instance
from repro.sim.invariants import InvariantChecker
from repro.sim.job import Job, JobStatus
from repro.sim.metrics import JobOutcome, SimulationResult
from repro.sim.protocolbase import PROMISES, Protocol
from repro.sim.rng import PREPARE_BLOCK, RngFactory
from repro.sim.trace import TraceRecorder
from repro.sim.watchdog import (
    REASON_SLOTS,
    REASON_STALL,
    REASON_WALL,
    WALL_CHECK_PERIOD,
    Watchdog,
    WatchdogTrip,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import Telemetry

__all__ = [
    "ASLEEP", "ENGINE_VERSION", "Finalize", "ProtocolFactory", "SlotCore",
    "SlotObserver", "resolve_adversary", "simulate",
]

#: Version of the engine's observable simulation semantics.  Bump whenever
#: a change can alter any :class:`SimulationResult` for some input — the
#: content-addressed result cache keys on it, so stale entries invalidate
#: themselves.
#: 3: RNG stream keys moved from crc32 (32-bit, collision-prone) to a
#: 128-bit blake2b derivation (see :func:`repro.sim.rng._label_key`);
#: every random stream, and therefore every sampled outcome, changed.
ENGINE_VERSION = 3

#: Builds the protocol for one job, given the job and its private stream.
ProtocolFactory = Callable[[Job, np.random.Generator], Protocol]

#: Optional per-slot callback ``(outcome, live_job_ids)`` for instrumentation.
SlotObserver = Callable[[SlotOutcome, Tuple[int, ...]], None]

#: The driver's retirement callback: ``(job, status, completion_slot,
#: transmissions, jammed_transmissions)``.
Finalize = Callable[[Job, JobStatus, int, int, int], None]

# Shared immutable observations; their content is independent of the
# perceiving job, so one object per (feedback, transmitted) pair serves
# every listener of every slot.
_OBS_SILENCE = Observation.silence(False)
_OBS_NOISE = Observation.noise(False)
_OBS_NOISE_TX = Observation.noise(True)

_SILENCE = Feedback.SILENCE
_SUCCESS = Feedback.SUCCESS
_NOISE = Feedback.NOISE

#: :class:`SlotCore`'s structural state: what a streaming checkpoint holds.
_STATE = (
    "rngs", "ch_rng", "jam", "jam_attempt", "corrupt", "f_rng",
    "clock_fault", "job_fault", "ids", "jobs", "protos", "act", "observe",
    "deadline", "has_p", "jammed", "wake", "direct", "columns", "delivered",
    "sink",
    "slots", "attempts", "silence_slots", "success_slots", "collision_slots",
    "jammed_slots", "progress_mark",
)

#: What :meth:`SlotCore.attach` installs: the calling driver's hooks,
#: never pickled into a streaming checkpoint.
_HOOKS = (
    "factory", "checker", "tele", "recorder", "observers",
    "hooked", "track_contention", "sleepy", "napping", "promises", "wd",
    "wd_stall_limit", "wd_deadline",
)

#: What :meth:`SlotCore.step` returns instead of ``None`` when every live
#: job sleeps past the next slot (never with a watchdog attached): the
#: driver may :meth:`~SlotCore.skip` to the next slot that needs a step.
ASLEEP = object()


def resolve_adversary(
    faults: Optional[FaultPlan], jammer: Optional[Jammer]
) -> Tuple[Optional[FaultPlan], Optional[Jammer]]:
    """``(plan, jammer)`` for one run: a plan's own jammer stands in for
    ``jammer=`` (passing both raises), and a plan with nothing else left
    becomes ``None``.  The slot core reads only the feedback, clock and
    job faults of a plan, so a jammer-only plan runs exactly like its
    jammer."""
    if faults is None or faults.is_noop:
        return None, jammer
    if faults.jammer is not None:
        if jammer is not None:
            raise InvalidParameterError(
                "got a jammer= argument and a FaultPlan with its own "
                "jammer; pick one adversary"
            )
        jammer = faults.jammer
        if replace(faults, jammer=None).is_noop:
            return None, jammer
    return faults, jammer


def _keeps_base(cls: type) -> bool:
    """Whether ``cls`` is a :class:`Protocol` that keeps the base class's
    ``act``, ``observe`` and ``done``, so the core may call its hooks
    directly."""
    return (
        getattr(cls, "act", None) is Protocol.act
        and getattr(cls, "observe", None) is Protocol.observe
        and getattr(cls, "done", None) is Protocol.done
    )


class _Sink(EventSink):
    """The event sink protocols are bound to: forwards to the attached
    telemetry's log, and pickles empty, so a streaming checkpoint never
    carries the log and a resumed run's protocols emit into its own."""

    log: Optional[EventSink] = None

    def emit(self, kind: str, slot: int = -1, job_id: int = -1, **data) -> None:
        if self.log is not None:
            self.log.emit(kind, slot, job_id, **data)

    def __reduce__(self):
        return (_Sink, ())


def _outcome(t: int, n_tx: int, jammed: bool, tx_msg: List[Message]) -> SlotOutcome:
    """The resolved slot as a :class:`SlotOutcome` (for instrumentation)."""
    if n_tx == 1:
        if jammed:
            return SlotOutcome(t, _NOISE, None, 1, True)
        return SlotOutcome(t, _SUCCESS, tx_msg[0], 1, False)
    return SlotOutcome(
        t, _NOISE if jammed or n_tx else _SILENCE, None, n_tx, jammed
    )


class SlotCore:
    """One channel's live set and slot step, shared by both drivers.

    The structural state — the live set, the delivered map, the RNG
    streams, the jammer and the slot counters — is what a streaming
    checkpoint pickles.  The hooks :meth:`attach` installs (protocol
    factory, invariant checker, telemetry, trace, observers, watchdog)
    belong to the calling driver: they are never pickled, and a resumed
    run attaches its own.

    Counters: :attr:`slots` simulated, :attr:`attempts` (send attempts
    the channel saw), and the stream's slot kinds
    (:attr:`silence_slots`, :attr:`success_slots`,
    :attr:`collision_slots`, :attr:`jammed_slots`).
    """

    __slots__ = _STATE + _HOOKS

    def __init__(
        self,
        rngs: RngFactory,
        jammer: Optional[Jammer] = None,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        def live(family):
            return None if family is None or family.is_noop else family

        plan = plan or FaultPlan()
        self.rngs = rngs
        self.ch_rng = rngs.channel_rng()
        self.jam: Jammer = jammer if jammer is not None else NoJammer()
        # The jammer callout, skipped entirely for the benign NoJammer.
        self.jam_attempt = None
        if type(self.jam) is not NoJammer:
            self.jam_attempt = self.jam.attempt
            self.jam.reset()  # budgeted jammers: restore per-run counters
        self.corrupt = live(plan.feedback)
        self.f_rng = None if self.corrupt is None else rngs.stream("fault-feedback")
        self.clock_fault = live(plan.clock)
        self.job_fault = live(plan.jobs)

        # The live set: flat parallel lists, one index per live job,
        # compacted in place (the list objects never change).
        self.ids: List[int] = []
        self.jobs: List[Job] = []
        self.protos: List[Protocol] = []
        self.act: List[Callable[[int], Optional[Message]]] = []
        self.observe: List[Callable[[int, Observation], None]] = []
        self.deadline: List[int] = []
        self.has_p: List[bool] = []
        self.jammed: List[int] = []  # per-job attempts spent into jammed slots
        self.wake: List[int] = []  # first slot to call the job; -1: every slot
        self.direct: List[bool] = []  # act/observe are the bare hooks
        self.columns = (
            self.ids, self.jobs, self.protos, self.act, self.observe,
            self.deadline, self.has_p, self.jammed, self.wake, self.direct,
        )
        self.delivered: Dict[int, int] = {}  # job id -> first delivery slot
        self.sink = _Sink()

        self.slots = self.attempts = 0
        self.silence_slots = self.success_slots = 0
        self.collision_slots = self.jammed_slots = 0
        self.progress_mark = 0  # slots at the last sign of progress

    def __getstate__(self) -> tuple:
        return None, {name: getattr(self, name) for name in _STATE}

    def attach(
        self,
        factory: ProtocolFactory,
        *,
        invariants: Union[bool, InvariantChecker] = False,
        telemetry: Optional["Telemetry"] = None,
        recorder: Optional[TraceRecorder] = None,
        observers: Sequence[SlotObserver] = (),
        watchdog: Optional[Watchdog] = None,
        max_window: int = 1,
        t: int = 0,
    ) -> None:
        """Install the calling driver's hooks (again after a resume).

        ``max_window`` sizes the watchdog's stall budget; a checker is
        primed with jobs already live at slot ``t`` (a resumed run).
        """
        self.factory = factory
        checker = InvariantChecker() if invariants is True else invariants or None
        if checker is not None:
            c = self.corrupt
            if c is not None and c.p_success_erasure > 0.0 and c.affect_transmitters:
                # an erased transmitter legitimately re-sends; only the
                # duplicate-delivery check is relaxed.
                checker.allow_redelivery = True
            for i, (job, proto) in enumerate(zip(self.jobs, self.protos)):
                checker.on_activate(job, proto, t)
                if self.direct[i]:
                    # The checker audits through the guarded methods.
                    self.act[i], self.observe[i] = proto.act, proto.observe
                    self.direct[i] = False
        self.checker = checker

        # Telemetry is observational only: it consumes no randomness and
        # takes no branch a protocol can see, so attaching it keeps results
        # bit-identical.  With telemetry off, the per-slot cost is a single
        # ``is None`` check (hooked), matching the recorder discipline.
        self.tele = telemetry
        self.sink.log = telemetry.events if telemetry is not None else None
        self.recorder = recorder
        self.observers = tuple(observers)
        self.hooked = (
            checker is not None
            or telemetry is not None
            or recorder is not None
            or bool(observers)
        )
        self.track_contention = recorder is not None or telemetry is not None
        # A job may sleep (its wake column holds the wake its protocol
        # promises, else -1: call it every slot) only when bound directly
        # in a run whose hooks read no per-slot values (``last_p``,
        # events, every job's observation); admit() applies the same rule.
        self.wake[:] = [
            -1 if self.hooked or not d or p.wake is None else p.wake
            for p, d in zip(self.protos, self.direct)
        ]
        # Whether a live job may sleep; whether one sleeps through slot
        # t; the wake moves counted when the column was last read.
        self.sleepy = max(self.wake, default=-1) >= 0
        self.napping = max(self.wake, default=-1) > t
        self.promises = PROMISES[0]

        # Watchdog limits (see sim/watchdog.py); with no watchdog the
        # per-slot cost is a single ``is None`` guard.
        self.wd = watchdog if watchdog is not None and watchdog.enabled else None
        if self.wd is not None:
            self.wd_deadline = (
                time.perf_counter() + self.wd.max_seconds
                if self.wd.max_seconds is not None
                else None
            )
            self.wd_stall_limit = self.wd.stall_slots(max_window)

    # -- admission and eviction ----------------------------------------------

    def fault_record(self, job: Job) -> Optional[_JobRecord]:
        """The job's fault decisions, drawn from its own ``fault-job``
        stream (``None`` when the plan leaves jobs and clocks alone)."""
        if self.job_fault is None and self.clock_fault is None:
            return None
        return job_fault_record(
            self.job_fault,
            self.clock_fault,
            job,
            self.rngs.fresh("fault-job", job.job_id),
        )

    def admit(self, job: Job, t: int, rec: Optional[_JobRecord] = None) -> None:
        """Activate ``job`` at slot ``t`` under its fault record."""
        proto = self.factory(job, self.rngs.fresh("job", job.job_id))
        if self.tele is not None:
            # Bind before begin(): protocols that construct inner
            # machines in on_begin propagate the sink to them.
            bind = getattr(proto, "bind_telemetry", None)
            if bind is not None:
                bind(self.sink)
            self.tele.events.emit("job.activated", t, job.job_id, window=job.window)
        act_fn, observe_fn = fault_wrappers(job, proto, t, rec)
        direct = (
            rec is None
            and self.checker is None
            and self.corrupt is None
            and _keeps_base(type(proto))
            and not proto.done
        )
        if direct:
            act_fn, observe_fn = proto.on_act, proto.on_observe
        if self.checker is not None:
            self.checker.on_activate(job, proto, t)
        self.ids.append(job.job_id)
        self.jobs.append(job)
        self.protos.append(proto)
        self.act.append(act_fn)
        self.observe.append(observe_fn)
        self.deadline.append(job.deadline)
        self.has_p.append(hasattr(proto, "last_p"))
        self.jammed.append(0)
        self.direct.append(direct)
        wake = -1 if self.hooked or not direct or proto.wake is None else proto.wake
        self.wake.append(wake)
        if wake >= 0:
            self.sleepy = True
            if wake > t:
                self.napping = True

    def evict(self, i: int) -> Tuple[int, int]:
        """Drop live job ``i`` unfinished; returns its
        ``(transmissions, jammed_transmissions)``."""
        spent = (self.protos[i].transmissions, self.jammed[i])
        for column in self.columns:
            del column[i]
        return spent

    # -- the slot step -------------------------------------------------------

    def step(self, t: int, finalize: Finalize) -> Optional[WatchdogTrip]:
        """Simulate slot ``t``, then retire the jobs it ended.

        Retired jobs go to ``finalize``.  Returns the
        :class:`~repro.sim.watchdog.WatchdogTrip` that cancels the run
        (see :meth:`cancel`), :data:`ASLEEP`, or ``None``.
        """
        (
            live_ids, _, live_protos, live_act, live_observe, live_deadline,
            live_has_p, live_jammed, live_wake, live_direct,
        ) = self.columns
        n_live = len(live_protos)
        # Whether a live job sleeps through slot t: then only the awake
        # jobs act, observe and are checked for retirement.
        napping = self.napping
        awake = (
            [i for i, w in enumerate(live_wake) if w <= t]
            if napping
            else range(n_live)
        )

        # 1. collect actions
        tx_idx: List[int] = []
        tx_msg: List[Message] = []
        for i in awake:
            msg = live_act[i](t)
            if msg is not None:
                tx_idx.append(i)
                tx_msg.append(msg)
        for i in tx_idx:
            if live_direct[i]:  # the guarded act() counted its own
                live_protos[i].transmissions += 1

        if self.track_contention:
            # Contention tracking pays for itself only under tracing or
            # telemetry.  The capability check is one-time per protocol,
            # upgraded lazily for wrappers that grow ``last_p`` on their
            # first act().
            contention = 0.0
            have_contention = False
            for i in range(n_live):
                if live_has_p[i]:
                    contention += float(live_protos[i].last_p)  # type: ignore[attr-defined]
                    have_contention = True
                else:
                    p = getattr(live_protos[i], "last_p", None)
                    if p is not None:
                        live_has_p[i] = True
                        contention += float(p)
                        have_contention = True

        # 2. resolve the slot.  Inlined resolve_slot(): silence when
        # nobody transmits, success when exactly one transmits
        # un-jammed, noise otherwise.
        self.slots += 1
        n_tx = len(tx_idx)
        self.attempts += n_tx
        jam_attempt = self.jam_attempt
        jammed = jam_attempt is not None and jam_attempt(
            t, n_tx, tx_msg[0] if n_tx == 1 else None, self.ch_rng
        )
        delivered_now = -1
        if jammed:
            self.jammed_slots += 1
            for i in tx_idx:
                live_jammed[i] += 1
        if n_tx > 1:
            self.collision_slots += 1
        if jammed or n_tx > 1:
            obs_listen = _OBS_NOISE
            obs_tx = _OBS_NOISE_TX
        elif n_tx:
            self.success_slots += 1
            msg0 = tx_msg[0]
            kind = msg0.kind
            if kind == KIND_DATA:
                self.delivered.setdefault(msg0.sender, t)
                delivered_now = msg0.sender
                i = tx_idx[0]
                if live_direct[i] and msg0.sender == live_ids[i]:
                    # What the guarded observe() does for its own delivery.
                    live_protos[i].succeeded = True
            elif kind == KIND_BEACON and msg0.payload is not None:
                self.delivered.setdefault(msg0.payload.sender, t)
                delivered_now = msg0.payload.sender
            obs_listen = Observation(_SUCCESS, msg0, False, False)
            obs_tx = Observation(
                _SUCCESS, msg0, True, msg0.sender == live_ids[tx_idx[0]]
            )
        else:
            self.silence_slots += 1
            obs_listen = obs_tx = _OBS_SILENCE

        # 3. fan the observation out, in live order: the transmitters
        # get ``obs_tx``, everyone else ``obs_listen``.
        corrupt = self.corrupt
        if napping:
            # An awake job's wake is read back after its observation (a
            # withdrawn promise, ``None``, reads as slot 0).
            finished = False
            for i in awake:
                p = live_protos[i]
                live_observe[i](t, obs_tx if i in tx_idx else obs_listen)
                if live_wake[i] >= 0:
                    live_wake[i] = p.wake or 0
                if p.succeeded or p.gave_up:
                    finished = True
        elif corrupt is None:
            if not tx_idx:
                for observe in live_observe:
                    observe(t, obs_listen)
            else:
                prev = 0
                for i in tx_idx:
                    for observe in live_observe[prev:i]:
                        observe(t, obs_listen)
                    live_observe[i](t, obs_tx)
                    prev = i + 1
                for observe in live_observe[prev:]:
                    observe(t, obs_listen)
        else:
            f_rng = self.f_rng
            for i, observe in enumerate(live_observe):
                obs = obs_tx if i in tx_idx else obs_listen
                observe(t, corrupt.corrupt(obs, f_rng))

        if self.hooked:
            if self.checker is not None:
                self.checker.after_slot(
                    t, delivered_now, live_ids, live_protos, tx_idx
                )
            if self.track_contention:
                c = contention if have_contention else float("nan")
            if self.tele is not None:
                self.tele.record_slot(n_tx, jammed, n_live, c)
            if self.recorder is not None or self.observers:
                # SlotOutcome objects are only materialised here.
                outcome = _outcome(t, n_tx, jammed, tx_msg)
                if self.recorder is not None:
                    self.recorder.record(outcome, n_live=n_live, contention=c)
                if self.observers:
                    ids = tuple(live_ids)
                    for cb in self.observers:
                        cb(outcome, ids)

        # 4. retire: a deadline reached, or a protocol that finished
        end = t + 1
        if end >= min(live_deadline):
            self._retire(end, finalize)
        elif napping:
            if finished:
                self._retire(end, finalize)
        else:
            for p in live_protos:
                if p.succeeded or p.gave_up:
                    self._retire(end, finalize)
                    break

        if self.sleepy and (napping or self.promises != PROMISES[0]):
            if not napping:
                # Every job was awake, and a wake has moved since they
                # were last read back: read them all.
                self.promises = PROMISES[0]
                live_wake[:] = [
                    w if w < 0 else p.wake or 0
                    for w, p in zip(live_wake, live_protos)
                ]
            napping = self.napping = bool(live_wake) and max(live_wake) > end
            if napping and self.wd is None and min(live_wake) > end:
                return ASLEEP
        if self.wd is None:
            return None
        return self._watchdog(t, delivered_now)

    def next_wake(self) -> int:
        """The first slot that needs a :meth:`step` when every live job
        sleeps: the earliest wake, or the slot that retires the earliest
        deadline."""
        return min(min(self.wake), min(self.deadline) - 1)

    def skip(self, t: int, stop: int) -> int:
        """Count slots ``t`` to ``stop - 1``, in which every live job
        sleeps, exactly as silent steps count them (the jammer still
        decides each one), and return ``stop``."""
        n = stop - t
        self.slots += n
        jam_attempt = self.jam_attempt
        if jam_attempt is None:
            self.silence_slots += n
            return stop
        rng = self.ch_rng
        jammed = sum(1 for s in range(t, stop) if jam_attempt(s, 0, None, rng))
        self.jammed_slots += jammed
        self.silence_slots += n - jammed
        return stop

    def _retire(self, end: float, finalize: Finalize) -> None:
        """Finalize, in live order, every job that is over by slot
        ``end``, and compact the live set around the survivors."""
        ids, jobs, protos, act, observe, deadline, has_p, jammed, wake, direct = (
            self.columns
        )
        delivered = self.delivered
        done: List[int] = []
        for i, p in enumerate(protos):
            if p.succeeded or p.gave_up or end >= deadline[i]:
                done.append(i)
        for i in done:
            job = jobs[i]
            proto = protos[i]
            comp = delivered.pop(job.job_id, -1)
            if comp >= 0:
                status = JobStatus.SUCCEEDED
            elif proto.gave_up:
                status = JobStatus.GAVE_UP
            else:
                status = JobStatus.FAILED
            if proto.succeeded and status is not JobStatus.SUCCEEDED:
                raise SimulationError(
                    f"job {job.job_id} claims success but no delivery was observed"
                )
            if self.tele is not None:
                self.tele.on_job_end(
                    job, status, comp, proto.transmissions, jammed[i]
                )
            finalize(job, status, comp, proto.transmissions, jammed[i])
        for i in reversed(done):
            del ids[i], jobs[i], protos[i], act[i], observe[i], deadline[i]
            del has_p[i], jammed[i], wake[i], direct[i]

    def _watchdog(self, t: int, delivered_now: int) -> Optional[WatchdogTrip]:
        wd = self.wd
        slots = self.slots
        if delivered_now >= 0:
            self.progress_mark = slots
        if wd.max_slots is not None and slots >= wd.max_slots:
            reason, detail = REASON_SLOTS, f"max_slots={wd.max_slots}"
        elif (
            self.wd_stall_limit is not None
            and self.protos
            and slots - self.progress_mark >= self.wd_stall_limit
        ):
            reason = REASON_STALL
            detail = (
                f"no delivery for {self.wd_stall_limit} slots "
                f"(stall_factor={wd.stall_factor:g})"
            )
        elif (
            self.wd_deadline is not None
            and slots % WALL_CHECK_PERIOD == 0
            and time.perf_counter() > self.wd_deadline
        ):
            reason, detail = REASON_WALL, f"max_seconds={wd.max_seconds:g}"
        else:
            return None
        return WatchdogTrip(reason, t, slots, detail)

    def cancel(self, trip: WatchdogTrip, finalize: Finalize) -> None:
        """Graceful cancellation: jobs still live at the cut become
        failures (exactly the horizon-cut semantics)."""
        self._retire(math.inf, finalize)
        if self.tele is not None:
            self.tele.events.emit(
                trip.event_kind,
                trip.slot,
                -1,
                slots_simulated=trip.slots_simulated,
                detail=trip.detail,
            )


def simulate(
    instance: Instance,
    factory: ProtocolFactory,
    *,
    jammer: Optional[Jammer] = None,
    seed: int = 0,
    trace: bool = False,
    observers: Sequence[SlotObserver] = (),
    horizon: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    invariants: Union[bool, "InvariantChecker"] = False,
    telemetry: Optional["Telemetry"] = None,
    watchdog: Optional[Watchdog] = None,
) -> SimulationResult:
    """Run one complete simulation and return per-job outcomes.

    Parameters
    ----------
    instance:
        The jobs to simulate.
    factory:
        Builds each job's protocol; receives ``(job, rng)`` where ``rng``
        is the job's private stream from :class:`RngFactory`.
    jammer:
        Optional channel adversary.
    seed:
        Root seed; fixes every random stream in the run.
    trace:
        Record a per-slot :class:`TraceRecorder` (sums per-slot contention
        from protocols that expose ``last_p``).
    observers:
        Extra per-slot callbacks (e.g. schedule reconstruction).
    horizon:
        Last slot (exclusive) to simulate; defaults to the instance
        horizon.  Jobs are hard-stopped at their own deadlines regardless.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`.  A plan may carry
        its own jammer, mutually exclusive with ``jammer=``.  A no-op
        plan behaves exactly like ``None``.
    invariants:
        ``True`` to audit the run with a fresh
        :class:`~repro.sim.invariants.InvariantChecker`, or a
        caller-supplied checker instance (inspect it after the run).
        Violations raise :class:`repro.errors.InvariantViolationError`.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` collector.
        When attached, the engine records per-slot channel statistics
        and contention, emits job lifecycle events, binds protocols to
        the event sink (so they emit their own phase events), and times
        the run as a ``simulate`` span.  Never changes results.
    watchdog:
        Optional :class:`~repro.sim.watchdog.Watchdog`.  When one of its
        limits trips, the run is cancelled *gracefully*: live jobs are
        finalized as failed (like a horizon cut), a ``watchdog.*``
        telemetry event is emitted when telemetry is attached, and the
        partial result carries the :class:`~repro.sim.watchdog.WatchdogTrip`
        in :attr:`~repro.sim.metrics.SimulationResult.watchdog`.  Nothing
        is raised.  Absent (or with no limits set) the hot loop pays one
        ``is None`` guard per slot and results are bit-identical.  While
        one is attached the run steps every slot, even one every live
        job sleeps through, so a trip lands where it would without
        sleeping jobs.

    Returns
    -------
    SimulationResult
    """
    plan, jammer = resolve_adversary(faults, jammer)
    core = SlotCore(RngFactory(seed), jammer, plan)

    # Activation order: by_release, stably re-sorted by the activation
    # slot when faults release jobs late (ties keep by_release order).
    jobs = instance.by_release
    records = [core.fault_record(job) for job in jobs]
    pending = sorted(
        (job.release if rec is None else rec.activation, i, job, rec)
        for i, (job, rec) in enumerate(zip(jobs, records))
    )
    n_total = len(pending)
    end = instance.horizon if horizon is None else min(horizon, instance.horizon)

    recorder = TraceRecorder() if trace else None
    core.attach(
        factory,
        invariants=invariants,
        telemetry=telemetry,
        recorder=recorder,
        observers=observers,
        watchdog=watchdog,
        max_window=max((j.window for j in jobs), default=1),
    )
    if telemetry is not None:
        telemetry.on_run_start(
            seed=seed,
            n_jobs=n_total,
            horizon=end,
            jammer=None if core.jam_attempt is None else core.jam,
            faults=plan,
        )

    outcomes: Dict[int, JobOutcome] = {}

    def finalize(job: Job, status: JobStatus, comp: int, tx: int, jammed: int) -> None:
        outcomes[job.job_id] = JobOutcome(job, status, comp, tx, jammed)

    live = core.protos  # compacted in place, never rebound
    step = core.step
    next_job = 0
    t = pending[0][0] if pending else 0
    trip: Optional[WatchdogTrip] = None
    while t < end or live:
        while next_job < n_total and pending[next_job][0] == t:
            if not next_job % PREPARE_BLOCK:
                # Derive the job streams of the next block of admissions.
                block = pending[next_job : next_job + PREPARE_BLOCK]
                core.rngs.prepare("job", [e[2].job_id for e in block])
            _, _, job, rec = pending[next_job]
            core.admit(job, t, rec)
            core.progress_mark = core.slots  # activation counts as progress
            next_job += 1
        if next_job < n_total and not live:
            # jump over idle gaps between batches
            t = pending[next_job][0]
            continue
        trip = step(t, finalize)
        t += 1
        if trip is not None:
            if trip is not ASLEEP:
                break
            # Every live job sleeps: jump to the next wake, retirement
            # or admission.
            trip = None
            stop = core.next_wake()
            if next_job < n_total:
                stop = min(stop, pending[next_job][0])
            t = core.skip(t, stop)
        elif next_job >= n_total and not live:
            break

    if trip is not None:
        # The result is partial: live jobs fail as at a horizon cut.
        core.cancel(trip, finalize)

    # Jobs never activated (horizon cut): mark failed with zero attempts.
    for job in jobs:
        if job.job_id not in outcomes:
            outcomes[job.job_id] = JobOutcome(job, JobStatus.FAILED, -1, 0)

    result = SimulationResult(
        instance=instance,
        outcomes=tuple(outcomes[j.job_id] for j in jobs),
        slots_simulated=core.slots,
        trace=recorder,
        watchdog=trip,
        channel_attempts=core.attempts,
    )
    if telemetry is not None:
        telemetry.on_run_end(unstarted=n_total - next_job)
    return result
