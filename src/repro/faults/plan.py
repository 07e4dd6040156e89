"""Composable fault plans: everything that can go wrong, in one object.

The paper's headline results are robustness claims — ALIGNED survives a
stochastic adversary with ``p_jam <= 1/2`` (Theorem 14) and PUNCTUAL
assumes no global clock — so the simulator needs to *perturb* more than
it needs to idealize.  A :class:`FaultPlan` bundles up to four
orthogonal fault families and rides into :func:`repro.sim.engine.simulate`
as a single optional argument:

* a channel adversary (any :class:`~repro.channel.jamming.Jammer`,
  including the budget-bounded families);
* :class:`FeedbackFault` — per-listener corruption of the trinary
  feedback (SILENCE↔NOISE flips, success erasure) with asymmetric rates;
* :class:`ClockFault` — per-job clock skew and drift, stressing
  PUNCTUAL's no-global-clock assumption and ALIGNED's reliance on a
  shared slot index;
* :class:`JobFault` — workload perturbations: late release (a job
  activates after its window opened) and crash-before-deadline (a job
  silently stops mid-window).

All fault randomness draws from dedicated :class:`~repro.sim.rng.RngFactory`
streams (``"fault-feedback"`` per run, ``"fault-job"`` per job), so
attaching a plan never perturbs protocol or jammer randomness — paired
comparisons of the same seed with and without faults share every other
stream.  Ground truth is never faulted: the engine still decides
delivery from real channel outcomes; faults only change what protocols
*perceive* and when jobs run.

Plans are frozen dataclasses, so they pickle (multi-process sweeps ship
them to workers) and content-digest stably
(:func:`repro.cache.run_key` folds them into cache keys — a faulted run
can never collide with a clean one).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from repro.channel.feedback import Feedback, Observation
from repro.channel.jamming import Jammer
from repro.errors import InvalidInstanceError, InvalidParameterError
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol

__all__ = ["ClockFault", "FaultPlan", "FeedbackFault", "JobFault"]


def _check_prob(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise InvalidParameterError(f"{name} must be in [0, 1], got {value}")
    return float(value)


@dataclass(frozen=True)
class FeedbackFault:
    """Per-listener corruption of the trinary channel feedback.

    Each live job's observation of each slot is corrupted independently
    (listeners disagree — exactly the failure the paper's common-feedback
    assumption rules out).  Rates are asymmetric:

    Attributes
    ----------
    p_silence_to_noise:
        A silent slot is perceived as noise (phantom interference).
    p_noise_to_silence:
        A collided/jammed slot is perceived as silence (deaf receiver) —
        the dual of collision detection loss in
        :mod:`repro.channel.masking`, but stochastic per listener.
    p_success_erasure:
        A successful broadcast is perceived as noise and its message
        content lost to that listener.
    affect_transmitters:
        If True, the successful *transmitter's* own observation may also
        be erased — it then never learns it succeeded and keeps
        contending (ground-truth delivery is unaffected).  Off by
        default because it voids the model's acknowledgement guarantee.
    """

    p_silence_to_noise: float = 0.0
    p_noise_to_silence: float = 0.0
    p_success_erasure: float = 0.0
    affect_transmitters: bool = False

    def __post_init__(self) -> None:
        _check_prob("p_silence_to_noise", self.p_silence_to_noise)
        _check_prob("p_noise_to_silence", self.p_noise_to_silence)
        _check_prob("p_success_erasure", self.p_success_erasure)

    @property
    def is_noop(self) -> bool:
        return (
            self.p_silence_to_noise == 0.0
            and self.p_noise_to_silence == 0.0
            and self.p_success_erasure == 0.0
        )

    def corrupt(
        self, obs: Observation, rng: np.random.Generator
    ) -> Observation:
        """One listener's (possibly corrupted) view of ``obs``.

        Draws from ``rng`` only when the relevant rate is positive, so a
        zero-rate fault consumes no randomness.
        """
        fb = obs.feedback
        if fb is Feedback.SILENCE:
            p = self.p_silence_to_noise
            if p > 0.0 and rng.random() < p:
                return Observation.noise(obs.transmitted)
        elif fb is Feedback.NOISE:
            p = self.p_noise_to_silence
            if p > 0.0 and rng.random() < p:
                return Observation.silence(obs.transmitted)
        else:  # SUCCESS
            if obs.own_success and not self.affect_transmitters:
                return obs
            p = self.p_success_erasure
            if p > 0.0 and rng.random() < p:
                return Observation.noise(obs.transmitted)
        return obs


@dataclass(frozen=True)
class ClockFault:
    """Per-job clock skew and drift.

    Each job draws ``skew_j`` uniform in ``[-max_skew, max_skew]`` and
    ``drift_j`` uniform in ``[-drift, drift]``, fixed for the run.  Its
    protocol always experiences a *contiguous* local timeline (protocols
    are strict state machines); the mismatch with engine time is
    absorbed at the channel boundary.  A fast clock (``skew_j > 0`` /
    ``drift_j > 0``) lives through phantom slots that never reach the
    real channel — transmissions there are wasted — and hits its local
    deadline early, giving up with window slack unused.  A slow clock
    joins the channel late and occasionally stalls (a real slot passes
    without a local tick), and the engine's hard deadline cuts it off
    while its local clock still shows time remaining.  PUNCTUAL is
    *designed* for this setting (no global clock — only local ages
    matter), while ALIGNED leans on the shared slot index of the aligned
    model, so clock faults degrade them very differently; that asymmetry
    is the point of the fault.
    """

    max_skew: int = 0
    drift: float = 0.0

    def __post_init__(self) -> None:
        if self.max_skew < 0:
            raise InvalidParameterError(
                f"max_skew must be >= 0, got {self.max_skew}"
            )
        if not 0.0 <= self.drift < 1.0:
            raise InvalidParameterError(
                f"drift must be in [0, 1), got {self.drift}"
            )

    @property
    def is_noop(self) -> bool:
        return self.max_skew == 0 and self.drift == 0.0


@dataclass(frozen=True)
class JobFault:
    """Workload perturbations applied per job.

    Attributes
    ----------
    p_late:
        Probability a job is released late: activation is delayed by a
        uniform ``1..max_delay`` slots (capped so at least one window
        slot remains).  The deadline does not move — lateness eats slack.
    max_delay:
        Largest possible release delay, in slots.
    p_crash:
        Probability a job crashes strictly before its deadline: at a
        uniform slot in the remainder of its window it silently stops
        transmitting and ignores all further feedback.  A crashed job
        finalizes as ``GAVE_UP`` unless it was already delivered.
    """

    p_late: float = 0.0
    max_delay: int = 0
    p_crash: float = 0.0

    def __post_init__(self) -> None:
        _check_prob("p_late", self.p_late)
        _check_prob("p_crash", self.p_crash)
        if self.max_delay < 0:
            raise InvalidParameterError(
                f"max_delay must be >= 0, got {self.max_delay}"
            )
        if self.p_late > 0.0 and self.max_delay == 0:
            raise InvalidParameterError(
                "p_late > 0 requires max_delay >= 1"
            )

    @property
    def is_noop(self) -> bool:
        return self.p_late == 0.0 and self.p_crash == 0.0


@dataclass(frozen=True)
class _JobRecord:
    """Per-job fault decisions, fixed before the run starts.

    ``activation`` is the engine slot at which the job's protocol is
    constructed; ``begin`` is the *local* slot the protocol perceives at
    that moment (a slow clock has ``begin < activation``).  ``skew_ff``
    counts phantom slots a fast clock has already lived through at
    activation, and ``drift`` is the local clock's rate error.
    ``crash_slot`` (engine time, ``-1`` = never) silences the job.
    """

    activation: int
    begin: int
    skew_ff: int
    drift: float
    crash_slot: int


def job_fault_record(
    jf: Optional[JobFault],
    cf: Optional[ClockFault],
    job: Job,
    rng: np.random.Generator,
) -> Optional[_JobRecord]:
    """Draw one job's fault decisions from its dedicated stream.

    The single source of the per-job draw order, used through
    :meth:`repro.sim.engine.SlotCore.fault_record` by the closed engine
    (every record up front) and the streaming engine (lazily at
    arrival).  The stream is keyed on the job id, so the decisions are
    identical either way — which is what keeps faulted streaming runs
    bit-identical to their closed-instance replays.

    Returns ``None`` for a job the plan leaves untouched.
    """
    begin = job.release
    if jf is not None and jf.p_late > 0.0:
        if rng.random() < jf.p_late:
            delay = int(rng.integers(1, jf.max_delay + 1))
            begin = min(job.release + delay, job.deadline - 1)
    activation = begin
    skew_ff = 0
    drift = 0.0
    if cf is not None:
        skew = 0
        if cf.max_skew > 0:
            skew = int(rng.integers(-cf.max_skew, cf.max_skew + 1))
        if cf.drift > 0.0:
            drift = float(rng.uniform(-cf.drift, cf.drift))
        if skew > 0:
            # Fast clock: the protocol already "lived" skew slots
            # before the window truly opened.
            skew_ff = skew
        elif skew < 0:
            # Slow clock: the job joins late but its local clock
            # still reads the release slot.
            activation = min(activation - skew, job.deadline - 1)
    crash_slot = -1
    if jf is not None and jf.p_crash > 0.0:
        if rng.random() < jf.p_crash and activation + 1 < job.deadline:
            crash_slot = int(rng.integers(activation + 1, job.deadline))
    if (
        activation != job.release
        or begin != activation
        or skew_ff
        or drift
        or crash_slot >= 0
    ):
        return _JobRecord(activation, begin, skew_ff, drift, crash_slot)
    return None


class _ClockDriver:
    """Reconcile engine time with a job's faulty local clock.

    Protocols are strict state machines that require a *contiguous*
    local slot sequence (ALIGNED's schedule view rejects any jump), so
    a faulty clock cannot be modeled by translating slot labels.
    Instead the driver keeps the protocol's timeline contiguous and
    absorbs the mismatch at the channel boundary:

    * **Fast clock** (positive skew, positive drift): the protocol
      lives through *phantom* slots that do not exist on the real
      channel — any transmission there is wasted (it hears its own
      noise; pure listening hears silence).  When its local clock
      reaches the deadline early it stops and gives up, believing its
      window is over.
    * **Slow clock** (negative skew, negative drift): the job joins the
      channel late (activation was shifted in :class:`_JobRecord`) and
      occasionally *stalls* — a real slot passes without the protocol
      ticking, so it neither transmits nor hears that slot, and the
      engine's hard deadline cuts it off while its local clock still
      shows time remaining.

    A plain class rather than a closure pair so live faulted jobs can
    be pickled into streaming checkpoints mid-flight.
    """

    __slots__ = (
        "proto",
        "inner_act",
        "inner_observe",
        "t0",
        "base",
        "drift",
        "deadline",
        "next_local",
        "awaiting",
        "stopped",
    )

    def __init__(
        self,
        job: Job,
        proto: Protocol,
        inner_act: Callable[[int], object],
        inner_observe: Callable[[int, Observation], None],
        rec: _JobRecord,
    ) -> None:
        self.proto = proto
        self.inner_act = inner_act
        self.inner_observe = inner_observe
        self.t0 = rec.activation
        self.base = rec.begin + rec.skew_ff
        self.drift = rec.drift
        self.deadline = job.deadline
        self.next_local = rec.begin  # local slot of the next tick
        self.awaiting = -1  # local slot awaiting an observation
        self.stopped = False  # local clock reached the deadline

    def act(self, t: int):
        if self.stopped:
            return None
        proto = self.proto
        target = self.base + (t - self.t0)
        if self.drift:
            target += int(self.drift * (t - self.t0))
        nxt = self.next_local
        if target < nxt:
            # Slow clock stalls: no local tick this engine slot.
            self.awaiting = -1
            return None
        limit = target if target < self.deadline else self.deadline
        while nxt < limit and not proto.done:
            # Phantom slots off the real channel.
            m = self.inner_act(nxt)
            self.inner_observe(
                nxt,
                Observation.noise(True)
                if m is not None
                else Observation.silence(False),
            )
            nxt += 1
        if proto.done or target >= self.deadline:
            # Local deadline reached early, or the protocol retired
            # itself during a phantom slot; stop driving it (the
            # engine retires it at the end of this slot).
            self.next_local = nxt
            self.awaiting = -1
            self.stopped = True
            if not proto.succeeded:
                proto.gave_up = True
            return None
        msg = self.inner_act(target)
        self.next_local = target + 1
        self.awaiting = target
        return msg

    def observe(self, t: int, obs: Observation) -> None:
        if self.stopped or self.awaiting < 0:
            return
        self.inner_observe(self.awaiting, obs)
        self.awaiting = -1


class _CrashGuard:
    """Silence a job from its crash slot onward (picklable wrapper)."""

    __slots__ = ("proto", "crash_at", "inner_act", "inner_observe", "crashed")

    def __init__(
        self,
        proto: Protocol,
        crash_at: int,
        inner_act: Callable[[int], object],
        inner_observe: Callable[[int, Observation], None],
    ) -> None:
        self.proto = proto
        self.crash_at = crash_at
        self.inner_act = inner_act
        self.inner_observe = inner_observe
        self.crashed = False

    def act(self, t: int):
        if self.crashed:
            return None
        if t >= self.crash_at:
            self.crashed = True
            self.proto.gave_up = True
            return None
        return self.inner_act(t)

    def observe(self, t: int, obs: Observation) -> None:
        if not self.crashed:
            self.inner_observe(t, obs)


def _noop_act(t: int):
    return None


def _noop_observe(t: int, obs: Observation) -> None:
    return None


def fault_wrappers(
    job: Job, proto: Protocol, t: int, rec: Optional[_JobRecord]
) -> Tuple[Callable[[int], object], Callable[[int, Observation], None]]:
    """Begin ``proto`` at engine slot ``t`` under ``rec`` and return
    ``(act, observe)``.

    Jobs with no per-job faults (``rec is None``) get the raw bound
    methods back — zero wrapper overhead.  Shared by the closed and
    streaming engines so both drive faulted jobs identically.
    """
    if rec is None:
        proto.begin(t)
        return proto.act, proto.observe
    try:
        proto.begin(rec.begin)
    except InvalidInstanceError:
        # The protocol's model rejects the fault-shifted start slot
        # (e.g. ALIGNED cannot join its pecking order mid-window
        # after a late release).  The job fails instead of the run.
        proto.gave_up = True
        return _noop_act, _noop_observe
    act = proto.act
    observe = proto.observe
    if rec.skew_ff or rec.drift or rec.begin != rec.activation:
        driver = _ClockDriver(job, proto, act, observe, rec)
        act, observe = driver.act, driver.observe
    if rec.crash_slot >= 0:
        guard = _CrashGuard(proto, rec.crash_slot, act, observe)
        act, observe = guard.act, guard.observe
    return act, observe


@dataclass(frozen=True)
class FaultPlan:
    """A composable bundle of channel, feedback, clock, and job faults.

    Any subset of the four fields may be set; unset families cost
    nothing.  The engine treats a no-op plan (all fields ``None`` or
    individually no-op) exactly like ``faults=None``, so the clean fast
    path — and its cache keys — are preserved.

    A plan's :attr:`jammer` is mutually exclusive with the ``jammer=``
    argument of :func:`~repro.sim.engine.simulate`; passing both raises,
    because silently composing two adversaries would make severity
    sweeps unreadable.
    """

    jammer: Optional[Jammer] = None
    feedback: Optional[FeedbackFault] = None
    clock: Optional[ClockFault] = None
    jobs: Optional[JobFault] = None

    @property
    def is_noop(self) -> bool:
        """True when attaching this plan cannot change any run."""
        return (
            self.jammer is None
            and (self.feedback is None or self.feedback.is_noop)
            and (self.clock is None or self.clock.is_noop)
            and (self.jobs is None or self.jobs.is_noop)
        )

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """Combine two plans; a family set in both is a conflict."""
        updates = {}
        for field in ("jammer", "feedback", "clock", "jobs"):
            mine = getattr(self, field)
            theirs = getattr(other, field)
            if mine is not None and theirs is not None:
                raise InvalidParameterError(
                    f"cannot merge fault plans: both set {field!r}"
                )
            if theirs is not None:
                updates[field] = theirs
        return replace(self, **updates)

    def reset(self) -> None:
        """Restore any per-run jammer state (see :meth:`Jammer.reset`)."""
        if self.jammer is not None:
            self.jammer.reset()

    def describe(self) -> str:
        """A compact one-line summary for tables and logs."""
        parts = []
        if self.jammer is not None:
            parts.append(repr(self.jammer))
        if self.feedback is not None and not self.feedback.is_noop:
            parts.append(
                "feedback(s→n=%g, n→s=%g, erase=%g)"
                % (
                    self.feedback.p_silence_to_noise,
                    self.feedback.p_noise_to_silence,
                    self.feedback.p_success_erasure,
                )
            )
        if self.clock is not None and not self.clock.is_noop:
            parts.append(
                "clock(skew<=%d, drift<=%g)"
                % (self.clock.max_skew, self.clock.drift)
            )
        if self.jobs is not None and not self.jobs.is_noop:
            parts.append(
                "jobs(late=%g<=%d, crash=%g)"
                % (self.jobs.p_late, self.jobs.max_delay, self.jobs.p_crash)
            )
        return " + ".join(parts) if parts else "no faults"
