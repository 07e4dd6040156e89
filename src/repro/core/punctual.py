"""PUNCTUAL — contention resolution with deadlines, general windows (Section 4).

The master per-job state machine of Figure 2:

* **SYNCING** — establish the round structure (``repro.core.rounds``).
* **WAIT_TK** — listen in one timekeeper slot: a leader whose deadline is
  at least mine ⇒ FOLLOW; otherwise SLINGSHOT.
* **SLINGSHOT (pullback)** — for ``λ·log^m(w)`` slots, transmit
  "I am the leader with deadline d" in each election slot with
  probability ``1/(w·log^k w)``; follow anyone (claimant or beacon) whose
  deadline is at least mine; my own successful claim makes me leader.
* **RECHECK_TK** — after the pullback, check the timekeeper once more: a
  leader with deadline ≥ d/2 ⇒ halve my deadline and FOLLOW; otherwise
  **ANARCHIST**: transmit my data in each anarchy slot with probability
  ``λ·log(w)/w`` for the rest of my window.
* **FOLLOW** — learn the global (virtual, round-indexed) time from the
  beacons, trim my remaining window to the largest aligned virtual
  window, and run ALIGNED (``repro.core.aligned.AlignedMachine``) in the
  aligned slots.
* **LEADER / HANDOVER** — beacon every timekeeper slot; abdicate with my
  data payload in the last timekeeper slot of my window; if deposed by a
  later-deadline claimant, hand over with my payload in the next
  timekeeper slot.

Every live synchronized job also broadcasts start messages in both START
slots of every round (round-keeping), and every job but an anarchist
passively feeds the :class:`~repro.core.leader.LeaderTracker`, whatever
its stage (ANARCHIST is final, and nothing reads the tracker there: an
anarchist sleeps between its anarchy and START slots).

Deviations / resolutions of underspecified points are listed in
DESIGN.md §3; the notable ones: deadlines travel as *remaining rounds*;
a silent timekeeper slot means "no leader"; followers whose trimmed
virtual window is too small for the embedded ALIGNED schedule fall back
to the anarchist stage (the paper's regime of large ``w₀`` makes this
vacuous asymptotically, but a simulation must decide).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

import numpy as np

from repro.channel.feedback import Feedback, Observation
from repro.channel.messages import (
    DataMessage,
    LeaderClaim,
    Message,
    StartMessage,
    TimekeeperBeacon,
)
from repro.core.aligned import AlignedMachine
from repro.core.leader import LeaderTracker
from repro.core.rounds import (
    ROLE_OF_INDEX,
    ROUND_LENGTH,
    RoundSynchronizer,
    SlotRole,
)
from repro.core.trimming import trimmed_window
from repro.params import PunctualParams
from repro.sim.job import Job, window_class
from repro.sim.protocolbase import Protocol, ProtocolContext

__all__ = ["Stage", "PunctualProtocol", "punctual_factory"]


class Stage(enum.Enum):
    """PUNCTUAL's per-job stages."""

    SYNCING = "syncing"
    WAIT_TK = "wait_tk"
    SLINGSHOT = "slingshot"
    RECHECK_TK = "recheck_tk"
    FOLLOW = "follow"
    ANARCHIST = "anarchist"
    LEADER_PENDING = "leader_pending"
    LEADER = "leader"
    HANDOVER = "handover"
    FINISHED = "finished"


# What the per-slot hooks compare against.  Before CPython 3.12, an enum
# member lookup (``Stage.FOLLOW``) goes through the enum metaclass and
# costs several plain loads; the hooks would make up to ten a job-slot.
_START, _GUARD, _TIMEKEEPER, _ALIGNED, _ELECTION, _ANARCHY = (
    SlotRole.START, SlotRole.GUARD, SlotRole.TIMEKEEPER, SlotRole.ALIGNED,
    SlotRole.ELECTION, SlotRole.ANARCHIST,
)
_WAIT_TK, _RECHECK_TK, _SLINGSHOT, _FOLLOW, _ANARCHIST, _FINISHED = (
    Stage.WAIT_TK, Stage.RECHECK_TK, Stage.SLINGSHOT, Stage.FOLLOW,
    Stage.ANARCHIST, Stage.FINISHED,
)
_LEADER_PENDING, _LEADER, _HANDOVER = (
    Stage.LEADER_PENDING, Stage.LEADER, Stage.HANDOVER,
)
_LEADING = (_LEADER, _LEADER_PENDING)

#: Slots from a slot of each round index to the anarchist's next one of
#: indices 9, 0 and 1 (its anarchy and START slots).
_ANARCHY_GAP = (1, 8, 7, 6, 5, 4, 3, 2, 1, 1)


def _floor_pow2(x: int) -> int:
    """Largest power of two <= x (x >= 1)."""
    return 1 << (x.bit_length() - 1)


class PunctualProtocol(Protocol):
    """One job's PUNCTUAL state machine."""

    def __init__(self, ctx: ProtocolContext, params: PunctualParams) -> None:
        super().__init__(ctx)
        self.params = params
        self.sync = RoundSynchronizer(ctx.job_id)
        self._origin: Optional[int] = None  # the sync's origin, once synced
        self.tracker = LeaderTracker()
        self.stage = Stage.SYNCING
        self.eff_window = _floor_pow2(ctx.window)
        self.eff_end: int = -1  # set at begin
        self.pullback_left = 0
        self.machine: Optional[AlignedMachine] = None
        self.trim: Optional[Tuple[int, int]] = None  # virtual [start, end)
        self._machine_offset: Optional[int] = None  # vtime offset at build
        self._machine_stepped = False
        self._machine_v = -1
        self._pending_skip = 0  # timekeeper slots to let pass before leading
        self._my_offset: Optional[int] = None  # my announced vtime offset
        self.last_p = 0.0
        # Frozen, so one serves every START slot.
        self._start_msg = StartMessage(ctx.job_id)
        # The claim and release probabilities, fixed at SLINGSHOT and
        # ANARCHIST entry from the effective window then in force.
        self._pullback_p = self._anarchy_p = 0.0
        # An anarchist sleeps between its anarchy and START slots.
        self.wake = 0

    def _fix_probabilities(self) -> None:
        window = self.eff_window
        self._pullback_p = self.params.pullback_probability(window)
        self._anarchy_p = self.params.anarchist_probability(window)

    # ------------------------------------------------------------------ utils
    #
    # Once synced, each hook derives slot t's local round r and role from
    # the cached origin, once, and hands r to the helpers below.

    def _remaining_rounds(self, t: int) -> int:
        """Complete rounds left inside my effective window."""
        return max(0, (self.eff_end - t) // ROUND_LENGTH)

    def _my_deadline_round(self, t: int, r: int) -> int:
        return r + self._remaining_rounds(t)

    def _vnow(self, r: int) -> Optional[int]:
        off = self.tracker.vtime_offset
        if off is None:
            return None
        return r + off

    # ------------------------------------------------------------------ act

    def on_begin(self, slot: int) -> None:
        self.eff_end = slot + self.eff_window

    def on_act(self, slot: int) -> Optional[Message]:
        self.last_p = 0.0
        self._machine_stepped = False
        if slot >= self.eff_end:
            # effective (rounded-down) deadline reached: stop interacting.
            self.gave_up = True
            return None
        if self._origin is None:
            return self.sync.maybe_transmit(slot)
        r, index = divmod(slot - self._origin, ROUND_LENGTH)
        role = ROLE_OF_INDEX[index]
        if role is _START:
            return self._start_msg
        if role is _GUARD:
            return None
        if role is _TIMEKEEPER:
            return self._act_timekeeper(slot, r)
        if role is _ALIGNED:
            return self._act_aligned(r)
        if role is _ELECTION:
            return self._act_election(slot)
        if role is _ANARCHY:
            return self._act_anarchist(slot)
        return None

    def _act_timekeeper(self, t: int, r: int) -> Optional[Message]:
        stage = self.stage
        if stage is _LEADER_PENDING:
            if self._pending_skip > 0:
                self._pending_skip -= 1
                return None
            stage = self.stage = Stage.LEADER
            if self._my_offset is None:
                inherited = self.tracker.vtime_offset
                self._my_offset = inherited if inherited is not None else 0
        if stage is _LEADER:
            assert self._my_offset is not None
            vtime = r + self._my_offset
            remaining = self._remaining_rounds(t)
            last = t + ROUND_LENGTH >= self.eff_end
            if last:
                self.stage = Stage.FINISHED  # resolved in observe
                self.emit("punctual.leader_abdicated", t)
                return TimekeeperBeacon(
                    self.ctx.job_id,
                    global_time=vtime,
                    deadline=0,
                    abdicating=True,
                    payload=DataMessage(self.ctx.job_id),
                )
            return TimekeeperBeacon(
                self.ctx.job_id,
                global_time=vtime,
                deadline=remaining,
                abdicating=False,
            )
        if stage is _HANDOVER:
            off = self._my_offset if self._my_offset is not None else 0
            self.stage = Stage.FINISHED  # resolved in observe
            self.emit("punctual.leader_handover", t)
            return TimekeeperBeacon(
                self.ctx.job_id,
                global_time=r + off,
                deadline=self._remaining_rounds(t),
                abdicating=True,
                payload=DataMessage(self.ctx.job_id),
            )
        return None

    def _act_aligned(self, r: int) -> Optional[Message]:
        if self.stage is not _FOLLOW or self.machine is None:
            return None
        v = self._vnow(r)
        if v is None or self.trim is None:
            return None
        lo, hi = self.trim
        if not lo <= v < hi or self.machine.finished:
            return None
        msg = self.machine.act(v)
        self.last_p = self.machine.last_p
        self._machine_stepped = True
        self._machine_v = v
        return msg

    def _act_election(self, t: int) -> Optional[Message]:
        if self.stage is not _SLINGSHOT:
            return None
        p = self.last_p = self._pullback_p
        if self.ctx.rng.random() < p:
            return LeaderClaim(self.ctx.job_id, deadline=self._remaining_rounds(t))
        return None

    def _act_anarchist(self, t: int) -> Optional[Message]:
        if self.stage is not _ANARCHIST or self.succeeded:
            return None
        p = self.last_p = self._anarchy_p
        if self.ctx.rng.random() < p:
            return DataMessage(self.ctx.job_id)
        return None

    # ------------------------------------------------------------------ observe

    def on_observe(self, slot: int, obs: Observation) -> None:
        if slot >= self.eff_end:
            return
        if self._origin is None:
            self.sync.observe(slot, obs)
            if self.sync.synced:
                self._origin = self.sync.origin
                self.stage = Stage.WAIT_TK
                self.emit("punctual.synced", slot)
            return

        r, index = divmod(slot - self._origin, ROUND_LENGTH)
        stage = self.stage
        if stage is _ANARCHIST:
            # It only transmits, in its anarchy and START slots, and no
            # later stage reads its tracker.
            wake = slot + _ANARCHY_GAP[index]
            self.sleep_until(wake if wake < self.eff_end else self.eff_end)
            return
        role = ROLE_OF_INDEX[index]
        if role is _TIMEKEEPER or role is _ELECTION:
            self.tracker.observe(r, role, obs)  # it ignores other roles

        # leader payload delivery (beacons are not DataMessages, so the
        # base class's success detection does not cover them)
        if (
            obs.own_success
            and isinstance(obs.message, TimekeeperBeacon)
            and obs.message.payload is not None
        ):
            self.succeeded = True

        if stage is _WAIT_TK and role is _TIMEKEEPER:
            self._decide_after_timekeeper(slot, r, halving=False)
            return
        if stage is _RECHECK_TK and role is _TIMEKEEPER:
            self._decide_after_timekeeper(slot, r, halving=True)
            return
        if stage is _SLINGSHOT:
            self._observe_slingshot(slot, r, obs)
            return
        if stage is _FOLLOW:
            self._observe_follow(slot, r, role, obs)
            return
        if stage in _LEADING:
            self._observe_leader(slot, r, role, obs)
            return
        if stage is _FINISHED:
            if not self.succeeded:
                self.gave_up = True
            return

    # -- stage handlers ------------------------------------------------------

    def _decide_after_timekeeper(self, t: int, r: int, *, halving: bool) -> None:
        """WAIT_TK / RECHECK_TK resolution at a timekeeper slot."""
        lv = self.tracker.current(r)
        if not halving:
            if lv is not None and lv.deadline_round >= self._my_deadline_round(t, r):
                self._enter_follow(t, r)
            else:
                self._enter_slingshot(t)
            return
        # RECHECK: accept a leader covering at least half my deadline.
        start = self.eff_end - self.eff_window
        half_end = start + self.eff_window // 2
        half_rounds = max(0, (half_end - t) // ROUND_LENGTH)
        if (
            lv is not None
            and half_end > t
            and lv.deadline_round >= r + half_rounds
        ):
            self.eff_window //= 2
            self.eff_end = half_end
            self._enter_follow(t, r)
        else:
            self._enter_anarchist(t)

    def _enter_slingshot(self, t: int) -> None:
        self.stage = Stage.SLINGSHOT
        self.pullback_left = self.params.pullback_duration(self.eff_window)
        self._fix_probabilities()
        self.emit("punctual.slingshot_entered", t)

    def _enter_anarchist(self, t: int) -> None:
        self.stage = Stage.ANARCHIST
        self._fix_probabilities()
        wake = t + _ANARCHY_GAP[(t - self._origin) % ROUND_LENGTH]
        self.sleep_until(wake if wake < self.eff_end else self.eff_end)
        self.emit("punctual.anarchist_release", t)

    def _enter_follow(self, t: int, r: int) -> None:
        """Adopt the leader; trim and build the embedded ALIGNED machine.

        If the global time is not yet known (leader adopted from a claim,
        no beacon heard), the machine is built lazily on the first beacon.
        """
        self.stage = Stage.FOLLOW
        self.machine = None
        self.trim = None
        self._machine_offset = None
        self.emit("punctual.follow_entered", t)
        self._try_build_machine(t, r)

    def _try_build_machine(self, t: int, r: int) -> None:
        v = self._vnow(r)
        if v is None:
            return
        rounds_left = self._remaining_rounds(t)
        v_lo, v_hi = v + 1, v + rounds_left
        if v_hi - v_lo < 2:
            self._enter_anarchist(t)
            return
        s, e = trimmed_window(v_lo, v_hi)
        level = window_class(e - s)
        if level < self.params.aligned.min_level:
            # trimmed window too small for the embedded schedule — the
            # paper's large-w₀ regime excludes this; simulate via anarchy.
            self._enter_anarchist(t)
            return
        self.machine = AlignedMachine(
            self.ctx.job_id, level, self.params.aligned, self.ctx.rng
        )
        if self._events is not None:
            self.machine.events = self._events
        self.machine.begin(s)
        self.trim = (s, e)
        self._machine_offset = self.tracker.vtime_offset

    def _observe_slingshot(self, t: int, r: int, obs: Observation) -> None:
        self.pullback_left -= 1
        if (
            obs.own_success
            and isinstance(obs.message, LeaderClaim)
            and obs.message.sender == self.ctx.job_id
        ):
            # I won the election.  If I deposed a beaconing incumbent, the
            # next timekeeper slot carries its handover beacon; skip it.
            # (The tracker already adopted *me* on my own claim, so detect
            # a real incumbent by whether beacons were ever heard: beacons
            # are the only source of the vtime offset.)
            self._pending_skip = 1 if self.tracker.vtime_offset is not None else 0
            self.stage = Stage.LEADER_PENDING
            self.emit(
                "punctual.leader_elected", t,
                deadline_round=self._my_deadline_round(t, r),
            )
            return
        lv = self.tracker.current(r)
        if lv is not None and lv.deadline_round >= self._my_deadline_round(t, r):
            self._enter_follow(t, r)
            return
        if self.pullback_left <= 0:
            self.stage = Stage.RECHECK_TK

    def _observe_follow(
        self, t: int, r: int, role: SlotRole, obs: Observation
    ) -> None:
        # 1. complete the machine's act/observe pair for this slot first
        if self._machine_stepped and self.machine is not None:
            self.machine.observe(self._machine_v, obs)
            if self.machine.gave_up:
                self.gave_up = True
            return
        # 2. (re)build: lazily once the vtime is known, or on an origin
        #    change (a new leader announcing a new clock forces a re-trim)
        if self.machine is None:
            self._try_build_machine(t, r)
        elif (
            self.tracker.vtime_offset is not None
            and self._machine_offset is not None
            and self.tracker.vtime_offset != self._machine_offset
        ):
            self._try_build_machine(t, r)
        if self.stage is not _FOLLOW:
            return  # _try_build_machine may have demoted us to ANARCHIST
        # 3. leader lost (silent timekeeper / expiry): re-run arrival logic
        if role is _TIMEKEEPER and self.tracker.current(r) is None:
            self.machine = None
            self.trim = None
            self.stage = Stage.WAIT_TK
            self.emit("punctual.leader_lost", t)
            return
        # 4. trimmed window expired without completion: truncation
        if self.machine is not None and self.trim is not None:
            v = self._vnow(r)
            if v is not None and v >= self.trim[1] and not self.machine.finished:
                self.gave_up = True
                self.emit("punctual.truncation", t, v_hi=self.trim[1])

    def _observe_leader(
        self, t: int, r: int, role: SlotRole, obs: Observation
    ) -> None:
        # A later-deadline claimant deposes me.
        if (
            role is SlotRole.ELECTION
            and obs.feedback is Feedback.SUCCESS
            and isinstance(obs.message, LeaderClaim)
            and obs.message.sender != self.ctx.job_id
        ):
            claim_deadline = r + obs.message.deadline
            if claim_deadline > self._my_deadline_round(t, r):
                self.emit(
                    "punctual.leader_deposed", t, by=obs.message.sender
                )
                if self.stage is Stage.LEADER:
                    self.stage = Stage.HANDOVER
                else:
                    # deposed before ever beaconing: nothing to hand over —
                    # just follow the stronger leader like anyone else.
                    self._enter_follow(t, r)


def punctual_factory(params: PunctualParams):
    """A :data:`~repro.sim.engine.ProtocolFactory` running PUNCTUAL."""

    def make(job: Job, rng: np.random.Generator) -> PunctualProtocol:
        return PunctualProtocol(ProtocolContext.for_job(job, rng), params)

    # Fastpath marker (repro.fastpath.batched.plan_fastpath): function
    # attributes are not part of stable_digest's callable encoding, so
    # attaching them leaves every existing cache key untouched.
    make.fastpath_kind = "punctual"
    make.fastpath_params = params
    return make
