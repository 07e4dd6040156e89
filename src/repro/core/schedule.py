"""Pecking-order scheduling of active steps (Section 3).

At any slot exactly one job class is **active**; all live jobs agree on
which (Lemma 7).  The agreement is achieved with no communication beyond
the channel itself:

* window boundaries are implicit synchronization points — at any slot
  that is a multiple of ``2^ℓ``, class ℓ's previous run is over
  (truncated if incomplete) and a fresh run begins;
* every live job simulates every class smaller than its own by counting
  that class's active steps and watching the channel during its
  estimation, so it learns the class's estimate and hence exactly how
  many more active steps the class needs (Lemma 6);
* the active class at any slot is simply the smallest class whose
  current run is unfinished.

:class:`ClassRun` tracks one class's current run (estimation tally, then
broadcast schedule).  :class:`PeckingOrderView` tracks a contiguous range
of classes and answers "who is active now?".  Each job owns a private
view; because a view is a deterministic function of (slot index, channel
feedback) and all live jobs see the same feedback, all views agree — the
property test for Lemma 7 checks exactly this.

A job of class ℓ released at ``r`` needs no pre-``r`` history: ``r`` is a
multiple of ``2^ℓ`` and hence of every smaller class's size, so *all*
classes ≤ ℓ start fresh runs at ``r``.  Larger classes never pre-empt
smaller ones, so the job need not track them at all.

The active class can change only where a run does: at a multiple of
``2^min_level`` (the smallest critical time, where some class resets) or
when the active run completes.  A view keeps the active class as a value
and re-derives it only there, and a run keeps its next step's estimation
phase and broadcast position as values, advanced step by step; every
other slot costs the view its order guards and one mask test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.core.broadcast import BroadcastSchedule, SubphasePosition, total_active_steps
from repro.core.estimation import EstimationTally
from repro.errors import InvalidParameterError, ProtocolViolationError
from repro.params import AlignedParams

__all__ = ["StepKind", "EstimationStep", "BroadcastStep", "ClassRun", "PeckingOrderView"]


class StepKind(enum.Enum):
    """What kind of active step a class is about to take."""

    ESTIMATION = "estimation"
    BROADCAST = "broadcast"


@dataclass(frozen=True, slots=True)
class EstimationStep:
    """An upcoming estimation step: transmit a ping w.p. ``1/2^phase``."""

    kind: StepKind
    phase: int  # 1-indexed


@dataclass(frozen=True, slots=True)
class BroadcastStep:
    """An upcoming broadcast step at a given subphase position."""

    kind: StepKind
    position: SubphasePosition


Step = Union[EstimationStep, BroadcastStep]


class ClassRun:
    """The state of one class's current (estimation + broadcast) run.

    Level 0 is special-cased as a single broadcast step of length 1
    (window size 1 leaves no room for coordination; a lone job just
    transmits).  Feasible instances with γ < 1 never contain class-0
    jobs, but the run must still be well-defined for schedule accounting.

    :attr:`estimation_steps` is fixed at construction,
    :attr:`total_steps` (the run's active steps; ``None`` until the
    estimate is known) once the estimate resolves, and :attr:`done`
    (``steps_taken`` has reached ``total_steps``) by each
    :meth:`advance`, so the per-slot queries re-derive none of them.

    The next step is kept as values too, so the protocols read it
    without building a :class:`EstimationStep` or :class:`BroadcastStep`:
    :attr:`phase` is its 1-indexed estimation phase (0 once estimation is
    over), and :attr:`sub_len` and :attr:`sub_off` are its broadcast
    subphase's length and its offset in it.  :meth:`next_step` derives
    the same from the tally and the schedule.
    """

    def __init__(self, level: int, params: AlignedParams) -> None:
        if level < 0:
            raise InvalidParameterError(f"level must be >= 0, got {level}")
        self.level = level
        self.params = params
        self.steps_taken = 0
        self.tally: Optional[EstimationTally] = (
            EstimationTally(level, params.lam) if level > 0 else None
        )
        self.estimation_steps = 0 if level == 0 else self.tally.total_steps
        self.estimate: Optional[int] = None
        self.schedule: Optional[BroadcastSchedule] = None
        self.total_steps: Optional[int] = None
        if level == 0:
            self.estimate = 0
            self.schedule = BroadcastSchedule.trivial()
            self.total_steps = 1
        self.done = False
        self._fix_cursor()

    def _fix_cursor(self) -> None:
        """Set the next step's values from ``steps_taken``.

        Called where they cannot be advanced step by step: at
        construction and when the estimate resolves.
        """
        step = self.steps_taken
        self.phase = 0
        self.sub_len = self.sub_off = self._bphase = self._bsub = 0
        if self.done:
            return
        if step < self.estimation_steps:
            self.phase = step // (self.params.lam * self.level) + 1
        elif self.schedule is not None:
            pos = self.schedule.position(step - self.estimation_steps)
            self._bphase, self._bsub = pos.phase, pos.subphase
            self.sub_len, self.sub_off = pos.length, pos.offset

    def next_step(self) -> Step:
        """Describe the step the class takes in its next active slot."""
        if self.done:
            raise ProtocolViolationError(
                f"class {self.level} run is complete; no next step"
            )
        if self.level > 0 and self.steps_taken < self.estimation_steps:
            assert self.tally is not None
            return EstimationStep(StepKind.ESTIMATION, self.tally.current_phase())
        assert self.schedule is not None
        bstep = self.steps_taken - self.estimation_steps
        return BroadcastStep(StepKind.BROADCAST, self.schedule.position(bstep))

    def advance(self, success: bool) -> None:
        """Consume one active step, feeding the slot's outcome.

        ``success`` is whether the slot carried a successful transmission
        (anyone's) — the only channel information estimation needs.
        """
        if self.done:
            raise ProtocolViolationError(
                f"advance() on completed class-{self.level} run"
            )
        steps = self.steps_taken = self.steps_taken + 1
        phase = self.phase
        if phase:
            # What EstimationTally.record does, from the run's own count.
            tally = self.tally
            if success:
                tally.counts[phase - 1] += 1
            tally.steps_seen = steps
            if steps < self.estimation_steps:
                self.phase = steps // (self.params.lam * self.level) + 1
                return
            self.estimate = tally.estimate(self.params.tau)
            self.total_steps = total_active_steps(
                self.level, self.estimate, self.params.lam
            )
            if self.estimate:
                self.schedule = BroadcastSchedule(
                    self.level, self.estimate, self.params.lam
                )
            else:
                self.done = True
            self._fix_cursor()
            return
        if steps >= self.total_steps:
            self.done = True
            return
        # Move the broadcast cursor to the next step.
        off = self.sub_off + 1
        if off == self.sub_len:
            off = 0
            sub = self._bsub + 1
            if sub == self.schedule.lam:
                sub = 0
                self._bphase += 1
                self.sub_len = self.schedule.subphase_lengths[self._bphase]
            self._bsub = sub
        self.sub_off = off


class PeckingOrderView:
    """One job's deterministic view of which class is active per slot.

    Parameters
    ----------
    params:
        ALIGNED parameters (λ, τ, ``min_level``).
    max_level:
        The owning job's class; classes ``min_level .. max_level`` are
        tracked.
    origin:
        The slot at which tracking starts (the job's release).  Must be a
        multiple of ``2^max_level``; all tracked classes reset here.

    Usage per slot ``t`` (consecutive from ``origin``)::

        active = view.on_slot_start(t)   # None, or the active level
        ... channel resolution ...
        view.on_slot_end(t, success)
    """

    def __init__(self, params: AlignedParams, max_level: int, origin: int) -> None:
        if max_level < params.min_level:
            raise InvalidParameterError(
                f"job class {max_level} below schedule min_level "
                f"{params.min_level}"
            )
        if origin % (1 << max_level) != 0:
            raise InvalidParameterError(
                f"origin {origin} not aligned to 2^{max_level}"
            )
        self.params = params
        self.min_level = params.min_level
        self.max_level = max_level
        self.origin = origin
        self.runs: Dict[int, ClassRun] = {
            lv: ClassRun(lv, params) for lv in range(self.min_level, max_level + 1)
        }
        # Slots where a class resets: multiples of 2^min_level.
        self._mask = (1 << self.min_level) - 1
        self._expected_slot = origin
        self._active: Optional[int] = None
        self._run: Optional[ClassRun] = None  # the active level's run
        self._phase = "start"  # alternates start -> end

    def _rescan(self) -> None:
        """Make the smallest tracked class with an unfinished run active."""
        for lv in range(self.min_level, self.max_level + 1):
            run = self.runs[lv]
            if not run.done:
                self._active, self._run = lv, run
                return
        self._active = self._run = None

    def on_slot_start(self, t: int) -> Optional[int]:
        """Handle boundaries, then return the active level (or None).

        None means every tracked class's run is complete — the slot
        belongs to some larger class, which this job need not model.
        """
        if self._phase != "start" or t != self._expected_slot:
            raise ProtocolViolationError(
                f"on_slot_start({t}) out of order "
                f"(expected slot {self._expected_slot}, phase {self._phase})"
            )
        if not t & self._mask:
            # The classes whose size 2^lv divides t start fresh runs:
            # those up to t's number of trailing zero bits (every class
            # at t = 0).
            top = (t & -t).bit_length() - 1 if t else self.max_level
            for lv in range(self.min_level, min(top, self.max_level) + 1):
                self.runs[lv] = ClassRun(lv, self.params)
            self._rescan()
        self._phase = "end"
        return self._active

    def on_slot_end(self, t: int, success: bool) -> None:
        """Feed the slot's outcome; advances the active class's run."""
        if self._phase != "end" or t != self._expected_slot:
            raise ProtocolViolationError(
                f"on_slot_end({t}) out of order "
                f"(expected slot {self._expected_slot}, phase {self._phase})"
            )
        run = self._run
        if run is not None:
            run.advance(success)
            if run.done:
                self._rescan()
        self._expected_slot = t + 1
        self._phase = "start"

    # -- introspection -----------------------------------------------------

    @property
    def active_level(self) -> Optional[int]:
        """The level :meth:`on_slot_start` chose for the current slot.

        Once :meth:`on_slot_end` completes that level's run, the level
        the next slot gets unless a class resets there.
        """
        return self._active

    def run_of(self, level: int) -> ClassRun:
        return self.runs[level]

    def snapshot(self) -> Tuple[Tuple[int, int, Optional[int], bool], ...]:
        """A hashable digest of all runs (level, steps, estimate, done).

        Used by the Lemma 7 agreement tests to compare views across jobs.
        """
        return tuple(
            (
                lv,
                self.runs[lv].steps_taken,
                self.runs[lv].estimate,
                self.runs[lv].done,
            )
            for lv in range(self.min_level, self.max_level + 1)
        )
