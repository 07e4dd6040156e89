"""The batch broadcast ("back-on") protocol of Section 3 ("Broadcast").

Given the class ℓ and the (power-of-two) estimate ``n_ℓ``, the broadcast
stage is a fixed schedule of phases:

* for ``i = 0 .. log₂(n_ℓ) − 1``, phase *i* has length ``λ·n_ℓ/2^i``;
* the final ℓ phases each have length ``λℓ``.

Each phase of length ``λX`` is split into λ **subphases** of length X.
During a subphase, every still-live job picks one uniformly random slot of
the subphase and transmits its data message there; a success terminates
the job.  The halving phases thin the population geometrically, and the
flat ``λℓ`` tail converts the final stragglers' failure probability to
``1/w^Θ(λ)`` (Lemma 13).

Total broadcast length is ``λ(2n_ℓ − 2 + ℓ²)``, so estimation + broadcast
is ``2λ(ℓ² + n_ℓ − 1)`` active steps — Lemma 6, verified exactly by tests
and by experiment E5.

The :class:`BroadcastSchedule` is pure arithmetic shared by the stepwise
protocols and the vectorized fast path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List

from repro.errors import InvalidParameterError
from repro.sim.job import is_power_of_two

__all__ = ["broadcast_length", "total_active_steps", "BroadcastSchedule", "SubphasePosition"]


def broadcast_length(level: int, estimate: int, lam: int) -> int:
    """Total steps of the broadcast stage: ``λ(2n − 2 + ℓ²)``; 0 if n = 0."""
    if estimate == 0:
        return 0
    if estimate < 2 or not is_power_of_two(estimate):
        raise InvalidParameterError(
            f"estimate must be 0 or a power of two >= 2, got {estimate}"
        )
    return lam * (2 * estimate - 2 + level * level)


def total_active_steps(level: int, estimate: int, lam: int) -> int:
    """Lemma 6: estimation plus broadcast, ``2λ(ℓ² + n_ℓ − 1)`` steps.

    For an empty class (estimate 0) only the estimation's ``λℓ²`` steps
    are consumed.
    """
    est = lam * level * level
    if estimate == 0:
        return est
    return est + broadcast_length(level, estimate, lam)


@dataclass(frozen=True, slots=True)
class SubphasePosition:
    """Where one broadcast step falls in the phase/subphase structure.

    Attributes
    ----------
    phase:
        0-indexed phase number.
    subphase:
        0-indexed subphase within the phase (``0 .. λ-1``).
    length:
        The subphase length X (jobs draw a slot uniformly from ``[0, X)``).
    offset:
        This step's position within the subphase (``0 .. X-1``).
    """

    phase: int
    subphase: int
    length: int
    offset: int

    @property
    def subphase_start(self) -> bool:
        """True on the first step of a subphase (when jobs draw their slot)."""
        return self.offset == 0


class BroadcastSchedule:
    """The deterministic phase/subphase structure for one class run.

    Parameters
    ----------
    level:
        Job class ℓ.
    estimate:
        The (power-of-two, >= 2) estimate ``n_ℓ``; 0 yields an empty
        schedule.
    lam:
        The λ parameter.
    """

    def __init__(self, level: int, estimate: int, lam: int) -> None:
        if level < 0:
            raise InvalidParameterError(f"level must be >= 0, got {level}")
        if lam < 1:
            raise InvalidParameterError(f"lam must be >= 1, got {lam}")
        self.level = level
        self.estimate = estimate
        self.lam = lam
        self.subphase_lengths: List[int] = []
        if estimate:
            if estimate < 2 or not is_power_of_two(estimate):
                raise InvalidParameterError(
                    f"estimate must be 0 or a power of two >= 2, got {estimate}"
                )
            x = estimate
            while x >= 2:  # halving phases: X = n, n/2, ..., 2
                self.subphase_lengths.append(x)
                x //= 2
            self.subphase_lengths.extend([level] * level if level else [])
        # cumulative *step* boundaries: each entry above spans lam*X steps,
        # as X-length subphases repeated lam times.
        self._phase_starts: List[int] = [0]
        for x in self.subphase_lengths:
            self._phase_starts.append(self._phase_starts[-1] + lam * x)

    @classmethod
    def trivial(cls) -> "BroadcastSchedule":
        """A one-step schedule (single subphase of length 1).

        Used for the degenerate class ℓ = 0, whose window has a single
        slot: the only possible protocol is "transmit now".
        """
        sched = cls.__new__(cls)
        sched.level = 0
        sched.estimate = 0
        sched.lam = 1
        sched.subphase_lengths = [1]
        sched._phase_starts = [0, 1]
        return sched

    @property
    def n_phases(self) -> int:
        return len(self.subphase_lengths)

    @property
    def total_steps(self) -> int:
        """Total broadcast steps; equals :func:`broadcast_length`."""
        return self._phase_starts[-1]

    def position(self, step: int) -> SubphasePosition:
        """Locate broadcast step ``step`` (0-indexed) in the structure."""
        if not 0 <= step < self.total_steps:
            raise InvalidParameterError(
                f"step {step} outside broadcast of length {self.total_steps}"
            )
        phase = bisect_right(self._phase_starts, step) - 1
        within = step - self._phase_starts[phase]
        x = self.subphase_lengths[phase]
        return SubphasePosition(
            phase=phase,
            subphase=within // x,
            length=x,
            offset=within % x,
        )

    def phase_length(self, phase: int) -> int:
        """Length in steps of 0-indexed phase ``phase`` (``λ·X``)."""
        return self.lam * self.subphase_lengths[phase]
