"""The size-estimation protocol of Section 3 ("Size-estimation protocol").

For job class ℓ the protocol uses ``T_ℓ = λℓ²`` active steps, divided into
ℓ phases of λℓ steps.  During each step of the *i*-th phase (1-indexed),
every job in the class transmits a control message with probability
``1/2^i``; everyone counts successful transmissions per phase.  When all
phases are complete, the winning phase ``j`` (most successes; ties broken
toward the smallest index for determinism) yields the estimate
``n_ℓ = τ · 2^j`` — biased upward by τ so it is an over-estimate whp
(Lemma 8: ``2n̂ ≤ n_ℓ ≤ τ²n̂`` with probability ``1 − 1/w^Θ(λ)``).

Deterministic resolution rules the paper leaves implicit:

* If *no* phase recorded a success, the estimate resolves to **0**,
  signalling an (almost surely) empty class, and the broadcast stage is
  skipped.  This is what lets empty aligned windows cost only their λℓ²
  estimation steps in the pecking-order schedule (the ``Σℓ²`` term of
  Lemma 12).
* Estimates are capped at the window size ``2^ℓ`` ("any estimate is at
  most w̄" — used in Lemma 11); the cap keeps the estimate a power of two.
* A truncated estimation resolves to 0 (stated explicitly in the paper).

This module is pure bookkeeping — it holds no randomness.  The per-job
transmit decision (flip a ``1/2^i`` coin) lives with the protocols; the
tally lives here so the stepwise engine and the vectorized fast path share
one implementation of the estimate rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import InvalidParameterError, ProtocolViolationError

__all__ = [
    "estimation_length",
    "phase_of_step",
    "phase_probability",
    "resolve_estimate",
    "EstimationTally",
]


def estimation_length(level: int, lam: int) -> int:
    """Total active steps of the estimation protocol: ``T_ℓ = λℓ²``."""
    if level < 0:
        raise InvalidParameterError(f"level must be >= 0, got {level}")
    return lam * level * level


def phase_of_step(level: int, lam: int, step: int) -> int:
    """The 1-indexed phase containing active step ``step`` (0-indexed).

    Phases ``1..ℓ`` each span ``λℓ`` steps.
    """
    total = estimation_length(level, lam)
    if not 0 <= step < total:
        raise InvalidParameterError(
            f"step {step} outside estimation of length {total}"
        )
    return step // (lam * level) + 1


def phase_probability(phase: int) -> float:
    """Per-slot transmit probability in phase ``i``: ``1/2^i``."""
    if phase < 1:
        raise InvalidParameterError(f"phase must be >= 1, got {phase}")
    return 1.0 / (1 << phase)


def resolve_estimate(successes: List[int], tau: int, level: int) -> int:
    """Turn per-phase success counts into the estimate ``n_ℓ``.

    Parameters
    ----------
    successes:
        One count per phase (length ℓ; empty for ℓ = 0).
    tau:
        The over-estimation factor (power of two).
    level:
        The job class; the estimate is capped at ``2^level``.

    Returns
    -------
    int
        ``min(τ·2^j, 2^ℓ)`` for the winning phase ``j``, or 0 when every
        phase is silent.
    """
    if len(successes) != level:
        raise InvalidParameterError(
            f"expected {level} phase counts, got {len(successes)}"
        )
    if not successes or max(successes) == 0:
        return 0
    best = max(successes)
    j = successes.index(best) + 1  # smallest phase index among maxima
    return min(tau * (1 << j), 1 << level)


@dataclass
class EstimationTally:
    """Running success counts for one class's estimation run.

    Every live job keeps one (identical) tally per tracked class; it is
    advanced once per active estimation step with the slot's feedback.
    :attr:`total_steps` (``T_ℓ``) is fixed at construction.  A
    :class:`~repro.core.schedule.ClassRun` advances its tally's
    :attr:`counts` and :attr:`steps_seen` itself, as :meth:`record`
    does, from the run's own step count.
    """

    level: int
    lam: int
    counts: List[int] = field(default_factory=list)
    steps_seen: int = 0
    total_steps: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * self.level
        self.total_steps = estimation_length(self.level, self.lam)

    @property
    def complete(self) -> bool:
        return self.steps_seen >= self.total_steps

    def current_phase(self) -> int:
        """The 1-indexed phase of the *next* step to be taken."""
        if self.complete:
            raise ProtocolViolationError("estimation already complete")
        return phase_of_step(self.level, self.lam, self.steps_seen)

    def record(self, success: bool) -> None:
        """Advance one active step with the slot's outcome."""
        if self.complete:
            raise ProtocolViolationError("record() after estimation completed")
        phase = self.current_phase()
        if success:
            self.counts[phase - 1] += 1
        self.steps_seen += 1

    def estimate(self, tau: int) -> int:
        """The resolved estimate; only valid once complete."""
        if not self.complete:
            raise ProtocolViolationError("estimate() before completion")
        return resolve_estimate(self.counts, tau, self.level)
