"""Tunable protocol parameters with paper-faithful and laptop-scale presets.

The paper states its guarantees "for all λ, there exists a sufficiently
small γ" and never optimizes constants; several exponents (the ``log³``
pullback probability, the ``log⁷`` slingshot duration) are astronomically
conservative.  Running the literal constants at a scale where the
asymptotics bite is not possible on any real machine, so every constant is
a field here, with two presets:

* ``paper()`` — the literal constants from the text (λ as stated, τ = 64
  per the proof of Lemma 8, exponents 3 and 7 in SLINGSHOT), for
  documentation and small smoke tests;
* ``simulation()`` — scaled-down constants that preserve the *shape* of
  every guarantee at laptop scale (the experiments in EXPERIMENTS.md
  record which preset they used).

All probability expressions are capped at 1/2 before use, matching the
standing assumption of Lemma 2 ("no job ever sends in a slot with
probability greater than 1/2").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import InvalidParameterError
from repro.sim.instance import Instance
from repro.sim.job import is_power_of_two

__all__ = ["AlignedParams", "PunctualParams", "UniformParams", "cap_probability"]


def cap_probability(p: float) -> float:
    """Clamp a transmit probability into ``[0, 1/2]`` (Lemma 2's regime)."""
    return min(max(p, 0.0), 0.5)


@dataclass(frozen=True, slots=True)
class UniformParams:
    """Parameters of UNIFORM (Section 2).

    Attributes
    ----------
    attempts:
        How many random slots of its window each job transmits in — the
        paper's "once (or Θ(1) times)".
    """

    attempts: int = 1

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise InvalidParameterError(
                f"attempts must be >= 1, got {self.attempts}"
            )


@dataclass(frozen=True, slots=True)
class AlignedParams:
    """Parameters of ALIGNED (Section 3).

    Attributes
    ----------
    lam:
        The paper's λ: estimation uses ``λℓ²`` steps (ℓ phases of λℓ),
        broadcast phases have length ``λX`` split into λ subphases, and
        the failure probability is ``1/w^Θ(λ)``.
    tau:
        The paper's τ: the size estimate is ``τ · 2^j`` for the winning
        phase ``j``.  Must be a power of two ≥ 2 so the estimate is a
        power of two (the broadcast schedule requires it); the proof of
        Lemma 8 fixes τ = 64.
    min_level:
        Smallest job class the pecking order reserves active steps for.
        The paper derives it from slack: γ-slack feasibility forces every
        window to be at least ``w₀ ≥ 1/γ`` slots, so classes below
        ``log₂(1/γ)`` cannot exist and the schedule need not (and must
        not, or small classes' estimations would consume everything)
        reserve steps for them.
    """

    lam: int = 1
    tau: int = 4
    min_level: int = 6

    def __post_init__(self) -> None:
        if self.lam < 1:
            raise InvalidParameterError(f"lam must be >= 1, got {self.lam}")
        if self.tau < 2 or not is_power_of_two(self.tau):
            raise InvalidParameterError(
                f"tau must be a power of two >= 2, got {self.tau}"
            )
        if self.min_level < 0:
            raise InvalidParameterError(
                f"min_level must be >= 0, got {self.min_level}"
            )

    @staticmethod
    def paper(lam: int = 8) -> "AlignedParams":
        """The literal constants of Section 3 (τ = 64).

        Note the implied scale: with λ = 8 the pecking-order overhead
        (``λℓ²`` estimation slots per window per level, empty or not)
        only fits when windows have ≥ 2^17 or so slots — the "for
        sufficiently small γ" of Lemma 12 in concrete form.  Use
        :meth:`schedule_overhead` to check a configuration.
        """
        return AlignedParams(lam=lam, tau=64, min_level=2)

    @staticmethod
    def simulation(lam: int = 1, tau: int = 4, min_level: int = 8) -> "AlignedParams":
        """Laptop-scale constants preserving the guarantee shapes."""
        return AlignedParams(lam=lam, tau=tau, min_level=min_level)

    def schedule_overhead(self, level: int) -> float:
        """Worst-case fraction of a class-``level`` window eaten by overhead.

        Counts the deterministic estimation cost of every (possibly
        empty) class from ``min_level`` up through ``level`` nested in one
        window of size ``2^level``:

            λ · Σ_{ℓ'=min_level}^{level} (2^level / 2^ℓ') ℓ'² / 2^level
              = λ · Σ ℓ'²/2^ℓ'

        If this is ≥ 1 the schedule cannot fit even with zero jobs — the
        concrete meaning of Lemma 12's requirement that γ be small (i.e.
        ``min_level`` large).  Values ≲ 0.5 leave comfortable room for
        broadcast stages.
        """
        return self.lam * sum(
            (l * l) / float(1 << l) for l in range(self.min_level, level + 1)
        )

    def for_instance(self, instance: Instance) -> "AlignedParams":
        """This parameter set with ``min_level`` matched to an instance.

        Sets ``min_level`` to the smallest job class present, the tightest
        legal value (corresponding to the largest γ the instance allows).
        """
        instance.require_aligned()
        if len(instance) == 0:
            return self
        lowest = min(j.job_class for j in instance.jobs)
        return replace(self, min_level=lowest)

    def max_gamma(self) -> float:
        """The largest slack γ consistent with ``min_level`` (w₀ ≥ 1/γ)."""
        return 1.0 / float(1 << self.min_level)


@dataclass(frozen=True, slots=True)
class PunctualParams:
    """Parameters of PUNCTUAL (Section 4, Figure 2).

    Attributes
    ----------
    aligned:
        Parameters of the embedded ALIGNED protocol (runs on the aligned
        slots, in round-indexed virtual time).
    lam:
        The paper's λ in SLINGSHOT: pullback lasts ``λ·log(w)^slingshot_exp``
        slots and anarchists transmit with probability
        ``λ·log(w)/w`` per anarchy slot.
    pullback_exp:
        Exponent of the pullback probability denominator:
        ``1 / (w · log(w)^pullback_exp)``; the paper uses 3.
    slingshot_exp:
        Exponent of the pullback duration: ``λ · log(w)^slingshot_exp``
        slots; the paper uses 7.
    """

    aligned: AlignedParams = AlignedParams()
    lam: int = 2
    pullback_exp: int = 1
    slingshot_exp: int = 2
    slot_scale: int = 10

    def __post_init__(self) -> None:
        if self.lam < 1:
            raise InvalidParameterError(f"lam must be >= 1, got {self.lam}")
        if self.pullback_exp < 0 or self.slingshot_exp < 0:
            raise InvalidParameterError("exponents must be >= 0")
        if self.slot_scale < 1:
            raise InvalidParameterError(
                f"slot_scale must be >= 1, got {self.slot_scale}"
            )

    @staticmethod
    def paper(lam: int = 8) -> "PunctualParams":
        """The literal constants of Section 4 (log³ pullback, log⁷ duration)."""
        return PunctualParams(
            aligned=AlignedParams.paper(lam=lam),
            lam=lam,
            pullback_exp=3,
            slingshot_exp=7,
        )

    @staticmethod
    def simulation(lam: int = 2) -> "PunctualParams":
        """Laptop-scale constants (log¹ pullback, log² duration)."""
        return PunctualParams(
            aligned=AlignedParams.simulation(),
            lam=lam,
            pullback_exp=1,
            slingshot_exp=2,
        )

    # -- derived quantities (shared by protocol and analysis code) ----------

    def pullback_probability(self, window: int) -> float:
        """Per-election-slot claim probability, capped at 1/2.

        The paper states ``1/(w·log^k w)`` *per slot*, but only one slot
        in ``slot_scale`` (= the round length) is an election slot, so we
        scale by ``slot_scale`` to preserve the per-window attempt budget
        the analysis counts on.
        """
        lg = max(1.0, math.log2(max(window, 2)))
        return cap_probability(
            self.slot_scale / (window * lg**self.pullback_exp)
        )

    def pullback_duration(self, window: int) -> int:
        """Length of the pullback stage in slots, ``λ·log^m w``."""
        lg = max(1.0, math.log2(max(window, 2)))
        return max(1, int(math.ceil(self.lam * lg**self.slingshot_exp)))

    def anarchist_probability(self, window: int) -> float:
        """Per-anarchy-slot release probability, capped at 1/2.

        ``λ·log(w)/w`` per slot in the paper, scaled by ``slot_scale``
        because only one slot per round is an anarchy slot (see
        :meth:`pullback_probability`).
        """
        lg = max(1.0, math.log2(max(window, 2)))
        return cap_probability(self.lam * self.slot_scale * lg / window)
