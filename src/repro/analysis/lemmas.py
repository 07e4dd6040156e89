"""Executable checks for the paper's lemmas against simulation output.

Each ``check_lemmaN`` takes measured data (simulation results, traces,
or estimator samples) and returns a :class:`LemmaCheck` stating whether
the measured behaviour is consistent with the lemma at the configured
constants.  The benchmark suite asserts shapes inline; this module packs
the same logic into reusable, individually-testable verdicts so
integration tests and notebooks can write
``assert check_lemma8(...).holds``.

These are statistical consistency checks, not proofs: each documents
its tolerance and what "holds" means concretely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.bounds import lemma2_lower, lemma2_upper
from repro.analysis.stats import wilson_interval

__all__ = [
    "LemmaCheck",
    "check_lemma2",
    "check_lemma4",
    "check_lemma5",
    "check_lemma8",
    "check_theorem14",
]


@dataclass(frozen=True, slots=True)
class LemmaCheck:
    """The verdict of one lemma check."""

    lemma: str
    holds: bool
    detail: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mark = "✓" if self.holds else "✗"
        return f"{mark} {self.lemma}: {self.detail}"


def check_lemma2(
    contentions: Sequence[float],
    success_rates: Sequence[float],
    *,
    slack: float = 0.02,
) -> LemmaCheck:
    """``C/e^{2C} <= p_suc <= 2C/e^C`` for every (C, rate) pair.

    ``slack`` absorbs Monte-Carlo noise.  Valid only when the underlying
    per-player probabilities were <= 1/2 (the caller's responsibility,
    as in the paper).
    """
    bad = []
    for c, r in zip(contentions, success_rates):
        lo = float(lemma2_lower(c)) - slack
        hi = float(lemma2_upper(c)) + slack
        if not lo <= r <= hi:
            bad.append((c, r))
    return LemmaCheck(
        "Lemma 2",
        not bad,
        "all points inside the envelope"
        if not bad
        else f"{len(bad)} points escape, first at C={bad[0][0]:.3g}",
    )


def check_lemma4(
    n_jobs: int,
    n_succeeded: int,
    *,
    min_fraction: float = 0.5,
) -> LemmaCheck:
    """A constant fraction of all messages succeeded.

    The paper's constant is unspecified; we require ``min_fraction``
    (default 1/2, far above what the proof needs and comfortably met by
    UNIFORM at γ < 1/6 empirically — see E1).
    """
    frac = n_succeeded / n_jobs if n_jobs else 1.0
    return LemmaCheck(
        "Lemma 4",
        frac >= min_fraction,
        f"delivered fraction {frac:.3f} (threshold {min_fraction})",
    )


def check_lemma5(
    ns: Sequence[int],
    head_success_rates: Sequence[float],
    *,
    min_exponent: float = 0.25,
) -> LemmaCheck:
    """The urgent jobs' success decays polynomially in n.

    Fits ``rate ≈ a·n^{-b}`` and requires ``b >= min_exponent`` — the
    "O(1/n^Θ(1))" of the lemma with an explicit measurable exponent.
    """
    if len(ns) < 2:
        return LemmaCheck("Lemma 5", False, "need at least two points")
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.maximum(np.asarray(head_success_rates, dtype=float), 1e-6))
    slope = float(np.polyfit(x, y, 1)[0])
    return LemmaCheck(
        "Lemma 5",
        -slope >= min_exponent,
        f"head success ~ n^{slope:.2f} (need exponent <= -{min_exponent})",
    )


def check_lemma8(
    estimates: Sequence[int],
    n_hat: int,
    tau: int,
    *,
    min_in_band: float = 0.9,
) -> LemmaCheck:
    """Estimates land in ``[2n̂, τ²n̂]`` at least ``min_in_band`` often.

    For n̂ = 0 the lemma degenerates: every estimate must be 0.
    """
    est = np.asarray(estimates)
    if n_hat == 0:
        ok = bool(np.all(est == 0))
        return LemmaCheck(
            "Lemma 8", ok, "empty class ⇒ all estimates 0" if ok else
            "nonzero estimate for an empty class"
        )
    frac = float(np.mean((est >= 2 * n_hat) & (est <= tau * tau * n_hat)))
    return LemmaCheck(
        "Lemma 8",
        frac >= min_in_band,
        f"in-band fraction {frac:.3f} (threshold {min_in_band})",
    )


def check_theorem14(
    successes: int,
    trials: int,
    window: int,
    *,
    max_failure_scale: float = 2.0,
    exponent: float = 0.5,
) -> LemmaCheck:
    """Per-job failure consistent with ``<= c/w^b``.

    Uses the Wilson upper bound on the failure rate, so a clean sample
    of moderate size can still certify a small-failure claim.  Defaults
    demand failure ≤ 2/√w — far weaker than the theorem but strong
    enough to catch any real regression.
    """
    fails = trials - successes
    _, fail_hi = wilson_interval(fails, trials)
    bound = max_failure_scale / (window**exponent)
    return LemmaCheck(
        "Theorem 14",
        fail_hi <= bound,
        f"failure upper CI {fail_hi:.4f} vs bound {bound:.4f} "
        f"(w={window})",
    )
