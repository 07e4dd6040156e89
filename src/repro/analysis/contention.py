"""Contention analyses over simulation traces (Section 2.1).

Ties the recorded per-slot contention ``C(t)`` (from protocols that
report their transmit probabilities) to the observed channel outcomes,
and provides the Monte-Carlo machinery for experiment E3: estimate
``p_suc`` as a function of ``C`` and compare against Lemma 2's envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.analysis.bounds import lemma2_lower, lemma2_upper
from repro.sim.trace import TraceRecorder

__all__ = [
    "ContentionBucket",
    "bucket_trace_by_contention",
    "simulate_success_probability",
    "lemma2_envelope_check",
]


@dataclass(frozen=True, slots=True)
class ContentionBucket:
    """Aggregated slots whose contention falls in one bin."""

    c_low: float
    c_high: float
    n_slots: int
    n_successes: int

    @property
    def c_mid(self) -> float:
        return 0.5 * (self.c_low + self.c_high)

    @property
    def success_rate(self) -> float:
        return self.n_successes / self.n_slots if self.n_slots else float("nan")


def bucket_trace_by_contention(
    trace: TraceRecorder, edges: Sequence[float]
) -> List[ContentionBucket]:
    """Group a trace's slots into contention bins and count successes.

    Slots with unreported (nan) contention are skipped.
    """
    cs = trace.contentions()
    codes = trace.feedback_codes()
    ok = ~np.isnan(cs)
    cs, codes = cs[ok], codes[ok]
    out: List[ContentionBucket] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (cs >= lo) & (cs < hi)
        out.append(
            ContentionBucket(
                float(lo), float(hi), int(mask.sum()), int((codes[mask] == 1).sum())
            )
        )
    return out


def simulate_success_probability(
    contention_value: float,
    n_players: int,
    n_slots: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo ``p_suc`` with ``n`` equal players at total contention C.

    Each of ``n_players`` transmits i.i.d. with probability
    ``C/n_players`` (must be <= 1) in each of ``n_slots`` independent
    slots; returns the fraction of slots with exactly one transmitter.
    """
    p = contention_value / n_players
    if not 0.0 <= p <= 1.0:
        raise ValueError(
            f"per-player probability {p} outside [0,1]; raise n_players"
        )
    counts = rng.binomial(n_players, p, size=n_slots)
    return float(np.mean(counts == 1))


def lemma2_envelope_check(
    c_values: Sequence[float], success_rates: Sequence[float], slack: float = 0.0
) -> List[Tuple[float, float, float, float, bool]]:
    """Check empirical rates against the Lemma 2 envelope.

    Returns ``(C, rate, lower, upper, within)`` per point, where *within*
    allows an additive ``slack`` for Monte-Carlo noise.  Note Lemma 2
    assumes every individual probability is <= 1/2; callers must respect
    that regime for the envelope to be valid.
    """
    out = []
    for c, r in zip(c_values, success_rates):
        lo = float(lemma2_lower(c))
        hi = float(lemma2_upper(c))
        out.append((float(c), float(r), lo, hi, lo - slack <= r <= hi + slack))
    return out
