"""Closed-form capacity planning for the paper's protocols.

The guarantees are stated as "for all λ there exists a sufficiently
small γ"; a user pointing this library at a real workload needs the
*actual* numbers.  This module turns the schedule arithmetic that is
otherwise spread across Lemmas 6, 11, and 12 into calculators:

* :func:`aligned_window_demand` — worst-case active steps demanded
  inside one window of class ℓ, as a function of the per-class job
  counts (every nested window's λℓ'² estimation plus the τ-inflated
  broadcast stages);
* :func:`max_feasible_gamma` — the largest slack γ for which that
  demand fits, found by bisection — the concrete "sufficiently small γ"
  of Lemma 12 at the configured constants;
* :func:`punctual_overheads` — PUNCTUAL's fixed costs for a window size
  (synchronization, pullback duration, round dilution, trimming loss)
  and the residual virtual-slot budget handed to the embedded ALIGNED.

These are *planning* bounds: deterministic costs are exact, stochastic
quantities (the estimate) are taken at their τ-inflated typical value,
so the results calibrate experiments rather than prove theorems.  The
experiment suite cross-checks them against simulation (A4, E6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.broadcast import total_active_steps
from repro.core.estimation import estimation_length
from repro.core.rounds import ROUND_LENGTH
from repro.errors import InvalidParameterError
from repro.params import AlignedParams, PunctualParams

__all__ = [
    "aligned_window_demand",
    "max_feasible_gamma",
    "PunctualBudget",
    "punctual_overheads",
]


def _typical_estimate(n_jobs: int, params: AlignedParams, level: int) -> int:
    """The τ-inflated power-of-two estimate a class of n̂ jobs produces.

    The winning estimation phase is typically ``j ≈ ⌈log₂ n̂⌉``, giving
    ``τ·2^j``; capped at the window like the protocol's rule.
    """
    if n_jobs <= 0:
        return 0
    j = max(1, math.ceil(math.log2(n_jobs)))
    return min(params.tau * (1 << j), 1 << level)


def aligned_window_demand(
    level: int,
    params: AlignedParams,
    jobs_per_class: Mapping[int, int],
) -> int:
    """Worst-case active steps demanded inside one class-``level`` window.

    Counts, for every class ℓ' from ``params.min_level`` to ``level``,
    the ``2^{level-ℓ'}`` nested windows each paying estimation (always)
    plus a broadcast stage sized by the typical estimate for
    ``jobs_per_class.get(ℓ', 0)`` jobs.

    Parameters
    ----------
    jobs_per_class:
        Expected jobs *per window* of each class (not totals).
    """
    if level < params.min_level:
        raise InvalidParameterError(
            f"level {level} below min_level {params.min_level}"
        )
    demand = 0
    for lv in range(params.min_level, level + 1):
        n_windows = 1 << (level - lv)
        n_jobs = int(jobs_per_class.get(lv, 0))
        est = _typical_estimate(n_jobs, params, lv)
        per_window = (
            total_active_steps(lv, est, params.lam)
            if est
            else estimation_length(lv, params.lam)
        )
        demand += n_windows * per_window
    return demand


def max_feasible_gamma(
    level: int,
    params: AlignedParams,
    *,
    safety: float = 1.0,
    tol: float = 1e-4,
) -> float:
    """The largest γ whose worst-case demand fits a class-``level`` window.

    Assumes every class window holds its full budget ``γ·2^ℓ`` of jobs
    (the densest feasible occupancy) and bisects γ until the
    :func:`aligned_window_demand` equals ``safety · 2^level``.

    Returns 0.0 when even the empty schedule (pure estimation overhead)
    does not fit — the regime the A4 ablation charts.
    """
    window = 1 << level
    budget = safety * window

    def demand(gamma: float) -> int:
        per_class = {
            lv: max(0, int(gamma * (1 << lv)))
            for lv in range(params.min_level, level + 1)
        }
        return aligned_window_demand(level, params, per_class)

    if demand(0.0) > budget:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if demand(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True, slots=True)
class PunctualBudget:
    """PUNCTUAL's fixed costs and residual capacity for one window size.

    Attributes
    ----------
    window:
        The (power-of-two rounded) real window size.
    sync_slots:
        Worst-case synchronization cost (listen budget + announce).
    pullback_slots:
        The slingshot pullback duration.
    rounds_available:
        Complete rounds left after the fixed costs.
    virtual_window:
        The trimmed aligned virtual window (≥ a quarter of the rounds).
    virtual_level:
        Its class, or None when it falls below the embedded min_level —
        the job would be demoted to the anarchist path.
    anarchist_attempts:
        Expected anarchist transmissions over the remaining window.
    """

    window: int
    sync_slots: int
    pullback_slots: int
    rounds_available: int
    virtual_window: int
    virtual_level: Optional[int]
    anarchist_attempts: float


def punctual_overheads(window: int, params: PunctualParams) -> PunctualBudget:
    """Fixed costs and residual budget for a job with this window size."""
    if window < 1:
        raise InvalidParameterError(f"window must be >= 1, got {window}")
    w_eff = 1 << (window.bit_length() - 1)
    sync = 13 + 2  # listen budget + two start slots (worst case)
    pullback = params.pullback_duration(w_eff)
    remaining = max(0, w_eff - sync - pullback - 2 * ROUND_LENGTH)
    rounds = remaining // ROUND_LENGTH
    if rounds >= 2:
        virtual = 1 << max(0, (rounds.bit_length() - 2))
        # largest power of two that always fits in `rounds` consecutive
        # virtual slots regardless of phase: rounds // 2 rounded down
        virtual = 1 << ((rounds // 2).bit_length() - 1) if rounds >= 2 else 0
    else:
        virtual = 0
    level = virtual.bit_length() - 1 if virtual else None
    if level is not None and level < params.aligned.min_level:
        level = None
    anarchist = (
        params.anarchist_probability(w_eff) * (w_eff // ROUND_LENGTH)
    )
    return PunctualBudget(
        window=w_eff,
        sync_slots=sync,
        pullback_slots=pullback,
        rounds_available=rounds,
        virtual_window=virtual,
        virtual_level=level,
        anarchist_attempts=anarchist,
    )
