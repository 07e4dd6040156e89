"""Statistical helpers for the experiment harness.

Wilson score intervals for success-probability estimates, a log-log
regression extracting the failure-probability exponent (the experiments'
way of checking "with high probability *in the window size*" claims —
failure ~ ``w^{-Θ(λ)}`` should show as a negative slope of log-failure
against log-w), and a tiny bootstrap for comparing protocols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "wilson_interval",
    "ProportionEstimate",
    "estimate_proportion",
    "failure_exponent",
    "bootstrap_mean_diff",
    "bootstrap_proportion",
]


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """The Wilson score interval for a binomial proportion.

    Well-behaved at the extremes (0 or all successes) unlike the normal
    approximation — exactly the regime our high-probability experiments
    live in.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True, slots=True)
class ProportionEstimate:
    """A binomial estimate with its Wilson interval."""

    successes: int
    trials: int
    low: float
    high: float

    @property
    def point(self) -> float:
        """The success rate; 1.0 for no trials (nothing could fail)."""
        return self.successes / self.trials if self.trials else 1.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.point:.4f} [{self.low:.4f}, {self.high:.4f}] ({self.successes}/{self.trials})"


def estimate_proportion(successes: int, trials: int, z: float = 1.96) -> ProportionEstimate:
    """A :class:`ProportionEstimate` with its Wilson score interval.

    No trials is a vacuous success: point and interval 1.0.
    """
    if trials == 0 and successes == 0:
        return ProportionEstimate(0, 0, 1.0, 1.0)
    lo, hi = wilson_interval(successes, trials, z)
    return ProportionEstimate(successes, trials, lo, hi)


def failure_exponent(
    window_sizes: Sequence[int], failure_rates: Sequence[float], floor: float = 1e-9
) -> Tuple[float, float]:
    """Fit ``failure ≈ a · w^{-b}`` by least squares in log-log space.

    Returns ``(b, r_squared)``.  Zero failure rates are floored (they
    only *strengthen* a high-probability claim, but break the log);
    callers should report them separately.
    """
    w = np.asarray(window_sizes, dtype=float)
    f = np.maximum(np.asarray(failure_rates, dtype=float), floor)
    if w.size < 2:
        raise ValueError("need at least two points to fit an exponent")
    x = np.log(w)
    y = np.log(f)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return (-float(slope), r2)


def bootstrap_mean_diff(
    a: Sequence[float],
    b: Sequence[float],
    rng: np.random.Generator,
    n_boot: int = 2000,
    alpha: float = 0.05,
) -> Tuple[float, float, float]:
    """Bootstrap CI for ``mean(a) − mean(b)``.

    Returns ``(point, low, high)``; used by the protocol-comparison bench
    to state whether PUNCTUAL's advantage over a baseline is significant.
    """
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.size == 0 or xb.size == 0:
        raise ValueError("both samples must be non-empty")
    point = float(xa.mean() - xb.mean())
    diffs = np.empty(n_boot)
    for i in range(n_boot):
        diffs[i] = (
            xa[rng.integers(0, xa.size, xa.size)].mean()
            - xb[rng.integers(0, xb.size, xb.size)].mean()
        )
    lo, hi = np.quantile(diffs, [alpha / 2, 1 - alpha / 2])
    return (point, float(lo), float(hi))


def bootstrap_proportion(
    per_run: Sequence[Tuple[int, int]],
    rng: np.random.Generator,
    n_boot: int = 2000,
    alpha: float = 0.05,
) -> ProportionEstimate:
    """Bootstrap CI for a success proportion pooled over clustered runs.

    Success counts from one seed's jobs are *not* independent (they
    share one channel and one adversary realization), so the Wilson
    interval over pooled jobs is anti-conservative.  This resamples the
    *runs* — ``per_run`` is a sequence of ``(successes, trials)`` pairs,
    one per seed — and returns the pooled estimate with percentile
    bounds, packaged as a :class:`ProportionEstimate` so callers can
    swap it in wherever a Wilson estimate is reported.  Runs without
    jobs are a vacuous success, as in :func:`estimate_proportion`.
    """
    pairs = np.asarray(per_run, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
        raise ValueError("per_run must be a non-empty sequence of (ok, n)")
    ok = int(pairs[:, 0].sum())
    n = int(pairs[:, 1].sum())
    if n == 0 and ok == 0:
        return ProportionEstimate(0, 0, 1.0, 1.0)
    if n <= 0:
        raise ValueError("total trials must be positive")
    n_runs = pairs.shape[0]
    rates = np.empty(n_boot)
    for i in range(n_boot):
        pick = pairs[rng.integers(0, n_runs, n_runs)]
        tot = pick[:, 1].sum()
        rates[i] = pick[:, 0].sum() / tot if tot > 0 else 1.0
    lo, hi = np.quantile(rates, [alpha / 2, 1 - alpha / 2])
    return ProportionEstimate(ok, n, float(lo), float(hi))
