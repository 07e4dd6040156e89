"""Closed-form bounds from the paper, as checkable functions.

* Lemma 1 (standard exponential inequalities): for ``0 <= x < 1``,
  ``e^{-x/(1-x)} <= 1 - x <= e^{-x}``.
* Lemma 2: with all transmit probabilities <= 1/2,
  ``C/e^{2C} <= p_suc <= 2C/e^C`` for contention ``C``.
* Chernoff bounds used throughout the proofs, in the multiplicative form.

These power the E3 experiment (empirical success probability vs. the
Lemma 2 envelope) and various test oracles.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

__all__ = [
    "lemma1_lower",
    "lemma1_upper",
    "lemma2_lower",
    "lemma2_upper",
    "success_probability_exact",
    "contention",
    "chernoff_upper_tail",
    "chernoff_lower_tail",
]

ArrayLike = Union[float, np.ndarray]


def lemma1_lower(x: ArrayLike) -> ArrayLike:
    """``e^{-x/(1-x)}`` — the lower bound of Lemma 1 on ``1 - x``."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-x / (1.0 - x))
    return out if out.ndim else float(out)


def lemma1_upper(x: ArrayLike) -> ArrayLike:
    """``e^{-x}`` — the upper bound of Lemma 1 on ``1 - x``."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-x)
    return out if out.ndim else float(out)


def lemma2_lower(c: ArrayLike) -> ArrayLike:
    """``C / e^{2C}`` — Lemma 2's lower bound on the success probability."""
    c = np.asarray(c, dtype=float)
    out = c / np.exp(2.0 * c)
    return out if out.ndim else float(out)


def lemma2_upper(c: ArrayLike) -> ArrayLike:
    """``2C / e^{C}`` — Lemma 2's upper bound on the success probability."""
    c = np.asarray(c, dtype=float)
    out = 2.0 * c / np.exp(c)
    return out if out.ndim else float(out)


def contention(probabilities: Sequence[float]) -> float:
    """``C(t) = Σ_j p_j(t)`` — the paper's contention (Section 2.1)."""
    return float(np.sum(np.asarray(probabilities, dtype=float)))


def success_probability_exact(probabilities: Sequence[float]) -> float:
    """Exact ``p_suc`` for independent transmitters with the given probabilities.

    ``p_suc = Σ_j p_j Π_{k≠j} (1 - p_k)`` — the quantity Lemma 2
    sandwiches.  Numerically stable product-form evaluation.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.size == 0:
        return 0.0
    if np.any((p < 0) | (p > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    q = 1.0 - p
    if np.any(q == 0.0):
        # any p_j = 1 transmits surely; success iff exactly one such and
        # no other transmitter fires
        ones = int(np.sum(p == 1.0))
        if ones > 1:
            return 0.0
        rest = p[p < 1.0]
        return float(np.prod(1.0 - rest))
    total = np.prod(q)
    return float(total * np.sum(p / q))


def chernoff_upper_tail(mean: float, delta: float) -> float:
    """``Pr[X >= (1+δ)μ] <= exp(-δ²μ/(2+δ))`` for sums of independent 0/1s."""
    if mean < 0 or delta < 0:
        raise ValueError("mean and delta must be nonnegative")
    if mean == 0:
        return 0.0 if delta > 0 else 1.0
    return math.exp(-(delta * delta) * mean / (2.0 + delta))


def chernoff_lower_tail(mean: float, delta: float) -> float:
    """``Pr[X <= (1-δ)μ] <= exp(-δ²μ/2)`` for sums of independent 0/1s."""
    if mean < 0 or not 0 <= delta <= 1:
        raise ValueError("need mean >= 0 and 0 <= delta <= 1")
    return math.exp(-(delta * delta) * mean / 2.0)
