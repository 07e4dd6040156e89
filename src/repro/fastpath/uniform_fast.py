"""Vectorized UNIFORM simulation (experiments E1/E2 at scale).

The slot engine runs UNIFORM faithfully but costs ``O(Σ w_j)`` per trial,
which is prohibitive for the harmonic instance at ``n`` in the thousands
(Lemma 5's effect is polynomial in ``n``).  UNIFORM's outcome, however,
depends only on which slots the jobs pick — so one trial reduces to a
handful of numpy array ops, per the vectorize-the-inner-loop guidance.

Semantics: with ``attempts = 1`` this is *exactly* the engine's UNIFORM
(cross-validated by tests).  With ``attempts > 1`` the fast path has jobs
transmit in all chosen slots even after an early success, whereas the
engine's jobs stop once they succeed; the fast path therefore slightly
*over*-counts contention, making its success rates a lower bound.  The
difference is irrelevant for the paper's claims (which are stated for
Θ(1) attempts) and is documented here and in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.sim.instance import Instance

__all__ = ["UniformFastResult", "resolve_slots", "simulate_uniform_fast"]


@dataclass(frozen=True)
class UniformFastResult:
    """Per-job success flags plus slot-level aggregates for one trial."""

    success: np.ndarray  # bool, shape (n_jobs,), instance.by_release order
    n_successful_slots: int
    n_collision_slots: int

    @property
    def n_succeeded(self) -> int:
        return int(self.success.sum())

    @property
    def success_rate(self) -> float:
        return float(self.success.mean()) if self.success.size else 1.0


def simulate_uniform_fast(
    instance: Instance,
    rng: Optional[np.random.Generator],
    *,
    attempts: int = 1,
    p_jam: float = 0.0,
    offsets: Optional[np.ndarray] = None,
) -> UniformFastResult:
    """One UNIFORM trial, fully vectorized.

    Parameters
    ----------
    instance:
        The jobs; each picks ``attempts`` distinct slots of its window
        (all window slots when the window is smaller).
    rng:
        Randomness source: the slot picks, then one jam coin per
        single-transmitter slot in increasing slot order, the coins
        :class:`~repro.channel.jamming.StochasticJammer` draws from the
        engine's ``"channel"`` stream.  ``None`` is allowed when nothing
        is drawn (``offsets`` given, ``p_jam`` 0).
    p_jam:
        Stochastic jamming of would-be successes (Section 3's adversary).
    offsets:
        Optional per-job slot offsets (``by_release`` order) replacing the
        internal draw; requires ``attempts == 1``.  The differential
        verifier uses this to replay the *engine's* per-job draws through
        the kernel; with the run's ``"channel"`` stream as ``rng`` the
        outcome is the engine's, jammed or not.

    Returns
    -------
    UniformFastResult
        Success flags in ``instance.by_release`` order.
    """
    if attempts < 1:
        raise InvalidParameterError(f"attempts must be >= 1, got {attempts}")
    if not 0.0 <= p_jam <= 1.0:
        raise InvalidParameterError(f"p_jam must be in [0, 1], got {p_jam}")
    if offsets is not None and attempts != 1:
        raise InvalidParameterError(
            "explicit offsets require attempts == 1"
        )
    jobs = instance.by_release
    n = len(jobs)
    if offsets is not None and len(offsets) != n:
        raise InvalidParameterError(
            f"offsets has length {len(offsets)}, instance has {n} jobs"
        )
    if n == 0:
        return UniformFastResult(np.zeros(0, dtype=bool), 0, 0)

    releases = np.array([j.release for j in jobs], dtype=np.int64)
    windows = np.array([j.window for j in jobs], dtype=np.int64)

    # Draw per-job attempt slots.  With attempts == 1 a single uniform
    # draw per job; otherwise sample without replacement per job (windows
    # can differ, so a small per-job loop only for multi-attempt mode).
    if attempts == 1:
        if offsets is not None:
            offs = np.asarray(offsets, dtype=np.int64)
            if np.any(offs < 0) or np.any(offs >= windows):
                raise InvalidParameterError(
                    "offsets must satisfy 0 <= offset < window per job"
                )
        else:
            offs = (rng.random(n) * windows).astype(np.int64)
        success, counts = resolve_slots(releases + offs, rng, p_jam)
        n_success_slots = int(np.count_nonzero(success))
    else:
        job_list = []
        slot_list = []
        for i in range(n):
            k = min(attempts, int(windows[i]))
            picks = rng.choice(int(windows[i]), size=k, replace=False)
            job_list.append(np.full(k, i, dtype=np.int64))
            slot_list.append(releases[i] + picks.astype(np.int64))
        unique_slot, counts = resolve_slots(
            np.concatenate(slot_list), rng, p_jam
        )
        success = np.zeros(n, dtype=bool)
        np.logical_or.at(success, np.concatenate(job_list), unique_slot)
        n_success_slots = int(np.count_nonzero(unique_slot))
    n_collision_slots = int(np.count_nonzero(counts > 1))
    return UniformFastResult(success, n_success_slots, n_collision_slots)


def resolve_slots(
    slots: np.ndarray, rng: Optional[np.random.Generator], p_jam: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve one transmission per entry of ``slots`` on the channel.

    Returns, per transmission, whether it succeeds (alone in its slot
    and not jammed), and the transmitter count of each distinct slot in
    increasing slot order.  With ``p_jam > 0`` it draws one jam coin
    from ``rng`` per single-transmitter slot, in increasing slot order:
    the coins :class:`~repro.channel.jamming.StochasticJammer` draws in
    the engine.
    """
    _, inverse, counts = np.unique(
        slots, return_inverse=True, return_counts=True
    )
    single = counts == 1
    if p_jam > 0.0:
        jammed = rng.random(int(np.count_nonzero(single))) < p_jam
        single[single] = ~jammed
    return single[inverse], counts
