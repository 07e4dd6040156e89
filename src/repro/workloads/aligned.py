"""Generators for power-of-2-aligned workloads (Section 3 setting).

All generators here emit instances where every window has power-of-two
size ``2^ℓ`` and a release that is a multiple of its size.  The random
generator enforces γ-slack feasibility *by construction* using a per-window
budget: if each aligned window of size ``w`` holds at most
``floor(γ w / L)`` jobs, where ``L`` is the number of participating levels,
then any interval of length ``x`` nests at most ``Σ_ℓ (x / 2^ℓ) ⌊γ 2^ℓ/L⌋
<= γ x`` jobs — so the instance is γ-slack feasible with no post-hoc
thinning (the budget argument mirrors the laminar decomposition in
Lemma 11's proof).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.sim.instance import Instance
from repro.sim.job import Job

__all__ = [
    "single_class_instance",
    "batch_instance",
    "aligned_random_instance",
    "nested_stack_instance",
    "figure1_instance",
]


def single_class_instance(n: int, level: int, start: int = 0) -> Instance:
    """``n`` jobs sharing one aligned window ``[start, start + 2^level)``.

    ``start`` must be a multiple of ``2^level``.  The workhorse for the
    estimation and broadcast experiments (one job-class occupancy).
    """
    w = 1 << level
    if start % w != 0:
        raise InvalidParameterError(
            f"start {start} is not a multiple of window {w}"
        )
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    return Instance(Job(i, start, start + w) for i in range(n))


def batch_instance(n: int, window: int, release: int = 0) -> Instance:
    """``n`` jobs sharing the (not necessarily aligned) window given."""
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    if window <= 0:
        raise InvalidParameterError(f"window must be positive, got {window}")
    return Instance(Job(i, release, release + window) for i in range(n))


def aligned_random_instance(
    rng: np.random.Generator,
    horizon_level: int,
    levels: Sequence[int],
    gamma: float,
    *,
    fill: float = 1.0,
) -> Instance:
    """A random γ-slack-feasible aligned workload.

    Parameters
    ----------
    rng:
        Randomness source.
    horizon_level:
        The timeline is ``[0, 2^horizon_level)``.
    levels:
        Job classes to populate; each must be ``<= horizon_level``.
    gamma:
        Slack target.  Guaranteed by construction (see module docstring).
    fill:
        Fraction of each window's budget to draw on average, in [0, 1];
        counts are binomial over the budget.

    Returns
    -------
    Instance
        Jobs with ids assigned in release order.
    """
    if not 0.0 < gamma <= 1.0:
        raise InvalidParameterError(f"gamma must be in (0, 1], got {gamma}")
    if not 0.0 <= fill <= 1.0:
        raise InvalidParameterError(f"fill must be in [0, 1], got {fill}")
    lv = sorted(set(int(l) for l in levels))
    if not lv:
        return Instance(())
    if lv[0] < 0 or lv[-1] > horizon_level:
        raise InvalidParameterError(
            f"levels must lie in [0, {horizon_level}], got {lv}"
        )
    horizon = 1 << horizon_level
    n_levels = len(lv)
    jobs: List[Job] = []
    jid = 0
    for level in lv:
        w = 1 << level
        budget = int(np.floor(gamma * w / n_levels))
        if budget == 0:
            continue
        n_windows = horizon // w
        counts = rng.binomial(budget, fill, size=n_windows)
        for k in range(n_windows):
            for _ in range(int(counts[k])):
                jobs.append(Job(jid, k * w, (k + 1) * w))
                jid += 1
    return Instance(sorted(jobs, key=lambda j: (j.release, j.deadline, j.job_id)))


def nested_stack_instance(
    levels: Sequence[int], per_level: int, start: int = 0
) -> Instance:
    """One occupied window per level, all nested at ``start``.

    Level ``ℓ`` gets ``per_level`` jobs in the window
    ``[start, start + 2^ℓ)``; ``start`` must be a multiple of the largest
    window.  Exercises the pecking order maximally (every class pre-empts
    every larger one at the same instant).
    """
    lv = sorted(set(int(l) for l in levels))
    if per_level < 0:
        raise InvalidParameterError(f"per_level must be >= 0, got {per_level}")
    if lv and start % (1 << lv[-1]) != 0:
        raise InvalidParameterError(
            f"start {start} not aligned to largest window {1 << lv[-1]}"
        )
    jobs: List[Job] = []
    jid = 0
    for level in lv:
        w = 1 << level
        for _ in range(per_level):
            jobs.append(Job(jid, start, start + w))
            jid += 1
    return Instance(jobs)


def figure1_instance(
    small_level: int = 4, jobs_small: int = 2, jobs_medium: int = 3, jobs_large: int = 3
) -> Instance:
    """The three-row scenario of the paper's Figure 1.

    Small windows of size ``2^small_level`` tile the timeline; one medium
    window (twice the size) and one large window (four times) sit above
    them, so the schedule shows the medium/large classes being pre-empted
    at each small critical time exactly as the figure depicts.
    """
    s = 1 << small_level
    jobs: List[Job] = []
    jid = 0
    for k in range(4):  # four small windows across the large window
        for _ in range(jobs_small):
            jobs.append(Job(jid, k * s, (k + 1) * s))
            jid += 1
    for k in range(2):  # two medium windows
        for _ in range(jobs_medium):
            jobs.append(Job(jid, 2 * k * s, 2 * (k + 1) * s))
            jid += 1
    for _ in range(jobs_large):  # one large window
        jobs.append(Job(jid, 0, 4 * s))
        jid += 1
    return Instance(jobs)
