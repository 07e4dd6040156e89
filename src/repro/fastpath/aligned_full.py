"""Vectorized end-to-end ALIGNED protocol (whole runs, not components).

The reference engine steps ALIGNED slot by slot through
:class:`~repro.core.schedule.PeckingOrderView`; this kernel reproduces a
whole run with array operations by exploiting the pecking order's
structure: at any slot the *smallest* unfinished class is active, so the
class-ℓ run of an aligned subwindow consumes exactly the earliest slots
of that subwindow not already consumed by smaller classes, in temporal
order.  Processing levels from ``min_level`` upward with a consumed-slot
mask therefore replays the schedule without stepping slots:

* an **empty** class run silently consumes ``λℓ²`` free slots (its
  estimation resolves to 0, no broadcast — the ``Σℓ²`` term of
  Lemma 12) and draws no randomness, so the mask the empty classes
  below a region's lowest occupied one leave is computed once and
  copied per trial;
* an **occupied** run draws per-phase estimation success counts via
  :func:`~repro.fastpath.estimation_fast.estimation_success_counts`,
  resolves the estimate with the shared
  :func:`~repro.core.estimation.resolve_estimate` rule, then plays the
  broadcast subphases with bincount uniqueness per subphase, honouring
  truncation when the window runs out of free slots mid-run
  (:func:`~repro.fastpath.aligned_fast.simulate_class_run_fast` plays
  one such run alone).

Agreement with the engine is **statistical** (the kernel consumes its
own RNG stream, not the engine's per-job streams); the differential
harness cross-checks mean success rates, and the per-job *timing*
bookkeeping (completion, retirement, ``slots_simulated``) follows the
engine's rules exactly:

* a successful job retires at its winning slot;
* a job whose run completes without success gives up at the *next* slot
  (capped at ``deadline - 1``);
* a job whose run is truncated by its window stays live until
  ``deadline - 1``.

Jamming follows :class:`~repro.channel.jamming.StochasticJammer` with
``jam_silence=False``: only would-be-successful (single-transmitter)
slots can be flipped, so empty-class estimations still resolve to 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.broadcast import BroadcastSchedule
from repro.core.estimation import estimation_length, resolve_estimate
from repro.errors import InvalidParameterError
from repro.fastpath.estimation_fast import estimation_success_counts
from repro.fastpath.fullproto import (
    FullProtocolResult,
    JobColumns,
    job_columns,
    union_active_slots,
)
from repro.params import AlignedParams
from repro.sim.instance import Instance
from repro.sim.job import window_class

__all__ = [
    "AlignedLayout",
    "aligned_layout",
    "run_pecking_region",
    "simulate_aligned_full",
]

#: (level, absolute subwindow start) -> job indices (into result arrays).
Occupancy = Dict[Tuple[int, int], np.ndarray]


@dataclass(frozen=True, eq=False)
class AlignedLayout:
    """What an ALIGNED trial reads from its instance, derived once.

    ``top`` is the instance's largest class and ``blocks`` lists each
    ``2^top``-slot region that holds a job, in time order, as its origin
    and its :data:`Occupancy` (read-only index arrays).
    """

    columns: JobColumns
    top: int
    blocks: Tuple[Tuple[int, Occupancy], ...]


def aligned_layout(instance: Instance, params: AlignedParams) -> AlignedLayout:
    """The :class:`AlignedLayout` of ``instance``, checked for ``params``.

    Requires an aligned instance whose classes are all ``>= min_level``
    (the same inputs :class:`~repro.core.aligned.AlignedProtocol`
    accepts) with ``min_level >= 1``.
    """
    if params.min_level < 1:
        raise InvalidParameterError(
            "simulate_aligned_full requires min_level >= 1"
        )
    instance.require_aligned()
    cols = job_columns(instance)
    if not len(cols):
        return AlignedLayout(cols, 0, ())
    levels = [window_class(w) for w in cols.windows]
    if min(levels) < params.min_level:
        raise InvalidParameterError(
            f"job class {min(levels)} below min_level {params.min_level}"
        )

    top = max(levels)
    block = 1 << top
    grouping: Dict[Tuple[int, int, int], List[int]] = {}
    for i, (release, level) in enumerate(zip(cols.releases.tolist(), levels)):
        b0 = (release // block) * block
        grouping.setdefault((b0, level, release), []).append(i)
    blocks: Dict[int, Occupancy] = {}
    for (b0, level, start), idx in grouping.items():
        jobs_here = np.array(idx, dtype=np.int64)
        jobs_here.flags.writeable = False
        blocks.setdefault(b0, {})[(level, start)] = jobs_here
    return AlignedLayout(cols, top, tuple(sorted(blocks.items())))


def _run_occupied(
    jobs_here: np.ndarray,
    level: int,
    free_units: np.ndarray,
    params: AlignedParams,
    rng: np.random.Generator,
    p_jam: float,
    success: np.ndarray,
    win_unit: np.ndarray,
    done_unit: np.ndarray,
) -> Tuple[int, int]:
    """One occupied class run over ``free_units``.

    ``free_units`` are the absolute slot/round indices available to this
    run, already in temporal order.  Winners get ``success``/``win_unit``
    set; if the run completes (estimation + broadcast fit), every
    occupant gets ``done_unit`` = the run's last consumed unit.  A
    truncated run leaves ``done_unit`` at -1 (the job never observes its
    run finishing and stays live until its deadline).  Returns the units
    consumed and the resolved estimate (0 when the estimation is cut).
    """
    lam, tau = params.lam, params.tau
    est_len = estimation_length(level, lam)
    nf = free_units.size
    if nf < est_len:
        return nf, 0  # estimation itself is truncated: no estimate, no end
    counts = estimation_success_counts(
        len(jobs_here), level, params, rng, n_trials=1, p_jam=p_jam
    )[0]
    est = resolve_estimate([int(c) for c in counts], tau, level)
    if est == 0:
        # No broadcast stage: the run ends with the estimation.
        done_unit[jobs_here] = free_units[est_len - 1]
        return est_len, 0

    schedule = BroadcastSchedule(level, est, lam)
    alive = jobs_here
    pos = est_len
    budget = nf - est_len
    for length in schedule.subphase_lengths:
        for _ in range(lam):
            if budget <= 0:
                return pos, est  # truncated mid-run: the run never completes
            # A partial subphase (b < length) still has every live job
            # draw over the full [0, length); picks landing past the cut
            # simply never transmit — exactly the engine's behaviour
            # when the window ends mid-subphase.
            b = min(length, budget)
            if alive.size:
                picks = rng.integers(0, length, size=alive.size)
                cnt = np.bincount(picks, minlength=length)
                unique = cnt[picks] == 1
                if p_jam > 0.0:
                    jam = rng.random(length) < p_jam
                    unique &= ~jam[picks]
                winners = unique & (picks < b)
                if winners.any():
                    w_jobs = alive[winners]
                    success[w_jobs] = True
                    win_unit[w_jobs] = free_units[pos + picks[winners]]
                    alive = alive[~winners]
            pos += b
            budget -= b
    if pos == est_len + schedule.total_steps:
        done_unit[alive] = free_units[pos - 1]
    return pos, est


def _free_units(
    consumed: np.ndarray, sub: int, size: int
) -> Optional[np.ndarray]:
    """The unconsumed units of ``[sub, sub + size)``; ``None`` if none."""
    seg = consumed[sub:sub + size]
    if seg.all():
        return None
    if not seg.any():
        return np.arange(sub, sub + size, dtype=np.int64)
    return np.flatnonzero(~seg) + sub


@functools.lru_cache(maxsize=32)
def _empty_prefix(
    top_level: int, min_level: int, first: int, lam: int
) -> np.ndarray:
    """The consumed mask of a ``2^top_level`` region after its classes
    ``min_level .. first - 1`` have all run empty.

    An empty class run claims the earliest ``λℓ²`` free units of its
    subwindow and draws nothing, so this mask depends on these four
    numbers alone: regions compute it once and copy it per trial.
    """
    consumed = np.zeros(1 << top_level, dtype=bool)
    for level in range(min_level, first):
        size = 1 << level
        est_len = estimation_length(level, lam)
        for sub in range(0, consumed.size, size):
            free = _free_units(consumed, sub, size)
            if free is not None:
                consumed[free[:est_len]] = True
    consumed.flags.writeable = False
    return consumed


def run_pecking_region(
    origin: int,
    top_level: int,
    min_level: int,
    occupants: Occupancy,
    params: AlignedParams,
    rng: np.random.Generator,
    p_jam: float,
    success: np.ndarray,
    win_unit: np.ndarray,
    done_unit: np.ndarray,
) -> None:
    """Play the pecking order over the region ``[origin, origin + 2^L)``.

    Every aligned subwindow of every level in ``[min_level, top_level]``
    hosts one class run (empty unless listed in ``occupants``); smaller
    classes pre-empt larger ones, which the consumed-mask model realizes
    by letting each level claim the earliest still-free slots of its
    subwindow.  The levels below the lowest occupied one are all empty:
    their mask comes from :func:`_empty_prefix`.  Units are abstract
    slot indices — the ALIGNED wrapper maps them to real slots 1:1,
    PUNCTUAL's embedded machine maps them to virtual rounds.
    """
    first = max(
        min_level,
        min((lv for (lv, _), idx in occupants.items() if len(idx)),
            default=top_level + 1),
    )
    if first > top_level:
        return  # every class run is empty: nothing is drawn or delivered
    consumed = _empty_prefix(top_level, min_level, first, params.lam).copy()
    for level in range(first, top_level + 1):
        size = 1 << level
        for sub in range(0, consumed.size, size):
            free = _free_units(consumed, sub, size)
            if free is None:
                continue
            jobs_here = occupants.get((level, origin + sub))
            if jobs_here is None or len(jobs_here) == 0:
                consumed[free[:estimation_length(level, params.lam)]] = True
            else:
                used, _ = _run_occupied(
                    jobs_here, level, free + origin, params, rng, p_jam,
                    success, win_unit, done_unit,
                )
                consumed[free[:used]] = True


def simulate_aligned_full(
    instance: Instance,
    params: AlignedParams,
    rng: np.random.Generator,
    *,
    p_jam: float = 0.0,
    layout: Optional[AlignedLayout] = None,
) -> FullProtocolResult:
    """One full ALIGNED run over ``instance``, fully vectorized.

    Requires an aligned instance whose classes are all ``>= min_level``
    (the same inputs :class:`~repro.core.aligned.AlignedProtocol`
    accepts) with ``min_level >= 1``.  Statistically equivalent to the
    engine; per-job timing bookkeeping matches the engine's rules
    exactly (see module docstring).  ``layout``, when given, must be
    ``aligned_layout(instance, params)``: a plan passes the one it
    holds instead of deriving it per trial.
    """
    if not 0.0 <= p_jam <= 1.0:
        raise InvalidParameterError(f"p_jam must be in [0, 1], got {p_jam}")
    if layout is None:
        layout = aligned_layout(instance, params)
    cols = layout.columns
    n = len(cols)
    success = np.zeros(n, dtype=bool)
    win_unit = np.full(n, -1, dtype=np.int64)
    done_unit = np.full(n, -1, dtype=np.int64)
    for b0, occupants in layout.blocks:
        run_pecking_region(
            b0, layout.top, params.min_level, occupants, params, rng, p_jam,
            success, win_unit, done_unit,
        )

    last = cols.deadlines - 1
    completion = np.where(success, win_unit, -1)
    retire = np.where(
        success,
        win_unit,
        np.where(done_unit >= 0, np.minimum(done_unit + 1, last), last),
    )
    slots = union_active_slots(cols.releases, retire)
    return FullProtocolResult(success, completion, retire, slots)
