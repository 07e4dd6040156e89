"""Vectorized end-to-end PUNCTUAL protocol for batch instances.

The engine steps PUNCTUAL's per-job state machines slot by slot; for a
*batch* instance — every job sharing one ``(release, deadline)`` window,
the setting of the paper's Section 4 experiments — the cohort moves in
lockstep and the whole run collapses to closed-form timeline arithmetic
plus a handful of array draws:

* all jobs listen for 13 slots, announce together, and synchronize on
  the common origin ``release + 13``;
* the first timekeeper slot is silent, so everyone enters SLINGSHOT and
  elections run every round while the pullback budget lasts: the number
  of claimants per election slot is Binomial(n, p_claim), a lone
  un-jammed claimant becomes the leader (uniformly random job);
* with no leader elected, the recheck finds an empty channel and the
  cohort goes ANARCHIST — per anarchy slot, Binomial(alive, p_anarch)
  with exactly one un-jammed transmitter delivers one job;
* with a leader, beacons tile the timekeeper slots up to the abdication
  round ``m``; the first un-jammed regular beacon gives followers the
  virtual time, they trim their (equal) windows and run the embedded
  ALIGNED machine through the shared
  :func:`~repro.fastpath.aligned_full.run_pecking_region` over virtual
  rounds (round ``v`` maps to real slot ``origin + 10·v + 5``); the
  leader succeeds iff its abdication beacon (round ``m``, carrying the
  data payload) is not jammed.

One deliberate approximation, relevant only under jamming: if *every*
beacon the leader sends is jammed, the engine's followers eventually
drop the expired claim and could re-enter slingshot; the kernel lets
them fail at the effective deadline instead.  Reaching that state needs
on the order of ``eff_window/10`` consecutive jammed single-transmitter
slots (probability ``p_jam^(m-k_e)``), far below Monte-Carlo resolution
at any jamming rate the experiments use.

Agreement with the engine is statistical (the kernel owns its RNG
stream); per-job timing bookkeeping — completion slots, give-up slots,
``slots_simulated`` — follows the engine's rules exactly.

What a trial reads from the instance — the shared window, its
effective power-of-two prefix and the parameters' per-window pullback
budget and probabilities — is a :class:`PunctualCohort`, derived once
per plan (:func:`punctual_cohort`); the anarchist stage draws its
transmitter counts in chunks of 32 slots and reads each chunk as a
Python list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.fastpath.aligned_full import run_pecking_region
from repro.fastpath.fullproto import FullProtocolResult
from repro.params import PunctualParams
from repro.sim.instance import Instance
from repro.sim.job import window_class

from repro.core.trimming import trimmed_window

__all__ = ["PunctualCohort", "punctual_cohort", "simulate_punctual_full"]

#: Slots of the sync preamble (``RoundSynchronizer.LISTEN_BUDGET``).
_LISTEN = 13
#: Round length and the in-round offsets of the special slots
#: (see ``ROLE_OF_INDEX`` in :mod:`repro.core.punctual`).
_ROUND = 10
_TK = 3
_ALIGNED = 5
_ELECTION = 7
_ANARCHY = 9
#: Anarchy slots per transmitter-count draw of :func:`_run_anarchy`.
_ANARCHY_CHUNK = 32


def _run_anarchy(
    alive: Sequence[int],
    slots: Sequence[int],
    p_tx: float,
    rng: np.random.Generator,
    p_jam: float,
    success: np.ndarray,
    completion: np.ndarray,
    retire: np.ndarray,
) -> None:
    """Play the anarchist stage over ``slots`` for the ``alive`` jobs.

    Per slot each live job transmits with probability ``p_tx``; a lone
    un-jammed transmitter succeeds and stops.  Drawn in epochs of a
    fixed chunk of slots: the population only shrinks at a success, and
    successes arrive every few slots, so drawing a small chunk of
    per-slot transmitter counts (restarting from just past the first
    success) keeps the draw volume proportional to the success count —
    drawing the whole remaining tail per epoch costs slots × successes.
    A chunk is at most 32 counts, so it is read as a Python list: a
    ``count``/``index`` scan costs less than an array operation there.
    """
    alive = list(alive)
    total = len(slots)
    winners: List[int] = []
    times: List[int] = []
    i = 0
    while alive and i < total:
        end = min(i + _ANARCHY_CHUNK, total)
        tx = rng.binomial(len(alive), p_tx, size=end - i).tolist()
        first = -1
        if p_jam > 0.0:
            singles = tx.count(1)
            if singles:
                at = -1
                for coin in rng.random(singles).tolist():
                    at = tx.index(1, at + 1)
                    if coin >= p_jam:
                        first = at
                        break
        elif 1 in tx:
            first = tx.index(1)
        if first < 0:
            i = end
            continue
        pick = int(rng.integers(len(alive)))
        winners.append(alive[pick])
        times.append(slots[i + first])
        alive[pick] = alive[-1]  # swap-remove, order is immaterial
        alive.pop()
        i += first + 1
    success[winners] = True
    completion[winners] = times
    retire[winners] = times


@dataclass(frozen=True)
class PunctualCohort:
    """What a PUNCTUAL trial reads from its batch instance, derived once.

    The shared window and its effective (power-of-two) prefix, the slot
    a failed job retires at, and the parameters' per-window values: the
    pullback budget ``D`` and the claim and anarchist probabilities.
    """

    n: int
    release: int
    eff_w: int
    eff_end: int
    fail_retire: int
    pullback: int
    p_claim: float
    p_anarch: float


def punctual_cohort(
    instance: Instance, params: PunctualParams
) -> PunctualCohort:
    """The :class:`PunctualCohort` of a batch ``instance``.

    Requires every job to share one ``(release, deadline)`` window (the
    cohort setting; :func:`repro.workloads.batch_instance`).
    """
    jobs = instance.by_release
    if not jobs:
        return PunctualCohort(0, 0, 0, 0, 0, 0, 0.0, 0.0)
    if len(instance.by_window) != 1:
        raise InvalidParameterError(
            "simulate_punctual_full requires a batch instance "
            f"(one shared window, got {len(instance.by_window)})"
        )
    release = jobs[0].release
    deadline = jobs[0].deadline
    window = deadline - release
    eff_w = 1 << (window.bit_length() - 1)  # _floor_pow2(window)
    eff_end = release + eff_w
    return PunctualCohort(
        n=len(jobs),
        release=release,
        eff_w=eff_w,
        eff_end=eff_end,
        fail_retire=min(eff_end, deadline - 1),
        pullback=params.pullback_duration(eff_w),
        p_claim=params.pullback_probability(eff_w),
        p_anarch=params.anarchist_probability(eff_w),
    )


def simulate_punctual_full(
    instance: Instance,
    params: PunctualParams,
    rng: np.random.Generator,
    *,
    p_jam: float = 0.0,
    cohort: Optional[PunctualCohort] = None,
) -> FullProtocolResult:
    """One full PUNCTUAL run over a batch instance, fully vectorized.

    Requires every job to share one ``(release, deadline)`` window (the
    cohort setting; :func:`repro.workloads.batch_instance`).  See the
    module docstring for the model and its one documented approximation.
    ``cohort``, when given, must be ``punctual_cohort(instance,
    params)``: a plan passes the one it holds instead of deriving it
    per trial.
    """
    if not 0.0 <= p_jam <= 1.0:
        raise InvalidParameterError(f"p_jam must be in [0, 1], got {p_jam}")
    c = punctual_cohort(instance, params) if cohort is None else cohort
    n = c.n
    if n == 0:
        return FullProtocolResult(
            np.zeros(0, dtype=bool),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            0,
        )
    release, eff_w, eff_end = c.release, c.eff_w, c.eff_end

    success = np.zeros(n, dtype=bool)
    completion = np.full(n, -1, dtype=np.int64)
    retire = np.full(n, c.fail_retire, dtype=np.int64)

    def finish() -> FullProtocolResult:
        slots = int(retire.max()) - release + 1
        return FullProtocolResult(success, completion, retire, slots)

    # The first timekeeper slot is origin + 3 = release + 16; with
    # eff_w <= 16 it falls at/past the effective deadline, so no stage
    # past syncing is ever reached and every job times out.
    if eff_w < 32:
        return finish()

    origin = release + _LISTEN
    horizon = eff_w - _LISTEN  # slots from origin to eff_end
    # The abdication round: the first timekeeper slot t with
    # t + ROUND >= eff_end, i.e. the largest k with 10k + 3 < horizon.
    m = (horizon - 4) // _ROUND

    # -- election ---------------------------------------------------------
    # Stage SLINGSHOT holds while the pullback budget D lasts: the claim
    # at election slot t is drawn iff t <= release + 16 + D.
    D, p_claim, p_anarch = c.pullback, c.p_claim, c.p_anarch
    leader: Optional[int] = None
    k_e = -1
    k = 0
    while True:
        t_e = origin + _ROUND * k + _ELECTION
        if t_e > release + 16 + D or t_e >= eff_end:
            break
        claims = int(rng.binomial(n, p_claim))
        if claims == 1 and (p_jam == 0.0 or rng.random() >= p_jam):
            leader = int(rng.integers(n))
            k_e = k
            break
        k += 1

    if leader is None:
        # Pullback expired with no leader: the recheck timekeeper slot is
        # silent and the whole cohort goes ANARCHIST.
        t_rc = release + 16 + _ROUND * ((D + _ROUND) // _ROUND)
        if t_rc < eff_end:
            _run_anarchy(
                range(n), range(t_rc + 6, eff_end, _ROUND), p_anarch, rng,
                p_jam, success, completion, retire,
            )
        return finish()

    # -- leader timeline --------------------------------------------------
    t_last = origin + _ROUND * m + _TK  # abdication beacon slot
    if m < k_e + 1:
        # No timekeeper slot between the election and the effective
        # deadline: the leader never gets to beacon and everyone fails.
        return finish()
    reg_rounds = np.arange(k_e + 1, m)
    if p_jam > 0.0 and reg_rounds.size:
        ok = np.flatnonzero(rng.random(reg_rounds.size) >= p_jam)
        v0: Optional[int] = int(reg_rounds[ok[0]]) if ok.size else None
    else:
        v0 = int(reg_rounds[0]) if reg_rounds.size else None
    abd_ok = p_jam == 0.0 or rng.random() >= p_jam

    if abd_ok:
        success[leader] = True
        completion[leader] = t_last
        retire[leader] = t_last
    else:
        # FINISHED without own success: gives up at the next slot.
        retire[leader] = min(t_last + 1, c.fail_retire)

    everyone = np.arange(n)
    followers = everyone[everyone != leader]
    if followers.size == 0:
        return finish()

    if v0 is None:
        # Every regular beacon jammed.  If the abdication beacon gets
        # through it reveals the virtual time, but by then at most one
        # round remains, so the build attempt falls back to ANARCHIST.
        # If it is jammed too, followers never learn the virtual time
        # and fail at the effective deadline.
        if abd_ok:
            _run_anarchy(
                followers.tolist(), range(t_last + 6, eff_end, _ROUND),
                p_anarch, rng, p_jam, success, completion, retire,
            )
        return finish()

    # Followers learn the virtual time from the first successful regular
    # beacon (round v0, slot t_b) and immediately try to build the
    # embedded ALIGNED machine over the trimmed virtual window.
    t_b = origin + _ROUND * v0 + _TK
    rounds_left = (eff_end - t_b) // _ROUND
    level = -1
    s = e = 0
    if rounds_left >= 3:
        s, e = trimmed_window(v0 + 1, v0 + rounds_left)
        level = window_class(e - s)
    if rounds_left < 3 or level < params.aligned.min_level:
        _run_anarchy(
            followers.tolist(), range(t_b + 6, eff_end, _ROUND), p_anarch,
            rng, p_jam, success, completion, retire,
        )
        return finish()

    # Embedded machine: virtual round v <-> real slot origin + 10v + 5.
    v_succ = np.zeros(n, dtype=bool)
    v_win = np.full(n, -1, dtype=np.int64)
    v_done = np.full(n, -1, dtype=np.int64)
    run_pecking_region(
        s, level, params.aligned.min_level, {(level, s): followers},
        params.aligned, rng, p_jam, v_succ, v_win, v_done,
    )
    winners = followers[v_succ[followers]]
    success[winners] = True
    completion[winners] = origin + _ROUND * v_win[winners] + _ALIGNED
    retire[winners] = completion[winners]
    losers = followers[~v_succ[followers]]
    g = v_done[losers] + 1  # first machine step after the run's end
    # After a completed run with a step left inside the trim, the machine
    # reports it and the job gives up at its next aligned slot.  After a
    # truncated run (or with no step left) the job stays live until the
    # trimmed window expires.
    reported = (v_done[losers] >= 0) & (g < e)
    retire[losers] = np.where(
        reported, origin + _ROUND * g + _ALIGNED, origin + _ROUND * e
    )
    return finish()
