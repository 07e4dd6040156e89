"""Metamorphic invariances of the simulation engine.

Each check runs the same case twice under a transformation that must not
change the outcome, and reports any drift as discrepancies:

* **time shift** — translating every window by Δ shifts every completion
  slot by exactly Δ and changes nothing else (per-job streams are keyed
  by job id, ages are relative, and the channel stream advances through
  the same slot sequence);
* **presentation order** — shuffling the order jobs are listed in the
  ``Instance`` is invisible (every engine view sorts by release);
* **zero-probability jammer** — ``StochasticJammer(0.0)`` must be
  indistinguishable from no jammer at all: it consumes channel-stream
  draws, but that stream feeds no protocol;
* **observational toggles** — attaching telemetry, enabling the
  invariant checker, and arming a never-tripping watchdog are
  observation-only and must leave results bit-identical.  The checker
  also moves every job from the slot core's direct hook binding to the
  guarded ``act``/``observe``, so this compares the two bindings.

Deliberately *not* an invariance: permuting job **ids**.  Per-job
randomness is keyed by id (that is what makes paired comparisons and
replay possible), so re-labeling jobs re-deals their draws.  The sound
order-insensitivity claim is the presentation-order check above;
``docs/VERIFICATION.md`` discusses the distinction.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.channel.jamming import StochasticJammer
from repro.obs.telemetry import Telemetry
from repro.sim.engine import simulate
from repro.sim.instance import Instance
from repro.sim.metrics import SimulationResult
from repro.sim.watchdog import Watchdog
from repro.verify.corpus import VerifyCase
from repro.verify.report import Discrepancy

__all__ = [
    "check_observational_toggles",
    "check_presentation_order",
    "check_time_shift",
    "check_zero_jammer",
]


def _compare(
    case: VerifyCase,
    seed: int,
    check: str,
    base: SimulationResult,
    other: SimulationResult,
    *,
    shift: int = 0,
    detail: str = "",
) -> List[Discrepancy]:
    """Field-wise comparison; ``shift`` offsets the transformed run."""
    out: List[Discrepancy] = []

    def mismatch(quantity: str, expected, actual) -> None:
        out.append(
            Discrepancy(
                case=case.name,
                seed=seed,
                check=check,
                quantity=quantity,
                expected=str(expected),
                actual=str(actual),
                detail=detail,
            )
        )

    if base.slots_simulated != other.slots_simulated:
        mismatch("slots_simulated", base.slots_simulated, other.slots_simulated)
    if len(base.outcomes) != len(other.outcomes):
        mismatch("n_outcomes", len(base.outcomes), len(other.outcomes))
        return out
    for a, b in zip(base.outcomes, other.outcomes):
        jid = a.job.job_id
        if a.status is not b.status:
            mismatch(f"job[{jid}].status", a.status.name, b.status.name)
        expected_slot = (
            a.completion_slot + shift if a.completion_slot >= 0 else -1
        )
        if expected_slot != b.completion_slot:
            mismatch(
                f"job[{jid}].completion_slot",
                expected_slot,
                b.completion_slot,
            )
        if a.transmissions != b.transmissions:
            mismatch(
                f"job[{jid}].transmissions", a.transmissions, b.transmissions
            )
    return out


def check_time_shift(
    case: VerifyCase, seed: int, delta: Optional[int] = None
) -> List[Discrepancy]:
    """Shifting the whole instance by Δ must shift results by exactly Δ.

    Δ defaults to ``max_window * ROUND_LENGTH`` so the shift preserves
    both power-of-two window alignment (ALIGNED's structure) and round
    phase (PUNCTUAL's), keeping the equivariance claim exact for every
    protocol family.
    """
    base = simulate(
        case.instance(), case.factory(), jammer=case.jammer(), seed=seed
    )
    if delta is None:
        from repro.core.rounds import ROUND_LENGTH

        delta = max(case.instance().max_window, 1) * ROUND_LENGTH
    shifted = simulate(
        case.instance().shifted(delta),
        case.factory(),
        jammer=case.jammer(),
        seed=seed,
    )
    return _compare(
        case, seed, "time-shift", base, shifted,
        shift=delta, detail=f"delta={delta}",
    )


def check_presentation_order(case: VerifyCase, seed: int) -> List[Discrepancy]:
    """Shuffling the jobs tuple (ids untouched) must change nothing."""
    base = simulate(
        case.instance(), case.factory(), jammer=case.jammer(), seed=seed
    )
    jobs = list(case.instance().jobs)
    random.Random(seed).shuffle(jobs)
    shuffled = simulate(
        Instance(jobs), case.factory(), jammer=case.jammer(), seed=seed
    )
    return _compare(case, seed, "presentation-order", base, shuffled)


def check_zero_jammer(case: VerifyCase, seed: int) -> List[Discrepancy]:
    """A p_jam = 0 jammer must be indistinguishable from no jammer.

    Only meaningful for cases whose own jammer is ``None`` (otherwise
    the comparison would remove the case's adversary).
    """
    base = simulate(case.instance(), case.factory(), jammer=None, seed=seed)
    zero = simulate(
        case.instance(),
        case.factory(),
        jammer=StochasticJammer(0.0),
        seed=seed,
    )
    return _compare(case, seed, "zero-jammer", base, zero)


def check_observational_toggles(
    case: VerifyCase, seed: int
) -> List[Discrepancy]:
    """Telemetry + invariants + a slack watchdog must not change results."""
    base = simulate(
        case.instance(), case.factory(), jammer=case.jammer(), seed=seed
    )
    instrumented = simulate(
        case.instance(),
        case.factory(),
        jammer=case.jammer(),
        seed=seed,
        telemetry=Telemetry(label="verify-toggle"),
        invariants=True,
        watchdog=Watchdog(max_slots=10**9),
    )
    return _compare(
        case, seed, "observational-toggles", base, instrumented,
        detail="telemetry + invariants + slack watchdog",
    )
