"""Vectorized single-class ALIGNED runs (estimation + broadcast).

One class occupancy, played by
:func:`~repro.fastpath.aligned_full._run_occupied` — the code the full
ALIGNED kernel runs for every occupied class — over consecutive steps:
the statistics behind Theorem 14 at the granularity of one window, with
optional jamming and an optional active-step budget (truncation).  The
pecking-order interaction across classes is left to the full kernel and
the slot engine; this answers "given the active steps, does the class
algorithm deliver everyone?" over many trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.broadcast import total_active_steps
from repro.errors import InvalidParameterError
from repro.fastpath.aligned_full import _run_occupied
from repro.params import AlignedParams

__all__ = ["ClassRunResult", "simulate_class_run_fast"]


@dataclass(frozen=True)
class ClassRunResult:
    """Outcome of one full class run (estimation + broadcast)."""

    n_jobs: int
    estimate: int
    n_succeeded: int
    active_steps: int
    truncated: bool

    @property
    def all_succeeded(self) -> bool:
        return self.n_succeeded == self.n_jobs

    @property
    def n_failed(self) -> int:
        return self.n_jobs - self.n_succeeded


def simulate_class_run_fast(
    n_jobs: int,
    level: int,
    params: AlignedParams,
    rng: np.random.Generator,
    *,
    p_jam: float = 0.0,
    active_step_budget: Optional[int] = None,
) -> ClassRunResult:
    """One class run: estimate, then broadcast, within an optional budget.

    ``active_step_budget`` models pecking-order truncation: if the budget
    ends during estimation the estimate resolves to 0 and nobody
    broadcasts (the paper's truncation rule); if it ends mid-broadcast,
    the jobs whose picks fall before the cut are still delivered, as in
    the engine, and the rest give up.
    """
    if n_jobs < 0 or level < 1:
        raise InvalidParameterError(
            f"need n_jobs >= 0 and level >= 1, got {n_jobs} and {level}"
        )
    # The estimate caps at the window 2^level, and so does the run.
    steps = total_active_steps(level, 1 << level, params.lam)
    if active_step_budget is not None:
        steps = min(steps, active_step_budget)
    success = np.zeros(n_jobs, dtype=bool)
    unit = np.full(n_jobs, -1, dtype=np.int64)
    used, estimate = _run_occupied(
        np.arange(n_jobs), level, np.arange(steps), params, rng, p_jam,
        success, unit, unit.copy(),
    )
    truncated = used < total_active_steps(level, estimate, params.lam)
    return ClassRunResult(
        n_jobs, estimate, int(success.sum()), used, truncated
    )
