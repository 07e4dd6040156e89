"""Vectorized numpy fast paths, cross-validated against the slot engine.

Each protocol stage has one vectorized implementation, the one the
**full-protocol kernels** run: ``aligned_full`` (ALIGNED's class runs
under the pecking order), ``punctual_full`` (PUNCTUAL's batch cohort,
its anarchist stage included) and the engine-exact UNIFORM replay in
``batched``, which resolves slots with ``uniform_fast``.  They replay
whole engine runs as array programs; ``batched.seed_route`` routes a
seed vector of ``run_seeds(fastpath=...)`` onto them.

The component entry points run that same code one stage at a time, for
analysis scripts and experiments: ``estimation_fast`` (many estimation
trials at once), ``aligned_fast`` (one class run, the one
``run_pecking_region`` plays for every occupied class) and
``uniform_fast`` (one UNIFORM trial).
"""

from repro.fastpath.aligned_fast import ClassRunResult, simulate_class_run_fast
from repro.fastpath.aligned_full import run_pecking_region, simulate_aligned_full
from repro.fastpath.batched import (
    KERNEL_VERSION,
    FastpathPlan,
    FastpathUnavailableError,
    plan_fastpath,
    seed_route,
    simulate_fastpath,
)
from repro.fastpath.estimation_fast import (
    estimation_success_counts,
    simulate_estimation_fast,
)
from repro.fastpath.fullproto import (
    FullProtocolResult,
    digest_for,
    union_active_slots,
)
from repro.fastpath.punctual_full import simulate_punctual_full
from repro.fastpath.uniform_fast import UniformFastResult, simulate_uniform_fast

__all__ = [
    "ClassRunResult",
    "simulate_class_run_fast",
    "run_pecking_region",
    "simulate_aligned_full",
    "KERNEL_VERSION",
    "FastpathPlan",
    "FastpathUnavailableError",
    "plan_fastpath",
    "seed_route",
    "simulate_fastpath",
    "estimation_success_counts",
    "simulate_estimation_fast",
    "FullProtocolResult",
    "digest_for",
    "union_active_slots",
    "simulate_punctual_full",
    "UniformFastResult",
    "simulate_uniform_fast",
]
