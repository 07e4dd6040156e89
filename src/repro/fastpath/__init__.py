"""Vectorized numpy fast paths, cross-validated against the slot engine.

Two tiers live here:

* **component kernels** (``estimation_fast``, ``broadcast_fast``,
  ``aligned_fast`` class runs, ``anarchist_fast``, ``uniform_fast``) —
  one protocol stage at a time, used by analysis scripts and as paired
  references in the verify battery;
* **full-protocol kernels** (``aligned_full``, ``punctual_full``, the
  engine-exact UNIFORM replay in ``batched``) — whole engine runs as
  array programs, plus the routing helper ``batched.seed_route`` by
  which ``run_seeds(fastpath=...)`` runs a seed vector on them.
"""

from repro.fastpath.aligned_fast import ClassRunResult, simulate_class_run_fast
from repro.fastpath.aligned_full import run_pecking_region, simulate_aligned_full
from repro.fastpath.anarchist_fast import (
    AnarchistFastResult,
    simulate_anarchists_fast,
)
from repro.fastpath.batched import (
    KERNEL_VERSION,
    FastpathPlan,
    FastpathUnavailableError,
    plan_fastpath,
    seed_route,
    simulate_fastpath,
)
from repro.fastpath.broadcast_fast import BroadcastFastResult, simulate_broadcast_fast
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
    "AnarchistFastResult",
    "simulate_anarchists_fast",
    "KERNEL_VERSION",
    "FastpathPlan",
    "FastpathUnavailableError",
    "plan_fastpath",
    "seed_route",
    "simulate_fastpath",
    "BroadcastFastResult",
    "simulate_broadcast_fast",
    "estimation_success_counts",
    "simulate_estimation_fast",
    "FullProtocolResult",
    "digest_for",
    "union_active_slots",
    "simulate_punctual_full",
    "UniformFastResult",
    "simulate_uniform_fast",
]
