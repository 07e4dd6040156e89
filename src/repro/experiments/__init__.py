"""Experiment utilities: grid sweeps, CIs, and capacity planning."""

from repro.experiments.capacity import (
    PunctualBudget,
    aligned_window_demand,
    max_feasible_gamma,
    punctual_overheads,
)
from repro.experiments.certify import (
    ADVERSARY_FAMILIES,
    BisectResult,
    BreakingPoint,
    CertificationReport,
    bisect_breaking_point,
    run_certification,
)
from repro.experiments.compare import ProtocolComparison, compare_protocols
from repro.experiments.frontier import (
    FrontierPoint,
    FrontierReport,
    run_frontier,
)
from repro.experiments.parallel import (
    BoundBuilder,
    ConstantFactory,
    ConstantInstance,
    ParallelJob,
    SeedDigest,
    SeedExecutionError,
    aggregate,
    compute_chunksize,
    run_seeds,
)
from repro.experiments.robustness import (
    FAULT_FAMILIES,
    ProfilePoint,
    RobustnessReport,
    run_robustness,
)
from repro.experiments.sweep import Sweep, SweepPoint

__all__ = [
    "ADVERSARY_FAMILIES",
    "BisectResult",
    "BreakingPoint",
    "CertificationReport",
    "bisect_breaking_point",
    "run_certification",
    "ProtocolComparison",
    "compare_protocols",
    "FrontierPoint",
    "FrontierReport",
    "run_frontier",
    "FAULT_FAMILIES",
    "ProfilePoint",
    "RobustnessReport",
    "run_robustness",
    "Sweep",
    "SweepPoint",
    "BoundBuilder",
    "ConstantFactory",
    "ConstantInstance",
    "ParallelJob",
    "SeedDigest",
    "SeedExecutionError",
    "aggregate",
    "compute_chunksize",
    "run_seeds",
    "PunctualBudget",
    "aligned_window_demand",
    "max_feasible_gamma",
    "punctual_overheads",
]
