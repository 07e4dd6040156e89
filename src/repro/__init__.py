"""repro — a reproduction of *Contention Resolution with Message Deadlines*.

Agrawal, Bender, Fineman, Gilbert, Young — SPAA 2020
(doi:10.1145/3350755.3400239).

Unit-length messages arrive over time on a shared multiple-access
channel, each with a delivery deadline.  For γ-slack-feasible inputs the
paper's protocols deliver every message within its window with high
probability in the window size.  This package implements the whole stack
from scratch:

* :mod:`repro.channel` — the slotted channel with collision detection,
  trinary feedback, and jamming adversaries;
* :mod:`repro.adversary` — the one ``family@severity`` adversary
  catalogue, and *reactive* adversaries that observe trinary channel
  feedback through a sanctioned read-only view and adapt their jamming
  (certified by :mod:`repro.experiments.certify`);
* :mod:`repro.sim` — jobs, instances, γ-slack feasibility, the slot
  engine, traces, and metrics;
* :mod:`repro.core` — the paper's protocols: **UNIFORM** (Section 2),
  **ALIGNED** (Section 3: pecking order, size estimation, batch
  broadcast), **PUNCTUAL** (Section 4: rounds, slingshot leader
  election, follow-the-leader, anarchists);
* :mod:`repro.baselines` — binary exponential backoff, sawtooth, slotted
  ALOHA, and the centralized-EDF genie;
* :mod:`repro.workloads` — aligned/general/adversarial/realistic
  instance generators;
* :mod:`repro.faults` — composable fault injection (jamming budgets,
  feedback corruption, clock skew/drift, job crashes) consulted by the
  engine, plus the runtime invariant checker in
  :mod:`repro.sim.invariants`;
* :mod:`repro.fastpath` — vectorized numpy equivalents of the
  statistically heavy inner loops;
* :mod:`repro.obs` — run telemetry: a metrics registry, typed protocol
  lifecycle events, wall-clock spans, and JSONL artifacts summarized by
  ``repro obs``;
* :mod:`repro.verify` — the differential verification harness: engine ↔
  fastpath cross-execution, metamorphic invariances, and the
  determinism audit behind ``repro verify``;
* :mod:`repro.analysis` — the paper's closed-form bounds, contention
  analyses, statistics, and plain-text tables.

Quick start::

    from repro import (
        AlignedParams, aligned_factory, simulate, single_class_instance,
    )
    inst = single_class_instance(n=8, level=8)
    result = simulate(inst, aligned_factory(AlignedParams.simulation()), seed=0)
    print(result.summary())
"""

from repro.adversary import (
    AdaptiveBudgetJammer,
    ChannelView,
    FeedbackReactiveJammer,
    LeaderAssassinJammer,
    ReactiveAdversary,
    StructureTargetedJammer,
)
from repro.baselines import (
    aloha_factory,
    beb_factory,
    edf_factory,
    edf_schedule,
    nocd_factory,
    sawtooth_factory,
    slowfeedback_factory,
    softened_factory,
    window_scaled_aloha_factory,
)
from repro.cache import ResultCache, run_key, stable_digest
from repro.channel import (
    BudgetJammer,
    BurstJammer,
    Feedback,
    MultipleAccessChannel,
    NoJammer,
    Observation,
    PaperGuaranteeWarning,
    PeriodicJammer,
    ReactiveJammer,
    StochasticJammer,
    WindowedRateJammer,
)
from repro.core import (
    AlignedProtocol,
    PunctualProtocol,
    TrimmedAlignedProtocol,
    UniformProtocol,
    aligned_factory,
    punctual_factory,
    trimmed_aligned_factory,
    trimmed_instance,
    trimmed_window,
    uniform_factory,
)
from repro.errors import (
    InvalidInstanceError,
    InvalidParameterError,
    InvariantViolationError,
    ProtocolViolationError,
    ReproError,
    SimulationError,
)
from repro.faults import ClockFault, FaultPlan, FeedbackFault, JobFault
from repro.obs import (
    EventLog,
    EventSink,
    MetricsRegistry,
    Telemetry,
    TelemetryArtifact,
    read_artifact,
)
from repro.params import AlignedParams, PunctualParams, UniformParams
from repro.sim import (
    Instance,
    InvariantChecker,
    Job,
    JobStatus,
    RngFactory,
    SimulationResult,
    is_slack_feasible,
    peak_density,
    simulate,
    slack_of,
)
from repro.sim.engine import ENGINE_VERSION
from repro.sim.validate import Certificate, Finding, Severity, certify
from repro.sim.watchdog import Watchdog, WatchdogTrip
from repro.workloads import (
    aligned_random_instance,
    batch_instance,
    harmonic_starvation_instance,
    poisson_instance,
    sensor_network_instance,
    single_class_instance,
    uniform_random_instance,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # params
    "AlignedParams",
    "PunctualParams",
    "UniformParams",
    # protocols
    "AlignedProtocol",
    "PunctualProtocol",
    "TrimmedAlignedProtocol",
    "UniformProtocol",
    "aligned_factory",
    "punctual_factory",
    "trimmed_aligned_factory",
    "uniform_factory",
    "trimmed_instance",
    "trimmed_window",
    # baselines
    "aloha_factory",
    "beb_factory",
    "edf_factory",
    "edf_schedule",
    "nocd_factory",
    "sawtooth_factory",
    "slowfeedback_factory",
    "softened_factory",
    "window_scaled_aloha_factory",
    # channel
    "BudgetJammer",
    "BurstJammer",
    "Feedback",
    "MultipleAccessChannel",
    "NoJammer",
    "Observation",
    "PaperGuaranteeWarning",
    "PeriodicJammer",
    "ReactiveJammer",
    "StochasticJammer",
    "WindowedRateJammer",
    # reactive adversaries
    "AdaptiveBudgetJammer",
    "ChannelView",
    "FeedbackReactiveJammer",
    "LeaderAssassinJammer",
    "ReactiveAdversary",
    "StructureTargetedJammer",
    # faults
    "ClockFault",
    "FaultPlan",
    "FeedbackFault",
    "JobFault",
    # observability
    "EventLog",
    "EventSink",
    "MetricsRegistry",
    "Telemetry",
    "TelemetryArtifact",
    "read_artifact",
    # sim
    "ENGINE_VERSION",
    "Instance",
    "InvariantChecker",
    "Job",
    "JobStatus",
    "RngFactory",
    "SimulationResult",
    "Watchdog",
    "WatchdogTrip",
    # cache
    "ResultCache",
    "run_key",
    "stable_digest",
    "is_slack_feasible",
    "peak_density",
    "simulate",
    "slack_of",
    "Certificate",
    "Finding",
    "Severity",
    "certify",
    # workloads
    "aligned_random_instance",
    "batch_instance",
    "harmonic_starvation_instance",
    "poisson_instance",
    "sensor_network_instance",
    "single_class_instance",
    "uniform_random_instance",
    # errors
    "ReproError",
    "InvalidInstanceError",
    "InvalidParameterError",
    "InvariantViolationError",
    "ProtocolViolationError",
    "SimulationError",
]
