"""Simulation results and aggregate metrics.

:class:`JobOutcome` records the fate of one job; :class:`SimulationResult`
bundles all outcomes with the optional trace and offers the aggregate
views the experiments report: overall success rate, success rate keyed by
window size, deadline-miss lists, and transmission-count statistics (the
paper's guarantees are per-job *with high probability in the window size*,
so per-window-size breakdowns are the headline measurement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.sim.instance import Instance
from repro.sim.job import Job, JobStatus
from repro.sim.trace import TraceRecorder
from repro.sim.watchdog import WatchdogTrip

__all__ = ["JobOutcome", "SimulationResult"]


@dataclass(frozen=True, slots=True)
class JobOutcome:
    """The fate of one job in one simulation run.

    Attributes
    ----------
    job:
        The job (window included).
    status:
        Terminal :class:`JobStatus`.
    completion_slot:
        Slot of the successful broadcast, or -1.
    transmissions:
        Number of slots in which the job transmitted anything (control
        messages included) — the job's channel-access cost.  This is the
        *energy* metric of the modern backoff literature (each send
        attempt costs one unit, regardless of outcome).
    jammed_transmissions:
        How many of those attempts landed in a jammed slot — energy the
        adversary burned directly.  Always ``<= transmissions``; 0 in
        unjammed runs.
    """

    job: Job
    status: JobStatus
    completion_slot: int
    transmissions: int
    jammed_transmissions: int = 0

    @property
    def succeeded(self) -> bool:
        return self.status is JobStatus.SUCCEEDED

    @property
    def energy(self) -> int:
        """Channel-access energy: one unit per send attempt."""
        return self.transmissions

    @property
    def latency(self) -> int:
        """Slots from release to success (inclusive); -1 on failure."""
        if not self.succeeded:
            return -1
        return self.completion_slot - self.job.release + 1


@dataclass
class SimulationResult:
    """All outcomes of one simulation run plus aggregates.

    ``watchdog`` is ``None`` for a run that completed normally; a
    :class:`~repro.sim.watchdog.WatchdogTrip` marks a run cancelled by
    an attached :class:`~repro.sim.watchdog.Watchdog` — outcomes are
    then *partial*: jobs still live at the cut are recorded as failed.

    ``channel_attempts`` is the channel-side count of send attempts
    across the run (the sum of per-slot transmitter counts); -1 when the
    producing path did not track it.  On a fault-free engine run it
    equals the sum of per-job ``transmissions`` — the conservation law
    the verify battery checks.
    """

    instance: Instance
    outcomes: Tuple[JobOutcome, ...]
    slots_simulated: int
    trace: Optional[TraceRecorder] = None
    watchdog: Optional[WatchdogTrip] = None
    channel_attempts: int = -1

    def __post_init__(self) -> None:
        self._by_id: Dict[int, JobOutcome] = {
            o.job.job_id: o for o in self.outcomes
        }

    # -- lookups -------------------------------------------------------------

    def outcome_of(self, job_id: int) -> JobOutcome:
        return self._by_id[job_id]

    def __len__(self) -> int:
        return len(self.outcomes)

    # -- aggregates ------------------------------------------------------------

    @property
    def n_succeeded(self) -> int:
        return sum(1 for o in self.outcomes if o.succeeded)

    @property
    def success_rate(self) -> float:
        """Fraction of jobs that delivered by their deadline (1.0 if empty)."""
        if not self.outcomes:
            return 1.0
        return self.n_succeeded / len(self.outcomes)

    @property
    def missed(self) -> Tuple[JobOutcome, ...]:
        """Outcomes of jobs that failed to deliver."""
        return tuple(o for o in self.outcomes if not o.succeeded)

    def success_by_window(self) -> Mapping[int, Tuple[int, int]]:
        """``window size -> (successes, total)`` — the per-w_j guarantee view."""
        acc: Dict[int, List[int]] = {}
        for o in self.outcomes:
            s, t = acc.setdefault(o.job.window, [0, 0])
            acc[o.job.window][0] = s + (1 if o.succeeded else 0)
            acc[o.job.window][1] = t + 1
        return {w: (s, t) for w, (s, t) in sorted(acc.items())}

    def latencies(self) -> np.ndarray:
        """Latencies of successful jobs (slots from release to success)."""
        return np.array(
            [o.latency for o in self.outcomes if o.succeeded], dtype=np.int64
        )

    def transmission_counts(self) -> np.ndarray:
        """Per-job channel-access counts (all jobs)."""
        return np.array([o.transmissions for o in self.outcomes], dtype=np.int64)

    # -- channel-access energy -----------------------------------------------

    @property
    def total_energy(self) -> int:
        """Total send attempts across all jobs (one energy unit each)."""
        return sum(o.transmissions for o in self.outcomes)

    @property
    def mean_energy(self) -> float:
        """Mean send attempts per job (nan on an empty instance)."""
        if not self.outcomes:
            return float("nan")
        return self.total_energy / len(self.outcomes)

    @property
    def jammed_energy(self) -> int:
        """Send attempts that landed in jammed slots."""
        return sum(o.jammed_transmissions for o in self.outcomes)

    @property
    def energy_per_success(self) -> float:
        """Total energy divided by successes (nan when none succeeded)."""
        ok = self.n_succeeded
        if not ok:
            return float("nan")
        return self.total_energy / ok

    def energy_by_window(self) -> Mapping[int, float]:
        """Mean send attempts per job, keyed by window size."""
        acc: Dict[int, List[int]] = {}
        for o in self.outcomes:
            acc.setdefault(o.job.window, []).append(o.transmissions)
        return {w: float(np.mean(v)) for w, v in sorted(acc.items())}

    def normalized_latencies(self) -> np.ndarray:
        """Latency divided by window size, per successful job (in (0, 1])."""
        vals = [
            o.latency / o.job.window for o in self.outcomes if o.succeeded
        ]
        return np.array(vals, dtype=np.float64)

    def latency_percentiles(
        self, qs: Sequence[float] = (50, 90, 99)
    ) -> Mapping[float, float]:
        """Latency percentiles over successful jobs (nan when none)."""
        lat = self.latencies()
        if lat.size == 0:
            return {q: float("nan") for q in qs}
        vals = np.percentile(lat, list(qs))
        return {q: float(v) for q, v in zip(qs, vals)}

    def latency_by_window(self) -> Mapping[int, float]:
        """Mean latency of successful jobs, keyed by window size."""
        acc: Dict[int, List[int]] = {}
        for o in self.outcomes:
            if o.succeeded:
                acc.setdefault(o.job.window, []).append(o.latency)
        return {
            w: float(np.mean(v)) for w, v in sorted(acc.items())
        }

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        lines = [
            f"{self.instance.summary()}",
            f"slots simulated: {self.slots_simulated}",
            f"success: {self.n_succeeded}/{len(self.outcomes)} "
            f"({self.success_rate:.3f})",
        ]
        for w, (s, t) in self.success_by_window().items():
            lines.append(f"  window {w:>6}: {s}/{t}")
        tx = self.transmission_counts()
        if tx.size:
            lines.append(
                f"transmissions/job: mean {tx.mean():.2f}, max {tx.max()}"
            )
            jam = self.jammed_energy
            line = f"energy: {self.total_energy} attempts"
            if jam:
                line += f" ({jam} into jammed slots)"
            lines.append(line)
        return "\n".join(lines)
