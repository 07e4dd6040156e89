"""Workloads modelled on the paper's motivating applications.

The introduction motivates deadlines with real-time industrial protocols
(WirelessHART, RT-Link, Glossy): sensors produce periodic readings that
are useless unless delivered within a bound.  These generators produce
that traffic shape — periodic per-sensor jobs with jitter, plus sporadic
alarm bursts — so the examples exercise the protocols on the scenario the
paper actually cares about.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import InvalidParameterError
from repro.sim.instance import Instance
from repro.sim.job import Job
from repro.workloads.thinning import thin_to_density

__all__ = ["sensor_network_instance", "alarm_burst_instance", "mixed_criticality_instance"]


def sensor_network_instance(
    rng: np.random.Generator,
    n_sensors: int,
    period: int,
    relative_deadline: int,
    n_periods: int,
    *,
    jitter: int = 0,
    phase_stagger: bool = True,
) -> Instance:
    """Periodic sensor traffic: each sensor emits once per period.

    Parameters
    ----------
    n_sensors:
        Number of sensors; each produces ``n_periods`` jobs.
    period:
        Slots between consecutive readings of one sensor.
    relative_deadline:
        Window size of each job (must be <= period so instances of one
        sensor never self-overlap).
    jitter:
        Each release is perturbed by a uniform offset in [0, jitter].
    phase_stagger:
        Spread sensor phases uniformly over the period (the usual
        provisioning trick); when False all sensors fire together,
        the worst case.
    """
    if n_sensors < 0 or n_periods < 0:
        raise InvalidParameterError("counts must be >= 0")
    if period <= 0 or relative_deadline <= 0:
        raise InvalidParameterError("period and deadline must be positive")
    if relative_deadline > period:
        raise InvalidParameterError(
            f"relative_deadline {relative_deadline} exceeds period {period}"
        )
    if jitter < 0:
        raise InvalidParameterError("jitter must be >= 0")
    if jitter > period - relative_deadline:
        raise InvalidParameterError(
            f"jitter {jitter} exceeds the per-sensor slack "
            f"{period - relative_deadline} (period - relative_deadline), "
            "so consecutive readings of one sensor could overlap"
        )
    jobs: List[Job] = []
    jid = 0
    for s in range(n_sensors):
        phase = (s * period) // max(n_sensors, 1) if phase_stagger else 0
        for k in range(n_periods):
            r = phase + k * period
            if jitter:
                r += int(rng.integers(0, jitter + 1))
            jobs.append(Job(jid, r, r + relative_deadline))
            jid += 1
    return Instance(sorted(jobs, key=lambda j: (j.release, j.deadline, j.job_id)))


def alarm_burst_instance(
    rng: np.random.Generator,
    n_alarms: int,
    burst_slot: int,
    window: int,
    *,
    spread: int = 0,
) -> Instance:
    """An emergency burst: many urgent messages at (nearly) one instant.

    Models the alarm-flood scenario of industrial monitoring — a plant
    event trips ``n_alarms`` sensors within ``spread`` slots, each needing
    delivery within ``window`` slots.
    """
    if n_alarms < 0 or window <= 0 or spread < 0:
        raise InvalidParameterError("invalid alarm parameters")
    jobs: List[Job] = []
    for i in range(n_alarms):
        r = burst_slot + (int(rng.integers(0, spread + 1)) if spread else 0)
        jobs.append(Job(i, r, r + window))
    return Instance(sorted(jobs, key=lambda j: (j.release, j.deadline, j.job_id)))


def mixed_criticality_instance(
    rng: np.random.Generator,
    horizon: int,
    *,
    critical_rate: float = 0.01,
    critical_window: int = 64,
    bulk_rate: float = 0.02,
    bulk_window: int = 1024,
    gamma: Optional[float] = None,
) -> Instance:
    """Safety-critical control traffic sharing the channel with bulk telemetry.

    Two Poisson flows: *critical* jobs with tight windows and *bulk* jobs
    with loose ones — the QoS-prioritization scenario of Section 1.  If
    ``gamma`` is given the combined instance is thinned to feasibility.
    """
    if horizon <= 0:
        raise InvalidParameterError("horizon must be positive")
    if critical_window <= 0 or bulk_window <= 0:
        raise InvalidParameterError("windows must be positive")
    jobs: List[Job] = []
    jid = 0
    for t in range(horizon):
        for _ in range(int(rng.poisson(critical_rate))):
            jobs.append(Job(jid, t, t + critical_window))
            jid += 1
        for _ in range(int(rng.poisson(bulk_rate))):
            jobs.append(Job(jid, t, t + bulk_window))
            jid += 1
    inst = Instance(jobs)
    if gamma is not None:
        inst = thin_to_density(inst, gamma, rng).relabeled()
    return inst
