"""Seed routing and the full-protocol kernel trials.

:func:`seed_route` decides, once per seed vector, which path runs the
seeds and under which cache key each result lives:
:func:`repro.experiments.parallel.run_seeds` executes by it and campaign
planning predicts cache hits by it.  The instance is built once, the
plan is qualified once, and cache keys for every seed come from one
shared-prefix hash walk (:func:`repro.cache.run_key_batch`).  A kernel
trial (:func:`simulate_fastpath`) runs a whole protocol execution as a
handful of array operations
(:func:`~repro.fastpath.aligned_full.simulate_aligned_full`,
:func:`~repro.fastpath.punctual_full.simulate_punctual_full`, or the
engine-exact UNIFORM replay below); ``run_seeds`` runs them inline,
seed-major, through its own cache, progress and retry loop.

Qualification is explicit and conservative: :func:`plan_fastpath`
returns a :class:`FastpathPlan` only when the kernel provably models the
configuration — no fault injection, no invariant checking, a benign or
success-jamming stochastic adversary, a watchdog that cannot trip, and
an instance shape the kernel covers.  Everything else gets a reason
string back and stays on the reference engine.

Exactness contract per kind:

* ``uniform`` — **bit-exact** with the engine, including under
  :class:`~repro.channel.jamming.StochasticJammer`: single-attempt
  UNIFORM lets the kernel replay the engine's per-job offset draws and
  its channel-stream jam coins (drawn per single-transmitter slot in
  slot order), so digests are equal field-for-field;
* ``aligned`` / ``punctual`` — **statistically equivalent**: the kernels
  consume their own ``"fastpath"`` RNG stream, so per-seed digests
  differ from the engine's but agree in distribution (cross-checked by
  the ``repro verify`` battery).

Cache keys carry an ``("fastpath", kind, KERNEL_VERSION, ...)`` extra so
kernel digests can never collide with engine digests — even for the
bit-exact UNIFORM replay the namespaces stay separate, which keeps a
kernel bug from ever poisoning engine-path results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.cache import run_key_batch
from repro.channel.jamming import Jammer, NoJammer, StochasticJammer
from repro.errors import ReproError
from repro.experiments.parallel import FactoryBuilder, SeedDigest
from repro.fastpath.aligned_full import simulate_aligned_full
from repro.fastpath.fullproto import (
    FullProtocolResult,
    digest_for,
    union_active_slots,
)
from repro.fastpath.punctual_full import simulate_punctual_full
from repro.sim.engine import resolve_adversary
from repro.sim.instance import Instance
from repro.sim.job import window_class
from repro.sim.rng import RngFactory
from repro.sim.watchdog import Watchdog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults import FaultPlan
    from repro.obs.telemetry import Telemetry

__all__ = [
    "KERNEL_VERSION",
    "FastpathPlan",
    "FastpathUnavailableError",
    "plan_fastpath",
    "record_trial",
    "seed_route",
    "simulate_fastpath",
]

#: Bump when any kernel's semantics change; folded into every kernel
#: cache key so stale digests can never be served after a fix.
KERNEL_VERSION = 1


class FastpathUnavailableError(ReproError):
    """``fastpath="on"`` was requested for a configuration no kernel covers."""


@dataclass(frozen=True)
class FastpathPlan:
    """A qualified kernel execution: everything a trial needs but the seed.

    Produced by :func:`plan_fastpath` (for a seed vector, through
    :func:`seed_route`); consumed by :func:`simulate_fastpath`.
    ``watchdog`` is the caller's enabled-but-vacuous watchdog (or
    ``None``) — the kernel never trips it, but it must still join cache
    keys because the engine path folds it into its own keys.
    """

    kind: str  # "uniform" | "aligned" | "punctual"
    instance: Instance
    params: Any
    p_jam: float
    watchdog: Optional[Watchdog] = None


def _watchdog_is_vacuous(wd: Watchdog, instance: Instance) -> bool:
    """Whether ``wd`` provably cannot trip on any run of ``instance``.

    The engine simulates at most ``horizon - first_release`` slots (the
    active-interval union is contained in that span), so slot budgets
    and stall windows at least that large can never fire.  Wall-clock
    budgets depend on machine load and are never vacuous.
    """
    if wd.max_seconds is not None:
        return False
    if len(instance) == 0:
        return True
    span = instance.horizon - instance.first_release
    if wd.max_slots is not None and wd.max_slots < span:
        return False
    if (
        wd.stall_factor is not None
        and wd.stall_slots(instance.max_window) < span
    ):
        return False
    return True


def plan_fastpath(
    instance: Instance,
    factory: Any,
    *,
    jammer: Optional[Jammer] = None,
    faults: Optional["FaultPlan"] = None,
    watchdog: Optional[Watchdog] = None,
    check_invariants: bool = False,
) -> Tuple[Optional[FastpathPlan], str]:
    """Qualify a configuration for kernel execution.

    Returns ``(plan, "")`` when a kernel covers it, else
    ``(None, reason)`` with a human-readable reason the caller can
    surface (``fastpath="on"`` turns it into an error, ``"auto"`` into a
    silent engine fallback).

    ``factory`` is the protocol factory returned by
    ``uniform_factory``/``aligned_factory``/``punctual_factory`` — those
    attach ``fastpath_kind``/``fastpath_params`` markers; any other
    callable (custom protocols, instrumented wrappers) has no marker and
    declines.
    """
    kind = getattr(factory, "fastpath_kind", None)
    params = getattr(factory, "fastpath_params", None)
    if kind is None or params is None:
        return None, "protocol factory exposes no fastpath kernel marker"
    if check_invariants:
        return None, "invariant checking requires the engine"
    if faults is not None and not getattr(faults, "is_noop", False):
        return None, "fault injection requires the engine"

    if jammer is None or isinstance(jammer, NoJammer):
        p_jam = 0.0
    elif isinstance(jammer, StochasticJammer) and not jammer.jam_silence:
        p_jam = jammer.p_jam
    else:
        return None, (
            f"jammer {type(jammer).__name__} is not modelled by the "
            "kernels (only NoJammer / success-jamming StochasticJammer)"
        )

    wd = watchdog if watchdog is not None and watchdog.enabled else None
    if wd is not None and not _watchdog_is_vacuous(wd, instance):
        return None, (
            "watchdog could trip on this instance (kernels cannot "
            "reproduce partial digests)"
        )

    if kind == "uniform":
        if params.attempts != 1:
            return None, (
                f"UNIFORM kernel replays single-attempt runs only "
                f"(attempts={params.attempts})"
            )
    elif kind == "aligned":
        if params.min_level < 1:
            return None, "ALIGNED kernel requires min_level >= 1"
        if not instance.is_aligned:
            return None, "ALIGNED kernel requires an aligned instance"
        low = [
            j for j in instance if window_class(j.window) < params.min_level
        ]
        if low:
            return None, (
                f"{len(low)} job(s) below min_level {params.min_level}"
            )
    elif kind == "punctual":
        if len(instance.by_window) > 1:
            return None, (
                "PUNCTUAL kernel covers batch instances (one shared "
                f"window; got {len(instance.by_window)} groups)"
            )
    else:  # pragma: no cover - marker from a future factory
        return None, f"unknown fastpath kind {kind!r}"

    return FastpathPlan(kind, instance, params, p_jam, wd), ""


def seed_route(
    instance: Instance,
    protocol: FactoryBuilder,
    seeds: Sequence[int],
    *,
    jammer: Optional[Jammer] = None,
    faults: Optional["FaultPlan"] = None,
    watchdog: Optional[Watchdog] = None,
    check_invariants: bool = False,
    fastpath: str = "off",
    keyed: bool = True,
) -> Tuple[Optional[FastpathPlan], str, List[Optional[str]]]:
    """Which path runs these seeds, and the cache key of each.

    The experiment layer's one routing decision:
    :func:`~repro.experiments.parallel.run_seeds` executes by it and
    campaign planning predicts cache hits by it, so the two agree by
    construction.  Returns ``(plan, reason, keys)``: the kernel plan, or
    ``None`` plus the reason no kernel qualified (``fastpath="off"``
    never plans); and one key per seed from a single
    :func:`~repro.cache.run_key_batch` walk (all ``None`` unless
    ``keyed``).  Kernel keys live in the ``("fastpath", kind,
    KERNEL_VERSION, watchdog)`` namespace; engine keys fold in the
    watchdog only when it is enabled, so clean runs keep their
    historical addresses.

    A plan that carries only a jammer runs exactly like ``jammer=``
    with that jammer (:func:`~repro.sim.engine.resolve_adversary`), so
    it routes and keys as that jammer.  Any other plan stays in the key
    as given and declines the kernels.
    """
    rest, run_jammer = resolve_adversary(faults, jammer)
    if rest is None:
        faults, jammer = None, run_jammer
    plan, reason = None, "fastpath is off"
    if fastpath != "off":
        plan, reason = plan_fastpath(
            instance,
            protocol(instance),
            jammer=jammer,
            faults=faults,
            watchdog=watchdog,
            check_invariants=check_invariants,
        )
    if not keyed:
        return plan, reason, [None] * len(seeds)
    if plan is not None:
        extra: Any = ("fastpath", plan.kind, KERNEL_VERSION, plan.watchdog)
    elif watchdog is not None and watchdog.enabled:
        extra = ("watchdog", watchdog)
    else:
        extra = None
    keys = run_key_batch(
        instance=instance,
        protocol=protocol,
        seeds=seeds,
        jammer=jammer,
        faults=faults,
        extra=extra,
    )
    return plan, reason, keys


# ---------------------------------------------------------------------------
# per-kind trials
# ---------------------------------------------------------------------------


def _uniform_exact(
    instance: Instance, seed: int, p_jam: float
) -> FullProtocolResult:
    """Engine-exact replay of a single-attempt UNIFORM run.

    Reproduces the engine's randomness stream-for-stream: each job's
    slot offset is the first (only) ``choice`` draw of its ``"job"``
    stream, and jam coins come off the ``"channel"`` stream exactly
    where :class:`~repro.channel.jamming.StochasticJammer` draws them —
    once per single-transmitter slot, in increasing slot order.  Every
    job retires at its transmit slot (success or exhausted), so the
    digest matches the engine field-for-field.
    """
    jobs = instance.by_release
    n = len(jobs)
    factory = RngFactory(seed)
    factory.prepare("job", [job.job_id for job in jobs])
    releases = np.array([j.release for j in jobs], dtype=np.int64)
    offsets = np.empty(n, dtype=np.int64)
    for i, job in enumerate(jobs):
        picks = factory.fresh("job", job.job_id).choice(
            job.window, size=1, replace=False
        )
        offsets[i] = int(picks[0])
    slots = releases + offsets
    uniq, inverse, counts = np.unique(
        slots, return_inverse=True, return_counts=True
    )
    success = counts[inverse] == 1
    if p_jam > 0.0 and success.any():
        single = uniq[counts == 1]  # ascending: np.unique sorts
        coins = factory.fresh("channel").random(single.size)
        jammed = single[coins < p_jam]
        if jammed.size:
            success &= ~np.isin(slots, jammed)
    completion = np.where(success, slots, -1)
    # Single-attempt UNIFORM transmits exactly once per job, jammed or
    # not — engine-exact energy accounting for free.
    return FullProtocolResult(
        success,
        completion,
        slots,
        union_active_slots(releases, slots),
        attempts=np.ones(n, dtype=np.int64),
    )


def simulate_fastpath(plan: FastpathPlan, seed: int) -> SeedDigest:
    """One kernel trial; returns the engine-shaped :class:`SeedDigest`.

    ``aligned``/``punctual`` trials draw from the seed's dedicated
    ``"fastpath"`` stream (untouched by the engine, so statistical
    comparisons never share randomness with engine runs); ``uniform``
    replays the engine's own streams bit-exactly.
    """
    if plan.kind == "uniform":
        result = _uniform_exact(plan.instance, seed, plan.p_jam)
    elif plan.kind == "aligned":
        result = simulate_aligned_full(
            plan.instance,
            plan.params,
            RngFactory(seed).fresh("fastpath"),
            p_jam=plan.p_jam,
        )
    else:
        result = simulate_punctual_full(
            plan.instance,
            plan.params,
            RngFactory(seed).fresh("fastpath"),
            p_jam=plan.p_jam,
        )
    return digest_for(seed, plan.instance, result)


def record_trial(
    telemetry: "Telemetry",
    jammer: Optional[Jammer],
    digest: SeedDigest,
    kind: str,
) -> None:
    """Mirror the engine's run-level telemetry counters for one trial.

    The kernels have no per-slot stream to feed
    :meth:`~repro.obs.telemetry.Telemetry.record_slot`, but the run- and
    job-level counters (``runs.total``, ``runs.jammed``, ``jobs.*``)
    keep the same meaning, so observability reports stay comparable
    across execution paths.  A miss of the ``kind`` kernel counts as
    ``jobs.gave_up`` for ``uniform`` (engine-exact: a single-attempt job
    gives up after its one send) and as ``jobs.deadline_missed`` for
    ``aligned``/``punctual``, where the engine files almost every miss.
    """
    m = telemetry.metrics
    m.counter("runs.total").inc()
    if jammer is not None and type(jammer) is not NoJammer:
        # The engine normalizes NoJammer to "no adversary" before
        # telemetry (sim/engine.py); match it.
        m.counter("runs.jammed").inc()
    missed = digest.n_jobs - digest.n_succeeded
    gave_up = missed if kind == "uniform" else 0
    m.counter("jobs.total").inc(digest.n_jobs)
    m.counter("jobs.succeeded").inc(digest.n_succeeded)
    m.counter("jobs.gave_up").inc(gave_up)
    m.counter("jobs.deadline_missed").inc(missed - gave_up)
    if digest.attempts_sum >= 0:
        m.counter("jobs.energy").inc(digest.attempts_sum)
