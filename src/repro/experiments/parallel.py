"""Parallel seed replication across processes, with result caching.

Monte-Carlo experiments here are embarrassingly parallel across seeds:
every run is deterministic in ``(instance, seed)`` and runs share
nothing.  :func:`run_seeds` fans the seed range out over a process pool
and returns per-seed digests; aggregation stays in the parent.

Design notes (per the scientific-Python guidance of profiling first and
parallelizing the outer loop):

* work is shipped as *parameters*, not closures — the worker rebuilds
  the instance and protocol from a :class:`ParallelJob` spec, keeping
  everything picklable and the per-task payload tiny;
* results come back as small :class:`SeedDigest` records (success
  counts, per-window tallies, latency sums), not full
  ``SimulationResult`` objects, so IPC stays negligible compared to
  simulation time;
* tasks go to the shared pool of :mod:`repro.pool` in *chunks* (an
  explicit ``chunksize`` computed from the seed count) so it does not
  pay one IPC round-trip per seed; results stream back as chunks
  complete, observed by a ``progress`` callback, yet return in seed order;
* worker exceptions are captured with the failing seed attached and
  re-raised in the parent as :class:`SeedExecutionError`, instead of a
  bare traceback that has forgotten which task died;
* one call to :func:`repro.fastpath.batched.seed_route` decides the
  path (engine, or a vectorized kernel under ``fastpath=``) and every
  seed's cache key; with a ``cache=``, each seed's digest is looked up
  by that address first and only uncached seeds run — a warm re-run
  performs zero ``simulate`` calls;
* `processes=1` (the default) runs inline with zero multiprocessing
  overhead — identical results, so tests can compare the two paths.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cache import ResultCache, as_cache, stable_digest
# Unused here: bench/tracing.py patches this name on this module.
from repro.cache import run_key  # noqa: F401
from repro.channel.jamming import Jammer
from repro.errors import ReproError
from repro.pool import TaskFailure, compute_chunksize, run_all
from repro.retrypolicy import BACKOFF_CAP_SECONDS, RetryPolicy
from repro.sim.engine import ProtocolFactory, resolve_adversary, simulate
from repro.sim.instance import Instance
from repro.sim.watchdog import REASON_WALL, Watchdog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fastpath.batched import FastpathPlan
    from repro.faults import FaultPlan
    from repro.obs.ledger import RunLedger
    from repro.obs.telemetry import Telemetry

__all__ = [
    "BACKOFF_CAP_SECONDS",
    "BoundBuilder",
    "ConstantFactory",
    "ConstantInstance",
    "ParallelJob",
    "SeedDigest",
    "SeedExecutionError",
    "aggregate",
    "compute_chunksize",
    "run_seeds",
]

#: Rebuilds the workload; must be a module-level (picklable) callable.
InstanceBuilder = Callable[[], Instance]

#: Builds the protocol factory for an instance; must be picklable.
FactoryBuilder = Callable[[Instance], ProtocolFactory]

#: Called after each seed completes: ``progress(done, total)``.
ProgressCallback = Callable[[int, int], None]


class SeedExecutionError(ReproError):
    """A worker failed while simulating one seed.

    Carries the failing seed plus the worker-side traceback — and, when
    the caller can supply them, the protocol's name and the content
    digest of the instance that was being simulated — so a crash in a
    thousand-seed sweep points at the one reproducible input instead of
    an anonymous traceback.
    """

    def __init__(
        self,
        seed: int,
        worker_traceback: str,
        *,
        protocol: Optional[str] = None,
        instance_digest: Optional[str] = None,
    ) -> None:
        context = [f"seed {seed}"]
        if protocol is not None:
            context.append(f"protocol {protocol}")
        if instance_digest is not None:
            context.append(f"instance {instance_digest[:12]}")
        super().__init__(
            f"{', '.join(context)} failed in a worker:\n{worker_traceback}"
        )
        self.seed = seed
        self.worker_traceback = worker_traceback
        self.protocol = protocol
        self.instance_digest = instance_digest


def _protocol_label(protocol: FactoryBuilder) -> str:
    """A short human-readable name for a protocol builder.

    A ``functools.partial`` is named by its function and its scalar
    positional arguments: its ``repr`` carries a memory address, which
    would make the label differ between processes.
    """
    name = getattr(protocol, "__qualname__", None)
    if name:
        module = getattr(protocol, "__module__", "")
        return f"{module}.{name}" if module else name
    if isinstance(protocol, functools.partial):
        scalars = [
            repr(a) for a in protocol.args if isinstance(a, (str, int, float))
        ]
        return f"{_protocol_label(protocol.func)}({', '.join(scalars)})"
    return repr(protocol)


@dataclass(frozen=True)
class ParallelJob:
    """Everything a worker needs to run one seed (picklable)."""

    build: InstanceBuilder
    protocol: FactoryBuilder
    seed: int
    jammer: Optional[Jammer] = None
    faults: Optional["FaultPlan"] = None
    check_invariants: bool = False
    watchdog: Optional[Watchdog] = None


@dataclass(frozen=True)
class SeedDigest:
    """The small result shipped back from a worker.

    ``watchdog_reason`` is ``None`` for a run that completed normally;
    otherwise it is the :class:`~repro.sim.watchdog.WatchdogTrip` reason
    and the digest's counts are *partial* (live jobs at the cut counted
    as failures).  Wall-clock trips are nondeterministic, so their
    digests are never written to the result cache.
    """

    seed: int
    n_jobs: int
    n_succeeded: int
    by_window: Tuple[Tuple[int, int, int], ...]  # (window, ok, total)
    slots_simulated: int
    latency_sum: int = 0  # summed latencies of successful jobs
    attempts_sum: int = -1  # total send attempts (energy); -1 = not tracked
    watchdog_reason: Optional[str] = None

    @property
    def cacheable(self) -> bool:
        """Whether this digest reproduces for equal inputs (see above)."""
        return self.watchdog_reason != REASON_WALL

    @property
    def success_rate(self) -> float:
        return self.n_succeeded / self.n_jobs if self.n_jobs else 1.0

    @property
    def mean_latency(self) -> float:
        if not self.n_succeeded:
            return float("nan")
        return self.latency_sum / self.n_succeeded

    @property
    def mean_energy(self) -> float:
        """Mean send attempts per job; nan when the path did not track it."""
        if self.attempts_sum < 0 or not self.n_jobs:
            return float("nan")
        return self.attempts_sum / self.n_jobs


# -- picklable builder adapters ---------------------------------------------
#
# run_seeds ships its builders to workers, so they must pickle.  These
# small frozen dataclasses adapt the common shapes — a grid point bound
# to a parametrised builder, a prebuilt instance, a prebuilt protocol
# factory — while staying picklable whenever their contents are.


@dataclass(frozen=True)
class BoundBuilder:
    """``build(**params)`` frozen into a zero-argument builder."""

    build: Callable[..., Instance]
    params: Tuple[Tuple[str, Any], ...]

    def __call__(self) -> Instance:
        return self.build(**dict(self.params))


@dataclass(frozen=True)
class ConstantInstance:
    """A zero-argument builder returning a prebuilt instance."""

    instance: Instance

    def __call__(self) -> Instance:
        return self.instance


@dataclass(frozen=True)
class ConstantFactory:
    """A factory builder returning a prebuilt protocol factory."""

    factory: ProtocolFactory

    def __call__(self, instance: Instance) -> ProtocolFactory:
        return self.factory


def _run_one(
    job: ParallelJob, telemetry: Optional["Telemetry"] = None
) -> SeedDigest:
    instance = job.build()
    result = simulate(
        instance,
        job.protocol(instance),
        jammer=job.jammer,
        seed=job.seed,
        faults=job.faults,
        invariants=job.check_invariants,
        telemetry=telemetry,
        watchdog=job.watchdog,
    )
    return SeedDigest(
        seed=job.seed,
        n_jobs=len(result),
        n_succeeded=result.n_succeeded,
        by_window=tuple(
            (w, ok, tot) for w, (ok, tot) in result.success_by_window().items()
        ),
        slots_simulated=result.slots_simulated,
        latency_sum=int(result.latencies().sum()),
        attempts_sum=result.total_energy,
        watchdog_reason=(
            result.watchdog.reason if result.watchdog is not None else None
        ),
    )


def _instance_digest(build: InstanceBuilder) -> Optional[str]:
    """Content digest of the failing run's instance (best effort)."""
    try:
        return stable_digest(build())
    except Exception:
        return None  # the build itself may be what failed


def run_seeds(
    build: InstanceBuilder,
    protocol: FactoryBuilder,
    seeds: Sequence[int],
    *,
    jammer: Optional[Jammer] = None,
    faults: Optional["FaultPlan"] = None,
    check_invariants: bool = False,
    watchdog: Optional[Watchdog] = None,
    processes: int = 1,
    cache: Union[None, bool, str, ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    chunksize: Optional[int] = None,
    retries: int = 0,
    retry_backoff: float = 0.25,
    telemetry: Optional["Telemetry"] = None,
    fastpath: str = "off",
    ledger: Union[None, bool, str, "RunLedger"] = None,
) -> List[SeedDigest]:
    """Run every seed, optionally across a process pool and a cache.

    Results are returned in the order of ``seeds`` regardless of worker
    scheduling or cache hits, and are bit-identical to the inline path
    (each worker derives its randomness from the seed exactly as
    ``simulate`` does).

    Parameters
    ----------
    jammer, faults:
        Optional channel adversary / :class:`repro.faults.FaultPlan`
        applied to every run.  Both are folded into cache keys.
    check_invariants:
        Run every simulation under
        :class:`repro.sim.invariants.InvariantChecker`.  Does not change
        results (a violation raises instead), so it does not change
        cache keys.
    watchdog:
        Optional :class:`repro.sim.watchdog.Watchdog` applied to every
        run.  Cancelled runs come back as *partial* digests (their
        :attr:`SeedDigest.watchdog_reason` set) instead of hanging a
        worker.  A watchdog can change results, so it is folded into
        cache keys when set — and wall-clock trips, being
        nondeterministic, are never cached.
    processes:
        Worker count; ``1`` runs inline in this process.
    cache:
        Result cache knob (see :func:`repro.cache.as_cache`).  Cached
        seeds are served without simulating; fresh digests are stored.
    progress:
        ``progress(done, total)`` called after every completed seed
        (cache hits report immediately, before workers start).
    chunksize:
        Tasks per IPC message; computed from the seed count when omitted.
    retries:
        How many times to re-run seeds that failed (with jittered
        exponential backoff between rounds: ``retry_backoff *
        2**attempt``, capped at :data:`BACKOFF_CAP_SECONDS` and scaled
        by a uniform 0.5-1.5x factor so parallel callers do not retry
        in lockstep).  Only
        the failed seeds are retried — completed work is kept — so a
        transient fault (a worker OOM-killed, a broken process pool)
        costs one backoff, not the whole batch.  Deterministic failures
        still fail after exhausting retries, raising
        :class:`SeedExecutionError` with the protocol name and instance
        digest attached.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` collector.
        Records a ``run_seeds`` span, cache hit/miss/write deltas,
        retry-round and worker-failure counters — and, on the inline
        path (``processes=1``), full per-run engine telemetry.  Worker
        processes cannot share the collector, so with ``processes>1``
        only the scheduling-level telemetry is recorded.  Never changes
        results.
    fastpath:
        ``"off"`` (default) always runs the reference engine; ``"auto"``
        routes to the vectorized full-protocol kernels
        (:mod:`repro.fastpath.batched`) when the configuration
        qualifies, silently falling back to the engine otherwise;
        ``"on"`` requires a kernel and raises
        :class:`~repro.fastpath.batched.FastpathUnavailableError` when
        none covers the configuration.  Kernel trials run in this
        process, seed-major (``processes`` does not apply), through the
        same cache, progress and retry loop as engine seeds.  Kernel
        digests are bit-exact with the engine for single-attempt UNIFORM
        and statistically equivalent for ALIGNED/PUNCTUAL; their cache
        keys live in a separate ``("fastpath", ...)`` namespace, so the
        default keeps every engine-path cache address unchanged.
    ledger:
        Optional run-ledger knob (see :func:`repro.obs.ledger.as_ledger`).
        When set, one :class:`~repro.obs.ledger.RunRecord` is appended
        per ``run_seeds`` call — config digest, versions, aggregate
        counters, wall time — covering both the engine and fastpath
        execution paths.  ``None`` (the default) costs a single ``is
        None`` branch and never imports the ledger module; attaching a
        ledger never changes results or cache keys.
    """
    if fastpath not in ("off", "auto", "on"):
        raise ValueError(
            f"fastpath must be 'off', 'auto', or 'on', got {fastpath!r}"
        )
    if ledger is not None:
        # Record-and-delegate: the ledger wrap re-enters with
        # ``ledger=None`` so one call appends exactly one record, no
        # matter which execution path (engine, fastpath, cache-served)
        # the inner call takes.
        from repro.obs.ledger import as_ledger

        led = as_ledger(ledger)
        if led is not None:
            seeds = list(seeds)
            config = {
                "kind": "run_seeds",
                "protocol": _protocol_label(protocol),
                "seeds": len(seeds),
                "processes": processes,
                "fastpath": fastpath,
                "jammer": repr(jammer) if jammer is not None else None,
                "faults": repr(faults) if faults is not None else None,
            }
            with led.track("run_seeds", config=config) as trk:
                if fastpath != "off":
                    from repro.fastpath.batched import KERNEL_VERSION

                    trk.kernel_version = KERNEL_VERSION
                # The builder itself, not its label: the label leaves out
                # bound state such as a partial's protocol parameters.
                try:
                    trk.digest(
                        (build(), protocol, jammer, faults, watchdog, fastpath)
                    )
                except Exception:
                    pass  # an unbuildable instance fails below, attributed
                digests = run_seeds(
                    build,
                    protocol,
                    seeds,
                    jammer=jammer,
                    faults=faults,
                    check_invariants=check_invariants,
                    watchdog=watchdog,
                    processes=processes,
                    cache=cache,
                    progress=progress,
                    chunksize=chunksize,
                    retries=retries,
                    retry_backoff=retry_backoff,
                    telemetry=telemetry,
                    fastpath=fastpath,
                    ledger=None,
                )
                agg = aggregate(digests)
                trk.counters = {
                    k: agg[k]
                    for k in (
                        "runs",
                        "jobs",
                        "succeeded",
                        "success_rate",
                        "slots",
                    )
                }
                trk.watchdog_trips = int(agg["watchdog_trips"])
            return digests
    # Imported lazily: repro.fastpath.fullproto imports SeedDigest from
    # this module.
    from repro.fastpath import batched

    seeds = list(seeds)
    total = len(seeds)
    cache_obj = as_cache(cache)
    # One shared backoff rule (cap + jitter) across every retry layer in
    # the codebase: see repro.retrypolicy.
    policy = RetryPolicy(retries=retries, base_backoff=retry_backoff)
    if chunksize is not None and chunksize < 1:
        raise ValueError(f"chunksize must be >= 1, got {chunksize}")
    t_started = time.perf_counter()
    if telemetry is not None and cache_obj is not None:
        c_hits, c_misses, c_puts = (
            cache_obj.hits, cache_obj.misses, cache_obj.puts,
        )

    plan: Optional["FastpathPlan"] = None
    keys: List[Optional[str]] = [None] * total
    if fastpath != "off" or cache_obj is not None:
        plan, reason, keys = batched.seed_route(
            build(),
            protocol,
            seeds,
            jammer=jammer,
            faults=faults,
            watchdog=watchdog,
            check_invariants=check_invariants,
            fastpath=fastpath,
            keyed=cache_obj is not None,
        )
        if plan is None and fastpath == "on":
            raise batched.FastpathUnavailableError(reason)

    # Content-addressed seeds are served from the cache; only misses run.
    results: Dict[int, SeedDigest] = {}  # position -> digest
    pending: List[Tuple[int, int, Optional[str]]] = []  # (pos, seed, key)
    for pos, (s, key) in enumerate(zip(seeds, keys)):
        hit = cache_obj.get(key) if key is not None else None
        if isinstance(hit, SeedDigest) and hit.seed == s:
            results[pos] = hit
        else:
            pending.append((pos, s, key))

    done = len(results)
    if progress is not None and done:
        progress(done, total)

    # A kernel trial counts ``runs.jammed`` by the run's jammer, a
    # plan's own included, as the engine does.
    run_jammer = resolve_adversary(faults, jammer)[1]

    def finish(k: int, digest: SeedDigest) -> None:
        nonlocal done
        pos, _, key = pending[k]
        results[pos] = digest
        if telemetry is not None:
            if plan is not None:
                batched.record_trial(telemetry, run_jammer, digest, plan.kind)
            if digest.watchdog_reason is not None:
                telemetry.metrics.counter("runs.watchdog_trips").inc()
        if key is not None and digest.cacheable:
            cache_obj.put(key, digest)
        done += 1
        if progress is not None:
            progress(done, total)

    def count(failures: List[TaskFailure], retrying: bool) -> None:
        if telemetry is not None:
            metrics = telemetry.metrics
            metrics.counter("runs.worker_failures").inc(len(failures))
            if retrying:
                metrics.counter("runs.retries").inc()

    if plan is not None:
        # A kernel trial is a handful of array operations: run the seed
        # vector inline, seed-major, whatever ``processes`` says.
        run: Callable[[Any], SeedDigest] = functools.partial(
            batched.simulate_fastpath, plan
        )
        tasks: List[Any] = [s for _, s, _ in pending]
        workers = 0
    else:
        wd = watchdog if watchdog is not None and watchdog.enabled else None
        # Single-arg call when un-instrumented: _run_one is a documented
        # monkeypatch seam for failure-injection tests.  Worker processes
        # cannot share the collector, so only the inline path gets it.
        run = _run_one
        if telemetry is not None and processes <= 1:
            run = functools.partial(_run_one, telemetry=telemetry)
        tasks = [
            ParallelJob(build, protocol, s, jammer, faults, check_invariants, wd)
            for _, s, _ in pending
        ]
        workers = processes if processes > 1 else 0
    failures = run_all(
        run,
        tasks,
        on_result=finish,
        workers=workers,
        chunksize=chunksize,
        policy=policy,
        on_retry=functools.partial(count, retrying=True),
    )
    if failures:
        count(failures, retrying=False)
        raise SeedExecutionError(
            pending[failures[0].index][1],
            failures[0].error,
            protocol=_protocol_label(protocol),
            instance_digest=_instance_digest(build),
        )

    if telemetry is not None:
        if plan is not None:
            telemetry.add_span("run_batch", time.perf_counter() - t_started)
            telemetry.metrics.counter("runs.fastpath_trials").inc(len(pending))
        else:
            telemetry.add_span("run_seeds", time.perf_counter() - t_started)
        if cache_obj is not None:
            telemetry.record_cache(
                cache_obj.hits - c_hits,
                cache_obj.misses - c_misses,
                cache_obj.puts - c_puts,
            )
    return [results[pos] for pos in range(total)]


def aggregate(digests: Sequence[SeedDigest]) -> Dict[str, object]:
    """Combine per-seed digests into one summary dictionary.

    Keys: ``runs``, ``jobs``, ``succeeded``, ``success_rate``,
    ``by_window`` (``{window: (ok, total)}``), ``slots``, ``attempts``
    (total send attempts across runs, -1 when any digest did not track
    them), ``watchdog_trips`` (runs cancelled by a watchdog; their
    partial counts are included in the totals).
    """
    jobs = sum(d.n_jobs for d in digests)
    ok = sum(d.n_succeeded for d in digests)
    attempts = (
        sum(d.attempts_sum for d in digests)
        if all(d.attempts_sum >= 0 for d in digests)
        else -1
    )
    by_window: Dict[int, List[int]] = {}
    for d in digests:
        for w, s, t in d.by_window:
            acc = by_window.setdefault(w, [0, 0])
            acc[0] += s
            acc[1] += t
    return {
        "runs": len(digests),
        "jobs": jobs,
        "succeeded": ok,
        "success_rate": ok / jobs if jobs else 1.0,
        "by_window": {w: (s, t) for w, (s, t) in sorted(by_window.items())},
        "slots": sum(d.slots_simulated for d in digests),
        "attempts": attempts,
        "watchdog_trips": sum(
            1 for d in digests if d.watchdog_reason is not None
        ),
    }
