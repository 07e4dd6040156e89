"""A small grid-sweep framework for simulation experiments.

The benchmark harness and the examples all share the same experimental
shape: build a workload from parameters, run a protocol over several
seeds, aggregate per-job outcomes, report a table row per grid point.
:class:`Sweep` packages that shape once, with Wilson confidence
intervals on every success rate and deterministic seed derivation, so
one-off experiment scripts stay ~ten lines.

Seed replication routes through
:func:`repro.experiments.parallel.run_seeds`, so every sweep picks up
the result cache (``cache=``) and multi-process execution
(``processes=``) for free.  Multi-process sweeps require picklable
``build``/``protocol`` callables (module-level functions, partials of
them, or the adapter dataclasses in :mod:`repro.experiments.parallel`);
the default inline path accepts closures as before.

Example
-------
>>> from repro.experiments import Sweep
>>> from repro.workloads import batch_instance
>>> from repro.core.uniform import uniform_factory
>>> sweep = Sweep(
...     build=lambda n: batch_instance(n, window=64 * n),
...     protocol=lambda inst: uniform_factory(),
...     seeds=5,
... )
>>> points = sweep.run({"n": [4, 16]})
>>> [p.params["n"] for p in points]
[4, 16]
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.analysis.stats import ProportionEstimate, estimate_proportion
from repro.analysis.tables import format_table
from repro.cache import ResultCache
from repro.channel.jamming import Jammer
from repro.experiments.parallel import BoundBuilder, run_seeds
from repro.sim.engine import ProtocolFactory
from repro.sim.instance import Instance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults import FaultPlan
    from repro.obs.telemetry import Telemetry

__all__ = ["SweepPoint", "Sweep"]

#: Builds an instance from grid keyword parameters.
InstanceBuilder = Callable[..., Instance]

#: Builds the protocol factory for an instance (lets EDF-style protocols
#: precompute from the workload).
FactoryBuilder = Callable[[Instance], ProtocolFactory]


@dataclass
class SweepPoint:
    """Aggregated outcomes of one grid point across seeds."""

    params: Dict[str, Any]
    n_jobs: int
    n_succeeded: int
    n_runs: int
    success: ProportionEstimate
    by_window: Dict[int, ProportionEstimate]
    mean_latency: float
    wall_seconds: float

    def row(self, keys: Sequence[str]) -> List[Any]:
        """A table row: grid values then the headline numbers."""
        return [self.params[k] for k in keys] + [
            self.success.point,
            self.success.low,
            self.success.high,
            self.mean_latency,
        ]


class Sweep:
    """Run a protocol over a parameter grid with seed replication.

    Parameters
    ----------
    build:
        ``build(**params) -> Instance`` for each grid point.
    protocol:
        ``protocol(instance) -> ProtocolFactory``.
    seeds:
        Number of seeded replications per grid point (seeds ``0..k-1``,
        offset by ``seed_base``).
    jammer:
        Optional channel adversary applied to every run.
    seed_base:
        Offset added to every seed (vary to get fresh randomness).
    processes:
        Worker processes per grid point (1 = inline; >1 requires
        picklable ``build``/``protocol``).
    cache:
        Result-cache knob (see :func:`repro.cache.as_cache`); cached
        seeds skip simulation entirely, so re-running a killed sweep
        with the same cache resumes it seed by seed.
    faults:
        Optional :class:`repro.faults.FaultPlan` applied to every run
        (folded into cache keys).
    check_invariants:
        Run every simulation under the runtime invariant checker.
    retries:
        Per-point transient-failure retries (see
        :func:`repro.experiments.parallel.run_seeds`).
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` collector.
        Each grid point is timed as a ``sweep.point`` span, and the
        point's seed replication passes the collector down to
        :func:`~repro.experiments.parallel.run_seeds` (engine-level
        telemetry on the inline path, scheduling-level always).
    fastpath:
        Kernel routing knob passed to every point's
        :func:`~repro.experiments.parallel.run_seeds` call (``"off"``,
        ``"auto"``, or ``"on"``; see there).
    progress:
        Optional ``progress(done_points, total_points)`` callback,
        invoked after every grid point —
        drop a :class:`repro.obs.progress.ProgressTracker` in for live
        rate/ETA heartbeats.  Purely observational.
    """

    def __init__(
        self,
        build: InstanceBuilder,
        protocol: FactoryBuilder,
        *,
        seeds: int = 3,
        jammer: Optional[Jammer] = None,
        seed_base: int = 0,
        processes: int = 1,
        cache: Union[None, bool, str, ResultCache] = None,
        faults: Optional["FaultPlan"] = None,
        check_invariants: bool = False,
        retries: int = 0,
        telemetry: Optional["Telemetry"] = None,
        fastpath: str = "off",
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if seeds < 1:
            raise ValueError("seeds must be >= 1")
        self.build = build
        self.protocol = protocol
        self.seeds = seeds
        self.jammer = jammer
        self.seed_base = seed_base
        self.processes = processes
        self.cache = cache
        self.faults = faults
        self.check_invariants = check_invariants
        self.retries = retries
        self.telemetry = telemetry
        self.fastpath = fastpath
        self.progress = progress

    def run_point(self, **params: Any) -> SweepPoint:
        """Run one grid point; aggregates across seeds."""
        t0 = time.perf_counter()
        point_build = BoundBuilder(
            self.build, tuple(sorted(params.items(), key=lambda kv: kv[0]))
        )
        digests = run_seeds(
            point_build,
            self.protocol,
            seeds=[self.seed_base + s for s in range(self.seeds)],
            jammer=self.jammer,
            faults=self.faults,
            check_invariants=self.check_invariants,
            processes=self.processes,
            cache=self.cache,
            retries=self.retries,
            telemetry=self.telemetry,
            fastpath=self.fastpath,
        )
        if self.telemetry is not None:
            self.telemetry.add_span(
                "sweep.point", time.perf_counter() - t0
            )
        ok = sum(d.n_succeeded for d in digests)
        total = sum(d.n_jobs for d in digests)
        window_ok: Dict[int, int] = {}
        window_tot: Dict[int, int] = {}
        latency_sum = 0
        for d in digests:
            for w, sw, tw in d.by_window:
                window_ok[w] = window_ok.get(w, 0) + sw
                window_tot[w] = window_tot.get(w, 0) + tw
            latency_sum += d.latency_sum
        mean_latency = latency_sum / ok if ok else float("nan")
        return SweepPoint(
            params=dict(params),
            n_jobs=digests[0].n_jobs,  # every digest: len(instance)
            n_succeeded=ok,
            n_runs=self.seeds,
            success=estimate_proportion(ok, total),
            by_window={
                w: estimate_proportion(window_ok[w], window_tot[w])
                for w in sorted(window_tot)
            },
            mean_latency=mean_latency,
            wall_seconds=time.perf_counter() - t0,
        )

    def run(self, grid: Mapping[str, Iterable[Any]]) -> List[SweepPoint]:
        """Run the full cartesian grid, in deterministic order."""
        keys = list(grid)
        values = [list(grid[k]) for k in keys]
        total = 1
        for v in values:
            total *= len(v)
        points: List[SweepPoint] = []
        for combo in itertools.product(*values):
            points.append(self.run_point(**dict(zip(keys, combo))))
            if self.progress is not None:
                self.progress(len(points), total)
        return points

    @staticmethod
    def table(points: Sequence[SweepPoint], title: str = "") -> str:
        """A plain-text table over the sweep results."""
        if not points:
            return title
        keys = list(points[0].params)
        headers = keys + ["success", "ci low", "ci high", "mean latency"]
        return format_table(
            headers, [p.row(keys) for p in points], title=title or None
        )
