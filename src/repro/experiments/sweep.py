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
from pathlib import Path
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
from repro.cache import ResultCache, stable_digest
from repro.channel.jamming import Jammer
from repro.durable import append_jsonl_atomic, read_jsonl_tolerant
from repro.experiments.parallel import BoundBuilder, run_seeds
from repro.sim.engine import ProtocolFactory
from repro.sim.instance import Instance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults import FaultPlan
    from repro.obs.ledger import RunLedger
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

    # -- checkpoint serialization (JSON round trip) ------------------------

    def to_json(self) -> Dict[str, Any]:
        """A JSON-serializable dict; inverse of :meth:`from_json`."""
        est = lambda e: [e.successes, e.trials, e.low, e.high]
        return {
            "params": self.params,
            "n_jobs": self.n_jobs,
            "n_succeeded": self.n_succeeded,
            "n_runs": self.n_runs,
            "success": est(self.success),
            "by_window": {str(w): est(e) for w, e in self.by_window.items()},
            "mean_latency": self.mean_latency,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SweepPoint":
        est = lambda v: ProportionEstimate(
            int(v[0]), int(v[1]), float(v[2]), float(v[3])
        )
        return cls(
            params=dict(data["params"]),
            n_jobs=int(data["n_jobs"]),
            n_succeeded=int(data["n_succeeded"]),
            n_runs=int(data["n_runs"]),
            success=est(data["success"]),
            by_window={int(w): est(v) for w, v in data["by_window"].items()},
            mean_latency=float(data["mean_latency"]),
            wall_seconds=float(data["wall_seconds"]),
        )


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
        seeds skip simulation entirely.
    faults:
        Optional :class:`repro.faults.FaultPlan` applied to every run
        (folded into cache keys and checkpoint keys).
    check_invariants:
        Run every simulation under the runtime invariant checker.
    retries:
        Per-point transient-failure retries (see
        :func:`repro.experiments.parallel.run_seeds`).
    checkpoint:
        Path to a JSONL checkpoint file.  Every completed grid point is
        appended as one line, keyed by a content digest of the sweep
        configuration plus the point's parameters; a re-run of the same
        sweep skips points already on disk (a truncated final line from
        a killed run is ignored and recomputed).  Combine with
        ``cache=`` so even the recomputed point replays its finished
        seeds from cache.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` collector.
        Each grid point is timed as a ``sweep.point`` span, and the
        point's seed replication passes the collector down to
        :func:`~repro.experiments.parallel.run_seeds` (engine-level
        telemetry on the inline path, scheduling-level always).
    fastpath:
        Kernel routing knob passed to every point's
        :func:`~repro.experiments.parallel.run_seeds` call (``"off"``,
        ``"auto"``, or ``"on"``; see there).  A non-``"off"`` value also
        joins the checkpoint point keys, since kernel results are not
        bit-equal to engine results for ALIGNED/PUNCTUAL.
    progress:
        Optional ``progress(done_points, total_points)`` callback,
        invoked after every grid point (checkpoint hits included) —
        drop a :class:`repro.obs.progress.ProgressTracker` in for live
        rate/ETA heartbeats.  Purely observational.
    ledger:
        Optional run-ledger knob (see
        :func:`repro.obs.ledger.as_ledger`).  One record is appended
        per :meth:`run` call summarizing the whole grid; the inner
        ``run_seeds`` calls do *not* record their own entries (one
        invocation, one line).  ``None`` costs one ``is None`` branch.
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
        checkpoint: Union[None, str, Path] = None,
        telemetry: Optional["Telemetry"] = None,
        fastpath: str = "off",
        progress: Optional[Callable[[int, int], None]] = None,
        ledger: Union[None, bool, str, Path, "RunLedger"] = None,
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
        self.checkpoint = Path(checkpoint) if checkpoint is not None else None
        self.telemetry = telemetry
        self.fastpath = fastpath
        self.progress = progress
        self.ledger = ledger

    def run_point(self, **params: Any) -> SweepPoint:
        """Run one grid point; aggregates across seeds."""
        t0 = time.perf_counter()
        instance = self.build(**params)
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
            n_jobs=len(instance),
            n_succeeded=ok,
            n_runs=self.seeds,
            success=estimate_proportion(ok, max(total, 1)),
            by_window={
                w: estimate_proportion(window_ok[w], window_tot[w])
                for w in sorted(window_tot)
            },
            mean_latency=mean_latency,
            wall_seconds=time.perf_counter() - t0,
        )

    def _point_key(self, params: Mapping[str, Any]) -> str:
        """Checkpoint key: sweep configuration + grid point content."""
        for obj in (self.jammer, self.faults):
            reset = getattr(obj, "reset", None)
            if callable(reset):
                reset()  # canonicalize stateful jammers before digesting
        key: tuple = (
            "sweep-point",
            self.build,
            self.protocol,
            self.seeds,
            self.seed_base,
            self.jammer,
            self.faults,
            tuple(sorted(params.items(), key=lambda kv: kv[0])),
        )
        # ALIGNED/PUNCTUAL kernel digests are statistical, not
        # bit-equal, so a fastpath sweep may not resume an engine
        # checkpoint (or vice versa).  Appended only when enabled so
        # every existing engine checkpoint keeps its keys.
        if self.fastpath != "off":
            key = key + ("fastpath", self.fastpath)
        return stable_digest(key)

    def run(self, grid: Mapping[str, Iterable[Any]]) -> List[SweepPoint]:
        """Run the full cartesian grid, in deterministic order.

        With a ``checkpoint=`` configured, grid points already recorded
        on disk are returned without simulating, and each freshly
        computed point is appended (and flushed) as soon as it
        completes — killing and restarting a sweep loses at most the
        point in flight.
        """
        if self.ledger is None:
            return self._run_grid(grid)[0]
        from repro.obs.ledger import as_ledger

        led = as_ledger(self.ledger)
        if led is None:
            return self._run_grid(grid)[0]
        grid = {k: list(v) for k, v in grid.items()}
        config = {
            "kind": "sweep",
            "grid": {k: [repr(x) for x in v] for k, v in grid.items()},
            "seeds": self.seeds,
            "seed_base": self.seed_base,
            "processes": self.processes,
            "fastpath": self.fastpath,
            "jammer": repr(self.jammer) if self.jammer is not None else None,
            "faults": repr(self.faults) if self.faults is not None else None,
        }
        with led.track("sweep", config=config) as trk:
            trk.digest(
                (
                    "sweep",
                    self.build,
                    self.protocol,
                    self.seeds,
                    self.seed_base,
                    self.jammer,
                    self.faults,
                    self.fastpath,
                    tuple(sorted((k, tuple(v)) for k, v in grid.items())),
                )
            )
            points, resumed = self._run_grid(grid)
            trk.counters = {
                "points": len(points),
                "resumed_points": resumed,
                "runs": sum(p.n_runs for p in points),
                "jobs": sum(p.n_jobs * p.n_runs for p in points),
                "succeeded": sum(p.n_succeeded for p in points),
            }
            if self.checkpoint is not None:
                trk.artifact(self.checkpoint)
        return points

    def _run_grid(
        self, grid: Mapping[str, Iterable[Any]]
    ) -> tuple:
        """The grid loop; returns ``(points, checkpoint_resumed_count)``."""
        keys = list(grid)
        values = [list(grid[k]) for k in keys]
        total = 1
        for v in values:
            total *= len(v)
        done: Dict[str, SweepPoint] = {}
        if self.checkpoint is not None:
            # A killed run can leave a truncated final line: the reader
            # skips it, that point is recomputed (its cached seeds still
            # hit), and the next append heals the missing newline.
            for record in read_jsonl_tolerant(self.checkpoint):
                try:
                    done[record["key"]] = SweepPoint.from_json(record["point"])
                except Exception:
                    continue  # a foreign or malformed record: recompute
        points: List[SweepPoint] = []
        resumed = 0
        for combo in itertools.product(*values):
            params = dict(zip(keys, combo))
            if self.checkpoint is not None:
                pkey = self._point_key(params)
                hit = done.get(pkey)
                if hit is not None:
                    points.append(hit)
                    resumed += 1
                    if self.progress is not None:
                        self.progress(len(points), total)
                    continue
                point = self.run_point(**params)
                append_jsonl_atomic(
                    self.checkpoint, {"key": pkey, "point": point.to_json()}
                )
            else:
                point = self.run_point(**params)
            points.append(point)
            if self.progress is not None:
                self.progress(len(points), total)
        return points, resumed

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
