"""The benchmark's workloads: a fixed round of work each, built from a seed.

Every workload drives the public API behind one user-facing command:

* ``engine-grid`` — the ``repro frontier`` grid through ``run_seeds``
  with ``fastpath="off"``;
* ``fastpath-batch`` — ``run_seeds(..., fastpath="on")``, the kernels;
* ``campaign-cache`` — ``repro campaign run`` on a fresh result cache,
  then re-run on the warm one;
* ``stream-jammed`` — ``repro stream`` under jamming and overload.

A round is timed around those calls only; fingerprinting, checks and
temporary-directory handling happen outside the timed region.  ``--seed
N`` moves every simulation seed to ``N * SEED_STRIDE`` onward, so
different seeds give disjoint inputs and the same seed the same inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.campaign.run as campaign_run
import repro.experiments.parallel as parallel
import repro.stream.engine as stream_engine
from repro.cache import ResultCache
from repro.campaign import CampaignSpec, GridProtocol, GridWorkload, SerialExecutor
from repro.channel.jamming import StochasticJammer
from repro.registry import protocol_factory
from repro.sim.instance import Instance
from repro.stream import CheckpointConfig, PoissonProcess, StreamBudget

from harness import Meter, fingerprint
from tracing import PROTOCOLS, TracedBuilder, TracedFactory, Tracer

#: ``--seed N`` starts every seed range at ``N * SEED_STRIDE``.
SEED_STRIDE = 1000


@dataclass
class Op:
    """One operation of a round: a ``run_seeds`` call, a cell or a stream."""

    units: int  # seeds, cells or stream runs it stands for
    jobs: int  # jobs resolved: succeeded, missed, gave up or shed
    fp: str  # fingerprint of its result ("" when it failed)
    error: str = ""


@dataclass
class RoundResult:
    wall: float  # host seconds spent in the measured calls
    ref: float  # the same in reference seconds (see harness.Meter)
    ops: Dict[str, Op]
    #: Observations outside the tracer (cell wall times, progress ticks,
    #: shedding); numbers and lists only, merged across rounds.
    extras: Dict[str, Any] = field(default_factory=dict)
    #: Values every round must reproduce exactly (cache hit predictions,
    #: entries written), traced or not.
    parity: Dict[str, Any] = field(default_factory=dict)
    #: ``(jobs, reference seconds)`` of the round's warm-cache re-runs,
    #: for workloads that have them.
    warm: Optional[Tuple[int, float]] = None

    @property
    def jobs(self) -> int:
        return sum(op.jobs for op in self.ops.values())


@contextlib.contextmanager
def _measured(meter: Meter, tracer: Optional[Tracer],
              pool: bool = False) -> Iterator[None]:
    """Time the calls in the block, and trace them when tracing."""
    with meter.timed(pool):
        if tracer is None:
            yield
            return
        tracer.active = True
        try:
            yield
        finally:
            tracer.active = False


def _attempt(fn: Callable[[], Any]) -> Tuple[Any, str]:
    """``(result, "")``, or ``(None, traceback)`` when the call raised."""
    try:
        return fn(), ""
    except Exception:
        return None, traceback.format_exc()


def _digest_record(d, with_attempts: bool) -> list:
    rec = [
        d.seed, d.n_jobs, d.n_succeeded, [list(w) for w in d.by_window],
        d.slots_simulated, d.latency_sum, d.watchdog_reason,
    ]
    return rec + [d.attempts_sum] if with_attempts else rec


def _seeds_op(digests, error: str, n_seeds: int, n_jobs: int,
              with_attempts: bool = True) -> Op:
    """An ``Op`` for one ``run_seeds`` call, checking each digest's shape."""
    if error:
        return Op(n_seeds, 0, "", error)
    bad = [
        d.seed for d in digests
        if d.n_jobs != n_jobs
        or d.watchdog_reason is not None
        or sum(w[2] for w in d.by_window) != d.n_jobs
        or not 0 <= d.n_succeeded <= d.n_jobs
    ]
    if len(digests) != n_seeds or bad:
        return Op(n_seeds, 0, "", f"malformed digests for seeds {bad}")
    records = [_digest_record(d, with_attempts) for d in digests]
    return Op(n_seeds, sum(d.n_jobs for d in digests), fingerprint(records))


class Workload:
    """One benchmark workload; subclasses fill in the four hooks."""

    name = ""
    #: Whether the measured work runs in a process pool over every CPU.
    pool = False
    #: Distinct rounds: round ``index`` does the work of ``index % sets``,
    #: each set on seeds of its own.  The cost per job of a simulation
    #: depends on its seeds, and a run that repeated one set would carry
    #: that set's cost into its result with no averaging.
    sets = 1

    def config(self) -> Dict[str, Any]:
        """The round's sizes; pins are kept per configuration."""
        raise NotImplementedError

    def build(self, seed: int) -> None:
        """Build the inputs from the seed (this is what ``setup_s`` times)."""
        raise NotImplementedError

    def prepare(self, workdir: Path) -> None:
        """Untimed preparation before the first round (default: none)."""

    def run_round(self, meter: Meter, tracer: Optional[Tracer] = None,
                  index: int = 0) -> RoundResult:
        """Round ``index``, timed by ``meter`` and traced by ``tracer`` if given."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`prepare` made (default: nothing)."""

    def pin_key(self) -> str:
        """Pins are kept per workload and round sizes."""
        return f"{self.name}:{fingerprint(self.config())}"


class EngineGrid(Workload):
    """The ``repro frontier`` grid on the reference engine.

    Runs of one protocol differ in cost from seed to seed (an ALIGNED run
    can take five times its median), so a round of fixed seeds would make
    throughput depend on which seeds ``--seed`` picked: 8% interquartile
    range over ten seeds at n=64, two seeds per cell.  Rounds therefore
    cycle through ``sets`` disjoint seed sets, each of ``seeds`` seeds, so
    that one run covers ``sets * seeds`` seeds per cell.
    """

    name = "engine-grid"
    BUDGETS = (0.0, 0.25)

    def __init__(self, seeds: int = 6, sets: int = 4, n: int = 32,
                 window: int = 2048) -> None:
        self.n_seeds, self.sets, self.n, self.window = seeds, sets, n, window

    def config(self) -> Dict[str, Any]:
        return {"seeds": self.n_seeds, "sets": self.sets, "n": self.n,
                "window": self.window, "protocols": list(PROTOCOLS),
                "budgets": list(self.BUDGETS)}

    def build(self, seed: int) -> None:
        self.workload = GridWorkload(
            items=(("n", self.n), ("window", self.window), ("workload", "batch"))
        )
        self.n_jobs = len(self.workload())
        self.protocols = {p: GridProtocol(name=p, items=()) for p in PROTOCOLS}
        # One jammer per budget, shared by every protocol, as in run_frontier.
        self.jammers = {
            b: StochasticJammer(b) if b > 0 else None for b in self.BUDGETS
        }
        base = seed * SEED_STRIDE
        self.seed_sets = [
            range(base + i * self.n_seeds, base + (i + 1) * self.n_seeds)
            for i in range(self.sets)
        ]

    def run_round(self, meter: Meter, tracer: Optional[Tracer] = None,
                  index: int = 0) -> RoundResult:
        k = index % self.sets
        seeds = self.seed_sets[k]
        raw = {}
        for budget, jammer in self.jammers.items():
            for name, builder in self.protocols.items():
                if tracer is not None:
                    builder = TracedBuilder(builder, tracer, name)
                with _measured(meter, tracer):
                    raw[f"{name}/jam{budget:g}/set{k}"] = _attempt(
                        lambda: parallel.run_seeds(
                            self.workload, builder, seeds,
                            jammer=jammer, fastpath="off", progress=meter.tick,
                        )
                    )
        ops = {
            key: _seeds_op(d, err, len(seeds), self.n_jobs)
            for key, (d, err) in raw.items()
        }
        return RoundResult(meter.host, meter.ref, ops)


class FastpathBatch(Workload):
    """Seed-major kernel batches: ``run_seeds(..., fastpath="on")``."""

    name = "fastpath-batch"
    BUDGETS = (0.0, 0.25)

    def __init__(self, seeds: Optional[Dict[str, int]] = None, n: int = 64,
                 window: int = 4096) -> None:
        self.seed_counts = seeds or {"uniform": 120, "punctual": 400,
                                     "aligned": 400}
        self.n, self.window = n, window

    def config(self) -> Dict[str, Any]:
        return {"seeds": self.seed_counts, "n": self.n, "window": self.window,
                "budgets": list(self.BUDGETS)}

    def build(self, seed: int) -> None:
        self.workload = GridWorkload(
            items=(("n", self.n), ("window", self.window), ("workload", "batch"))
        )
        self.n_jobs = len(self.workload())
        self.protocols = {
            p: GridProtocol(name=p, items=()) for p in self.seed_counts
        }
        self.jammers = {
            b: StochasticJammer(b) if b > 0 else None for b in self.BUDGETS
        }
        base = seed * SEED_STRIDE
        self.seeds = {p: range(base, base + k)
                      for p, k in self.seed_counts.items()}

    def run_round(self, meter: Meter, tracer: Optional[Tracer] = None,
                  index: int = 0) -> RoundResult:
        raw = {}
        for budget, jammer in self.jammers.items():
            for name, builder in self.protocols.items():
                with _measured(meter, tracer):
                    raw[(name, budget)] = _attempt(
                        lambda: parallel.run_seeds(
                            self.workload, builder, self.seeds[name],
                            jammer=jammer, fastpath="on", progress=meter.tick,
                        )
                    )
        # The ALIGNED and PUNCTUAL kernels report attempts_sum = -1 (not
        # tracked); leaving the field out of their fingerprints keeps the
        # pins valid once a kernel counts attempts exactly.
        ops = {
            f"{name}/jam{budget:g}": _seeds_op(
                d, err, len(self.seeds[name]), self.n_jobs,
                with_attempts=name == "uniform",
            )
            for (name, budget), (d, err) in raw.items()
        }
        return RoundResult(meter.host, meter.ref, ops)


class CampaignCache(Workload):
    """``repro campaign run`` on a 20-cell grid, cold and then warm.

    A round runs the campaign on an empty result cache and state file
    (timed by the round's meter), then re-runs it ``WARM_RUNS`` times with
    the state file removed and the cache kept (timed apart, as the
    round's ``warm``).  Each warm cell must reproduce its cold result.
    Cold rounds are small, so that the probes at their edges bracket
    little drift (see ``harness.Meter``), and cycle through ``sets``
    seed sets of ``seeds`` seeds per cell.
    """

    name = "campaign-cache"
    pool = True
    sets = 4
    WARM_RUNS = 3

    def __init__(self, seeds: int = 2) -> None:
        self.n_seeds = seeds

    def config(self) -> Dict[str, Any]:
        return {"seeds": self.n_seeds, "sets": self.sets,
                "warm_runs": self.WARM_RUNS}

    def build(self, seed: int) -> None:
        raw = {
            "name": "bench",
            "workloads": [
                {"workload": "batch", "n": 64, "window": 4096},
                {"workload": "single-class", "n": 64, "level": 10},
            ],
            "protocols": ["uniform", "soft", "nocd", "beb", "slowfb"],
            "adversaries": ["none", "jam@0.25"],
            "seeds": self.n_seeds,
            "fastpath": "auto",
            "workers": 2,  # the CPUs of the host the baseline ran on
            "retries": 0,
            "cache": "cache",
            "state": "state.jsonl",
        }
        self.specs = [
            CampaignSpec.from_dict(
                {**raw, "seed_base": seed * SEED_STRIDE + k * self.n_seeds}
            )
            for k in range(self.sets)
        ]
        self.n_cells = len(self.specs[0].cells())

    def prepare(self, workdir: Path) -> None:
        self.workdir = workdir

    def _run(self, spec: CampaignSpec, meter: Meter, tracer: Optional[Tracer]):
        """Run the campaign; returns ``(report or None, error)``.

        The traced run uses the serial executor so that cell work stays
        in this process, where the wrappers are.
        """
        executor = SerialExecutor() if tracer is not None else None
        with _measured(meter, tracer, pool=tracer is None):
            report, err = _attempt(
                lambda: campaign_run.run_campaign(spec, executor=executor)
            )
        if report is not None and len(report.executed) != self.n_cells:
            err = f"{len(report.quarantined)} cell(s) quarantined: " + "; ".join(
                q.error.strip().splitlines()[-1] for q in report.quarantined
            )
        return report, err

    @staticmethod
    def _predicted(spec: CampaignSpec) -> Tuple[int, int]:
        counts = campaign_run.run_campaign(spec, dry_run=True).counts
        return counts["cache_hits"], counts["cache_misses"]

    def run_round(self, meter: Meter, tracer: Optional[Tracer] = None,
                  index: int = 0) -> RoundResult:
        k = index % self.sets
        spec = dataclasses.replace(
            self.specs[k], base_dir=Path(tempfile.mkdtemp(dir=self.workdir))
        )
        warm_meter = Meter(probing=meter.probing)
        warm = []
        try:
            report, err = self._run(spec, meter, tracer)
            parity: Dict[str, Any] = {
                "entries_written": len(ResultCache(spec.cache_path)),
                "predicted": [],
            }
            for _ in range(self.WARM_RUNS if not err else 0):
                os.remove(spec.state_path)
                parity["predicted"].append(self._predicted(spec))
                warm.append(self._run(spec, warm_meter, tracer))
        finally:
            shutil.rmtree(spec.base_dir)
        if err:
            ops = {f"campaign/set{k}": Op(self.n_cells, 0, "", err)}
            return RoundResult(meter.host, meter.ref, ops, parity=parity)
        ops = {
            r.label: Op(1, int(r.summary["jobs"]), fingerprint(r.summary))
            for r in report.executed
        }
        for i, (warm_report, warm_err) in enumerate(warm, 1):
            served = {} if warm_err else {
                r.label: fingerprint(r.summary) for r in warm_report.executed
            }
            for label, op in ops.items():
                if served.get(label) != op.fp:
                    op.error = warm_err or f"warm re-run {i} differs from the cold run"
        walls = [r.wall_seconds for r in report.executed]
        workers = 1 if tracer is not None else spec.workers
        extras = {"cell_walls": walls,
                  "worker_busy_frac": sum(walls) / (workers * meter.host)}
        return RoundResult(
            meter.host, meter.ref,
            {f"{label}/set{k}": op for label, op in ops.items()},
            extras, parity,
            warm=(self.WARM_RUNS * sum(op.jobs for op in ops.values()),
                  warm_meter.ref),
        )


class StreamJammed(Workload):
    """``repro stream``: sawtooth under jamming, a live-set budget, overload."""

    name = "stream-jammed"
    sets = 4
    WINDOWS = (16, 64, 256)
    MAX_LIVE = 32

    def __init__(self, phases: Tuple[Tuple[float, int], ...] = ((0.1, 20000), (0.3, 10000)),
                 checkpoint_every: int = 20_000) -> None:
        self.phases, self.checkpoint_every = phases, checkpoint_every

    def config(self) -> Dict[str, Any]:
        return {"phases": [list(p) for p in self.phases],
                "windows": list(self.WINDOWS), "max_live": self.MAX_LIVE,
                "checkpoint_every": self.checkpoint_every, "sets": self.sets}

    def build(self, seed: int) -> None:
        self.processes = [
            PoissonProcess(rate=rho, window_sizes=self.WINDOWS)
            for rho, _ in self.phases
        ]
        self.factory = protocol_factory("sawtooth", {}, Instance(()))
        self.budget = StreamBudget(
            max_live=self.MAX_LIVE, policy="shed-loosest-deadline"
        )
        self.jammer = StochasticJammer(0.25)
        per_set = len(self.phases)
        self.seed_sets = [
            [seed * SEED_STRIDE + k * per_set + i for i in range(per_set)]
            for k in range(self.sets)
        ]

    def prepare(self, workdir: Path) -> None:
        self.workdir = workdir

    def run_round(self, meter: Meter, tracer: Optional[Tracer] = None,
                  index: int = 0) -> RoundResult:
        factory = (
            self.factory if tracer is None
            else TracedFactory(self.factory, tracer, "sawtooth")
        )
        ops: Dict[str, Op] = {}
        extras: Dict[str, Any] = {"shed": 0, "released": 0, "peak_live": 0,
                                  "tick_intervals": []}
        k = index % self.sets
        for i, (process, seed, (rho, max_jobs)) in enumerate(
            zip(self.processes, self.seed_sets[k], self.phases)
        ):
            checkpoint = CheckpointConfig(
                path=str(self.workdir / f"stream-{i}.ckpt"),
                every_slots=self.checkpoint_every,
            )
            ticks: List[float] = []

            def progress(done: int, total: int) -> None:
                ticks.append(meter.elapsed())
                meter.tick()

            with _measured(meter, tracer):
                res, err = _attempt(
                    lambda: stream_engine.stream_simulate(
                        process, factory, seed=seed, max_jobs=max_jobs,
                        budget=self.budget, jammer=self.jammer,
                        checkpoint=checkpoint, progress=progress,
                    )
                )
            ops[f"rho{rho:g}/set{k}"] = self._op(res, err)
            if res is not None:
                extras["shed"] += res.jobs_shed
                extras["released"] += res.jobs_released
                extras["peak_live"] = max(extras["peak_live"], res.peak_live)
                extras["tick_intervals"] += [b - a for a, b in zip(ticks, ticks[1:])]
        return RoundResult(meter.host, meter.ref, ops, extras)

    @staticmethod
    def _op(res, err: str) -> Op:
        if err:
            return Op(1, 0, "", err)
        resolved = (res.jobs_succeeded + res.jobs_missed + res.jobs_gave_up
                    + res.jobs_shed)
        if resolved != res.jobs_released or res.watchdog is not None:
            return Op(1, 0, "", f"conservation broken: {res.to_dict()}")
        return Op(1, resolved, fingerprint(res.to_dict()))


#: Workload name -> class, in the order a full run measures them.
WORKLOADS: Dict[str, Callable[[], Workload]] = {
    w.name: w
    for w in (EngineGrid, FastpathBatch, CampaignCache, StreamJammed)
}
