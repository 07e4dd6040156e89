"""Per-layer tracing for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  :func:`install` swaps
wrappers in at the module attribute each caller resolves at call time
(``repro.experiments.parallel.simulate``,
``repro.fastpath.batched.simulate_fastpath``, ...) or on the class
(``ResultCache.get``, ``StochasticJammer.attempt``,
``RngFactory.fresh``, ...), and the function it returns puts the
originals back.  Protocol ``act``/``observe`` are timed by
:class:`TracedFactory`, which a workload hands to the engine in place
of the plain factory; it is used only where that cannot change a cache
key or decline a fastpath kernel.

Every wrapped call is timed and charged to the innermost open call, so
each name gets ``[calls, inclusive seconds, self seconds]``: self time
is the call's duration minus the time of the wrapped calls inside it,
and minus the wrappers' own cost for those calls, calibrated when the
tracer is made (millions of wrapped ``act``/``observe`` calls would
otherwise show up as engine self time).

Calls made once or a few times per operation (``run_seeds``,
``simulate``, a campaign cell, a checkpoint) are also kept as spans
with a name, start, end, parent and round id; per-slot calls are only
aggregated, because keeping one span each would hold millions of them.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import median, percentile

#: The protocols the benchmark's workloads run through the engine.
PROTOCOLS = (
    "punctual", "aligned", "uniform", "soft", "nocd", "beb", "slowfb",
    "sawtooth", "aloha",
)


@dataclass
class Snapshot:
    """What the tracer saw during one round."""

    stats: Dict[str, List[float]]  # name -> [calls, seconds, self seconds]
    counts: Dict[str, float]
    cells: List[Tuple[Any, Any]]  # (CellTask, outcome) pairs


@dataclass
class Tracer:
    """Keeps spans and per-name call statistics in memory."""

    active: bool = False
    round: int = 0
    spans: List[Tuple[int, Optional[int], int, str, float, float, float]] = field(
        default_factory=list
    )
    stats: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    cells: List[Tuple[Any, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._origin = time.perf_counter()
        # Open calls, innermost last: [child seconds, child calls, span id].
        self._stack: List[list] = [[0.0, 0, None]]
        self._next_id = 0
        self.bias = 0.0
        self.bias = self._calibrate()

    def call(self, name: str, record: bool, fn: Callable, *args, **kwargs):
        """Run ``fn`` as a traced call named ``name``."""
        stack = self._stack
        frame = [0.0, 0, None]
        if record:
            frame[2] = self._next_id
            self._next_id += 1
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dt = t1 - t0
            parent = stack[-1]
            parent[0] += dt
            parent[1] += 1
            own = dt - frame[0] - frame[1] * self.bias
            s = self.stats.get(name)
            if s is None:
                s = self.stats[name] = [0, 0.0, 0.0]
            s[0] += 1
            s[1] += dt
            s[2] += own
            if record:
                up = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                self.spans.append(
                    (frame[2], up, self.round, name,
                     t0 - self._origin, t1 - self._origin, own)
                )

    def _calibrate(self, n: int = 20_000) -> float:
        """Seconds a wrapped call costs its caller beyond its own timing.

        That cost lands in the caller's measured duration but not in the
        child's, so :meth:`call` takes it off the caller's self time once
        per direct child call.  The least of three trials is used.
        """
        wrapped = _plain("calibration")(self, _identity)
        best = float("inf")
        self.active = True
        try:
            for _ in range(3):
                t0 = time.perf_counter()
                for i in range(n):
                    pass
                empty = time.perf_counter() - t0
                t0 = time.perf_counter()
                for i in range(n):
                    wrapped(i)
                total = time.perf_counter() - t0
                inside = self.stats.pop("calibration")[1]
                best = min(best, (total - empty - inside) / n)
        finally:
            self.active = False
            self._stack = [[0.0, 0, None]]
        return max(best, 0.0)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def take(self) -> Snapshot:
        """This round's statistics; the next round starts from zero."""
        snap = Snapshot(self.stats, self.counts, self.cells)
        self.stats, self.counts, self.cells = {}, {}, []
        return snap

    def span_records(self) -> List[Dict[str, Any]]:
        keys = ("id", "parent", "round", "name", "start", "end", "self")
        return [dict(zip(keys, s)) for s in self.spans]


# -- protocol wrapping ---------------------------------------------------


def _identity(obj):
    return obj


class TracedProtocol:
    """Times one protocol's ``act``/``observe``; all else passes through."""

    __slots__ = ("_inner", "_tracer", "_act", "_observe")

    def __init__(self, inner, tracer: Tracer, name: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._act = f"proto.{name}.act"
        self._observe = f"proto.{name}.observe"

    def act(self, t):
        return self._tracer.call(self._act, False, self._inner.act, t)

    def observe(self, t, obs):
        return self._tracer.call(
            self._observe, False, self._inner.observe, t, obs
        )

    def __getattr__(self, attr):
        return getattr(object.__getattribute__(self, "_inner"), attr)

    def __reduce__(self):
        # A stream checkpoint pickles live protocols: store the bare one,
        # so the checkpoint holds exactly what an untraced run writes.
        return (_identity, (self._inner,))


class TracedFactory:
    """A protocol factory whose protocols are :class:`TracedProtocol`."""

    def __init__(self, inner, tracer: Tracer, name: str) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = name

    def __call__(self, job, rng):
        proto = self.tracer.call("proto.init", False, self.inner, job, rng)
        return TracedProtocol(proto, self.tracer, self.name)


class TracedBuilder:
    """A ``run_seeds`` factory builder handing out :class:`TracedFactory`."""

    def __init__(self, inner, tracer: Tracer, name: str) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = name

    def __call__(self, instance):
        return TracedFactory(self.inner(instance), self.tracer, self.name)


# -- installing wrappers -------------------------------------------------


def _plain(name: str, record: bool = False, after=None):
    """A wrapper maker: trace calls as ``name``, then run ``after``."""

    def make(tracer: Tracer, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer.call(name, record, fn, *args, **kwargs)
            if after is not None:
                after(tracer, result, args)
            return result

        return traced

    return make


def _act_calls(tracer: Tracer) -> int:
    return sum(
        s[0]
        for name, s in tracer.stats.items()
        if name.startswith("proto.") and name.endswith(".act")
    )


def _simulate(tracer: Tracer, fn: Callable) -> Callable:
    """``simulate``, counting slots and the live jobs' ``act`` calls."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        acts = _act_calls(tracer)
        result = tracer.call("engine.simulate", True, fn, *args, **kwargs)
        tracer.add("engine.slots", result.slots_simulated)
        tracer.add("engine.live_job_slots", _act_calls(tracer) - acts)
        return result

    return traced


def _after_get(tracer: Tracer, result, args) -> None:
    if result is not None:
        tracer.add("cache.hits", 1)


def _after_put(tracer: Tracer, result, args) -> None:
    cache, key = args[0], args[1]
    tracer.add("cache.bytes_written", os.path.getsize(cache.path_for(key)))


def _after_attempt(tracer: Tracer, result, args) -> None:
    if result:
        tracer.add("jammer.jammed", 1)


def _after_trial(tracer: Tracer, result, args) -> None:
    tracer.add("fastpath.slots", result.slots_simulated)


def _after_cell(tracer: Tracer, result, args) -> None:
    tracer.cells.append((args[0], result))


#: (module, attribute, wrapper maker)
MODULE_PATCHES = (
    ("repro.registry", "build_workload", _plain("registry.build")),
    ("repro.registry", "protocol_factory", _plain("registry.build")),
    ("repro.campaign.spec", "build_workload", _plain("registry.build")),
    ("repro.campaign.spec", "protocol_factory", _plain("registry.build")),
    ("repro.experiments.parallel", "run_seeds", _plain("parallel.run_seeds", True)),
    ("repro.campaign.executor", "run_seeds", _plain("parallel.run_seeds", True)),
    ("repro.experiments.parallel", "simulate", _simulate),
    ("repro.experiments.parallel", "run_key", _plain("cache.key")),
    ("repro.campaign.run", "run_key", _plain("cache.key")),
    ("repro.campaign.run", "run_key_batch", _plain("cache.key")),
    ("repro.fastpath.batched", "run_key_batch", _plain("cache.key")),
    ("repro.fastpath.batched", "plan_fastpath", _plain("fastpath.plan")),
    ("repro.fastpath.batched", "simulate_fastpath",
     _plain("fastpath.trial", after=_after_trial)),
    ("repro.fastpath.batched", "_uniform_exact", _plain("fastpath.uniform")),
    ("repro.fastpath.batched", "simulate_aligned_full", _plain("fastpath.aligned")),
    ("repro.fastpath.batched", "simulate_punctual_full", _plain("fastpath.punctual")),
    ("repro.fastpath.batched", "digest_for", _plain("fastpath.digest")),
    ("repro.campaign.run", "run_campaign", _plain("campaign.run", True)),
    ("repro.campaign.run", "evaluate", _plain("campaign.evaluate", True)),
    ("repro.campaign.executor", "execute_cell",
     _plain("campaign.cell", True, after=_after_cell)),
    ("repro.campaign.state", "append_jsonl_atomic", _plain("campaign.state_append")),
    ("repro.stream.engine", "stream_simulate", _plain("stream.run", True)),
    ("repro.stream.engine", "save_checkpoint", _plain("stream.checkpoint", True)),
)

#: (module, class, method, wrapper maker)
CLASS_PATCHES = (
    ("repro.cache", "ResultCache", "get", _plain("cache.get", after=_after_get)),
    ("repro.cache", "ResultCache", "put", _plain("cache.put", after=_after_put)),
    ("repro.sim.rng", "RngFactory", "stream", _plain("rng.derive")),
    ("repro.sim.rng", "RngFactory", "fresh", _plain("rng.derive")),
    ("repro.channel.jamming", "StochasticJammer", "attempt",
     _plain("jammer.attempt", after=_after_attempt)),
    ("repro.stream.arrivals", "BoundArrivals", "arrivals_at", _plain("stream.arrivals")),
    ("repro.stream.arrivals", "BoundArrivals", "next_arrival_at", _plain("stream.arrivals")),
    ("repro.stream.arrivals", "BoundArrivals", "release_before", _plain("stream.arrivals")),
    ("repro.obs.sketches", "QuantileSketch", "offer", _plain("stream.sketch")),
    ("repro.obs.sketches", "ReservoirSampler", "offer", _plain("stream.sketch")),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Install every wrapper; returns the function that removes them."""
    undo: List[Tuple[Any, str, Any]] = []
    for modname, attr, make in MODULE_PATCHES:
        mod = importlib.import_module(modname)
        original = getattr(mod, attr)
        undo.append((mod, attr, original))
        setattr(mod, attr, make(tracer, original))
    for modname, clsname, attr, make in CLASS_PATCHES:
        cls = getattr(importlib.import_module(modname), clsname)
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, make(tracer, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- per-layer metrics ---------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    snap: Snapshot, extras: Dict[str, Any], overhead_frac: float
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric for one traced round, as ``(value, unit)``.

    ``extras`` carries what the workload observed outside the tracer,
    from its untraced rounds: campaign cell wall times and worker
    occupancy, stream shedding, peak live set and progress ticks.
    """
    stats, counts = snap.stats, snap.counts

    def calls(*names: str) -> int:
        return int(sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names))

    def secs(*names: str) -> float:
        return float(sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names))

    def self_s(name: str) -> float:
        return float(stats.get(name, (0, 0.0, 0.0))[2])

    act = [f"proto.{p}.act" for p in PROTOCOLS]
    obs = [f"proto.{p}.observe" for p in PROTOCOLS]
    m: Dict[str, Tuple[float, str]] = {
        "registry.build_s": (secs("registry.build"), "s"),
        "registry.build_calls": (calls("registry.build"), "count"),
        "parallel.run_seeds_s": (secs("parallel.run_seeds"), "s"),
        "parallel.self_s": (self_s("parallel.run_seeds"), "s"),
        "engine.simulate_s": (secs("engine.simulate"), "s"),
        "engine.runs": (calls("engine.simulate"), "count"),
        "engine.slots": (int(counts.get("engine.slots", 0)), "count"),
        "engine.slots_per_s": (
            _ratio(counts.get("engine.slots", 0), secs("engine.simulate")),
            "slots/s",
        ),
        "engine.live_job_slots": (
            int(counts.get("engine.live_job_slots", 0)), "count"
        ),
        "engine.self_s": (self_s("engine.simulate"), "s"),
    }
    for p in PROTOCOLS:
        m[f"proto.{p}.act_s"] = (secs(f"proto.{p}.act"), "s")
        m[f"proto.{p}.observe_s"] = (secs(f"proto.{p}.observe"), "s")
    m.update(
        {
            "proto.act_calls": (calls(*act), "count"),
            "proto.observe_calls": (calls(*obs), "count"),
            "proto.init_s": (secs("proto.init"), "s"),
            "rng.derive_s": (secs("rng.derive"), "s"),
            "rng.derive_calls": (calls("rng.derive"), "count"),
            "jammer.attempt_s": (secs("jammer.attempt"), "s"),
            "jammer.attempt_calls": (calls("jammer.attempt"), "count"),
            "jammer.jam_ratio": (
                _ratio(counts.get("jammer.jammed", 0), calls("jammer.attempt")),
                "ratio",
            ),
            "fastpath.plan_s": (secs("fastpath.plan"), "s"),
            "fastpath.trials": (calls("fastpath.trial"), "count"),
            "fastpath.uniform_s": (secs("fastpath.uniform"), "s"),
            "fastpath.aligned_s": (secs("fastpath.aligned"), "s"),
            "fastpath.punctual_s": (secs("fastpath.punctual"), "s"),
            "fastpath.digest_s": (secs("fastpath.digest"), "s"),
            "fastpath.slots_per_s": (
                _ratio(counts.get("fastpath.slots", 0), secs("fastpath.trial")),
                "slots/s",
            ),
            "cache.key_s": (secs("cache.key"), "s"),
            "cache.key_calls": (calls("cache.key"), "count"),
            "cache.get_s": (secs("cache.get"), "s"),
            "cache.get_calls": (calls("cache.get"), "count"),
            "cache.hit_ratio": (
                _ratio(counts.get("cache.hits", 0), calls("cache.get")),
                "ratio",
            ),
            "cache.put_s": (secs("cache.put"), "s"),
            "cache.put_calls": (calls("cache.put"), "count"),
            "cache.bytes_written": (
                int(counts.get("cache.bytes_written", 0)), "B"
            ),
            "campaign.evaluate_s": (secs("campaign.evaluate"), "s"),
            "campaign.evaluate_calls": (calls("campaign.evaluate"), "count"),
            "campaign.state_append_s": (secs("campaign.state_append"), "s"),
            "campaign.state_appends": (calls("campaign.state_append"), "count"),
            "campaign.cell_s_p50": (
                median(extras["cell_walls"]) if extras.get("cell_walls") else 0.0,
                "s",
            ),
            "campaign.worker_busy_frac": (
                float(extras.get("worker_busy_frac", 0.0)), "ratio"
            ),
        }
    )
    m.update(_pool_metrics(snap.cells))
    ticks_ms = [1000.0 * dt for dt in extras.get("tick_intervals", ())]
    m.update(
        {
            "stream.run_s": (secs("stream.run"), "s"),
            "stream.self_s": (self_s("stream.run"), "s"),
            "stream.arrivals_s": (secs("stream.arrivals"), "s"),
            "stream.checkpoint_s": (secs("stream.checkpoint"), "s"),
            "stream.checkpoints": (calls("stream.checkpoint"), "count"),
            "stream.sketch_s": (secs("stream.sketch"), "s"),
            "stream.shed_ratio": (
                _ratio(extras.get("shed", 0), extras.get("released", 0)),
                "ratio",
            ),
            "stream.peak_live": (int(extras.get("peak_live", 0)), "count"),
            "stream.tick_ms_p50": (percentile(ticks_ms, 50), "ms"),
            "stream.tick_ms_p99": (percentile(ticks_ms, 99), "ms"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
        }
    )
    return m


def _pool_metrics(cells: List[Tuple[Any, Any]]) -> Dict[str, Tuple[float, str]]:
    """Pickled sizes and round-trip time of the campaign's cell traffic.

    Measured here, outside any pool, on the tasks and outcomes the
    traced (in-process) campaign produced: what a pool worker would
    receive and send back.
    """
    task_bytes = sum(len(pickle.dumps(task)) for task, _ in cells)
    result_bytes = sum(len(pickle.dumps(out)) for _, out in cells)
    t0 = time.perf_counter()
    for task, out in cells:
        pickle.loads(pickle.dumps(task))
        pickle.loads(pickle.dumps(out))
    pickle_s = time.perf_counter() - t0 if cells else 0.0
    return {
        "pool.task_bytes": (task_bytes, "B"),
        "pool.result_bytes": (result_bytes, "B"),
        "pool.pickle_s": (pickle_s, "s"),
    }
