#!/usr/bin/env python
"""CI perf smoke: a small slice of ``bench_engine_perf.py`` with floors.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/perf_smoke.py

Times the slot engine and each full-protocol kernel on one standard
instance each and fails (exit 1) when throughput drops below its gate.
The gate is trend-aware: when ``BENCH_engine.json`` carries enough
same-host history (grown by ``repro perf``), the floor rises to half
the trailing-window median, so a slow bleed that never crosses the
conservative static floor still fails; with no usable history the
static floor — an order of magnitude under today's numbers — applies,
so only a real regression (an accidentally quadratic loop, a per-slot
allocation, a kernel falling back to scalar code) trips it, not CI
runner noise.  Also cross-checks the batched fastpath against the
engine on a handful of seeds, so a kernel that got fast by getting
wrong fails here before the full verify battery runs.
"""

from __future__ import annotations

import sys
import time

from repro.cache import stable_digest
from repro.core.aligned import aligned_factory
from repro.core.punctual import punctual_factory
from repro.core.uniform import uniform_factory
from repro.experiments.parallel import run_seeds
from repro.fastpath.batched import plan_fastpath, simulate_fastpath
from repro.params import AlignedParams, PunctualParams
from repro.sim.engine import simulate
from repro.workloads import batch_instance, single_class_instance

ALIGNED = AlignedParams(lam=1, tau=4, min_level=9)
PUNCTUAL = PunctualParams(
    aligned=AlignedParams(lam=1, tau=2, min_level=10),
    lam=2,
    pullback_exp=1,
    slingshot_exp=2,
)

#: (label, static floor in slots/second) — roughly 10x under current
#: numbers; the fallback when the trajectory has no usable history.
FLOORS = {
    "engine/uniform": 3_000,
    "kernel/uniform": 200_000,
    "kernel/aligned": 50_000,
    "kernel/punctual": 300_000,
}

#: The committed performance trajectory (``repro perf`` grows it).
BENCH_PATH = "BENCH_engine.json"


def _gates() -> dict:
    """Per-label throughput gates: trend-aware when history allows."""
    from repro.obs.perftrack import load_bench, trend_floor

    data = load_bench(BENCH_PATH)
    return {
        label: trend_floor(data, label, static)
        for label, static in FLOORS.items()
    }


def _engine_rate(instance, factory_fn, repeats=3) -> float:
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = simulate(instance, factory_fn(), seed=0)
        dt = time.perf_counter() - t0
        best = max(best, res.slots_simulated / dt)
    return best


def _kernel_rate(instance, factory, trials=32, repeats=3) -> float:
    plan, reason = plan_fastpath(instance, factory)
    assert plan is not None, f"kernel should qualify: {reason}"
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        slots = sum(
            simulate_fastpath(plan, s).slots_simulated for s in range(trials)
        )
        dt = time.perf_counter() - t0
        best = max(best, slots / dt)
    return best


def main() -> int:
    failures = []
    rates = {}

    uniform_inst = batch_instance(64, window=8192)
    rates["engine/uniform"] = _engine_rate(uniform_inst, uniform_factory)
    rates["kernel/uniform"] = _kernel_rate(uniform_inst, uniform_factory())
    rates["kernel/aligned"] = _kernel_rate(
        single_class_instance(16, level=10), aligned_factory(ALIGNED)
    )
    rates["kernel/punctual"] = _kernel_rate(
        batch_instance(16, window=8192), punctual_factory(PUNCTUAL)
    )

    gates = _gates()
    for label, rate in rates.items():
        floor = gates[label]
        kind = "trend" if floor > FLOORS[label] else "static"
        status = "ok" if rate > floor else "BELOW FLOOR"
        print(
            f"{label:<16} {rate:>14,.0f} slots/s "
            f"({kind} floor {floor:>12,.0f}) {status}"
        )
        if rate <= floor:
            failures.append(
                f"{label} at {rate:,.0f} slots/s <= {floor:,.0f} ({kind})"
            )

    # Engine agreement: the batched fastpath must be bit-exact with the
    # per-seed engine loop on single-attempt UNIFORM.
    def build():
        return batch_instance(16, window=256)

    def proto(_instance):
        return uniform_factory()

    seeds = list(range(6))
    engine = [stable_digest(d) for d in run_seeds(build, proto, seeds=seeds)]
    batched = [
        stable_digest(d)
        for d in run_seeds(build, proto, seeds=seeds, fastpath="on")
    ]
    if engine == batched:
        print(f"engine agreement  {len(seeds)} seeds bit-exact ok")
    else:
        failures.append("batched fastpath digests diverged from the engine")

    if failures:
        print("\nperf smoke FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nperf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
