"""P1 — engine and fast-path performance baselines.

Not a paper experiment: guards the simulator's own performance so that
experiment-suite runtimes stay predictable.  Benchmarks the slot
engine's throughput on the three protocol families, the full-protocol
kernels on the *same* instances (so the engine-vs-kernel speedups are
like-for-like), and the seed-major batched driver against the per-seed
experiment loop, and records slots/second figures in the archived
table.  The performance record of the user-facing paths is
``bench/run.py`` and ``repro perf``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.tables import format_table
from repro.baselines import beb_factory
from repro.core.aligned import aligned_factory
from repro.core.punctual import punctual_factory
from repro.core.uniform import uniform_factory
from repro.experiments.parallel import run_seeds
from repro.fastpath import simulate_uniform_fast
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

#: Best-of-N timing; the engine is deterministic, repeats only shake
#: out scheduler noise.
REPEATS = 3


def _throughput(fn) -> tuple[int, float]:
    """(slots, best slots/second) over ``REPEATS`` identical runs."""
    best = 0.0
    slots = 0
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        res = fn()
        dt = time.perf_counter() - t0
        slots = res.slots_simulated
        best = max(best, slots / dt)
    return slots, best


#: Trials per kernel timing batch: one kernel trial is sub-millisecond,
#: so a batch keeps the measurement above timer noise.
KERNEL_TRIALS = 64

#: Kernel slots/second floors.  Each sits midway between the lowest
#: reading and half the highest over 24 runs of this file on the 2-CPU
#: Xeon benchmark host (the kernels' code the same in all 24): ALIGNED
#: read 523k-1,157k, PUNCTUAL 3.42M-7.00M.  That host's speed varies
#: about 2x over minutes, so a kernel that halves its throughput fails
#: unless the host is at its fastest, and an unchanged one only at its
#: slowest.  The engine-relative speedups stay printed, not asserted:
#: they move with every engine change.
ALIGNED_KERNEL_FLOOR = 550_000
PUNCTUAL_KERNEL_FLOOR = 3_450_000

#: Seeds/second floor of the seed-major batched UNIFORM driver, by the
#: same rule over 24 runs on that host (1,466-2,455 seeds/s).  Its ratio
#: to the per-seed engine loop stays printed, not asserted: once the
#: engine let idle jobs sleep it read 2.2-2.8x (7 runs), against
#: 6.2-9.5x before (3 runs), with the batched driver unchanged.
BATCHED_SEEDS_FLOOR = 1_350


# Module-level so the multi-process run_seeds comparison can pickle them.
def _bench_batch_build():
    return batch_instance(16, window=1024)


def _bench_batch_proto(_instance):
    return uniform_factory()


def _kernel_throughput(instance, factory) -> tuple[int, float]:
    """(slots, best slots/second) for a full-protocol kernel."""
    plan, reason = plan_fastpath(instance, factory)
    assert plan is not None, f"kernel should qualify here: {reason}"
    best = 0.0
    slots = 0
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        total = 0
        for s in range(KERNEL_TRIALS):
            total += simulate_fastpath(plan, s).slots_simulated
        dt = time.perf_counter() - t0
        slots = total
        best = max(best, total / dt)
    return slots, best


def test_p1_engine_throughput(benchmark, emit):
    rows = []
    engine_rate = {}
    kernel_rate = {}
    speedup = {}

    aligned_inst = single_class_instance(16, level=10)
    slots, rate = _throughput(
        lambda: simulate(aligned_inst, aligned_factory(ALIGNED), seed=0)
    )
    rows.append(["engine / ALIGNED (16 jobs, w=1024)", slots, rate])
    engine_rate["aligned"] = rate

    punctual_inst = batch_instance(16, window=8192)
    slots, rate = _throughput(
        lambda: simulate(punctual_inst, punctual_factory(PUNCTUAL), seed=0)
    )
    rows.append(["engine / PUNCTUAL (16 jobs, w=8192)", slots, rate])
    engine_rate["punctual"] = rate

    beb_inst = batch_instance(64, window=8192)
    slots, rate = _throughput(
        lambda: simulate(beb_inst, beb_factory(), seed=0)
    )
    rows.append(["engine / BEB (64 jobs, w=8192)", slots, rate])
    engine_rate["beb"] = rate

    uniform_inst = batch_instance(64, window=8192)
    slots, rate = _throughput(
        lambda: simulate(uniform_inst, uniform_factory(), seed=0)
    )
    rows.append(["engine / UNIFORM (64 jobs, w=8192)", slots, rate])
    engine_rate["uniform"] = rate

    big = batch_instance(8192, window=65536)
    t0 = time.perf_counter()
    simulate_uniform_fast(big, np.random.default_rng(0))
    dt = time.perf_counter() - t0
    rows.append(["fastpath / UNIFORM (8192 jobs)", 65536, 65536 / dt])

    # -- full-protocol kernels, same instances as the engine rows -------
    for label, key, engine_key, instance, factory in (
        (
            "kernel / ALIGNED (16 jobs, w=1024)",
            "aligned_kernel",
            "aligned",
            aligned_inst,
            aligned_factory(ALIGNED),
        ),
        (
            "kernel / PUNCTUAL (16 jobs, w=8192)",
            "punctual_kernel",
            "punctual",
            punctual_inst,
            punctual_factory(PUNCTUAL),
        ),
        (
            "kernel / UNIFORM (64 jobs, w=8192)",
            "uniform_kernel",
            "uniform",
            uniform_inst,
            uniform_factory(),
        ),
    ):
        slots, rate = _kernel_throughput(instance, factory)
        kernel_rate[key] = rate
        speedup[key] = rate / engine_rate[engine_key]
        rows.append([label, slots, rate])

    # -- seed-major batching vs the parallel per-seed experiment loop ---
    # The engine side runs a shorter seed list (its per-seed cost is
    # flat, and 10k engine seeds would take minutes); the batched side
    # runs the full 10k so its per-seed figure includes all whole-batch
    # overheads.
    batch_build = _bench_batch_build
    batch_proto = _bench_batch_proto
    engine_seeds, engine_procs = 200, 4
    t0 = time.perf_counter()
    run_seeds(
        batch_build,
        batch_proto,
        seeds=list(range(engine_seeds)),
        processes=engine_procs,
    )
    engine_per_seed = (time.perf_counter() - t0) / engine_seeds
    batched_seeds = 10_000
    t0 = time.perf_counter()
    run_seeds(batch_build, batch_proto, range(batched_seeds), fastpath="on")
    batched_per_seed = (time.perf_counter() - t0) / batched_seeds
    batched_rate = 1.0 / batched_per_seed  # seeds/second, not slots
    speedup["batched"] = engine_per_seed / batched_per_seed
    rows.append(
        [f"batched / UNIFORM ({batched_seeds:,} seeds)", batched_seeds, batched_rate]
    )
    for key, label in (
        ("aligned_kernel", "ALIGNED kernel"),
        ("punctual_kernel", "PUNCTUAL kernel"),
        ("uniform_kernel", "UNIFORM kernel"),
        ("batched", "UNIFORM batched"),
    ):
        rows.append([f"speedup / {label} over engine", "", f"{speedup[key]:.1f}x"])

    emit(
        "P1_engine_perf",
        format_table(
            ["kernel", "slots", "slots/second"],
            rows,
            float_fmt="{:,.0f}",
            title="P1 — simulator throughput baselines (informational)",
        ),
    )

    # sanity floors: an order of magnitude below today's numbers
    assert rows[0][2] > 3_000, "ALIGNED engine unexpectedly slow"
    assert rows[2][2] > 10_000, "BEB engine unexpectedly slow"
    # acceptance floors for the full-protocol kernels and batching
    assert kernel_rate["aligned_kernel"] > ALIGNED_KERNEL_FLOOR, (
        f"ALIGNED kernel below {ALIGNED_KERNEL_FLOOR:,} slots/second"
    )
    assert kernel_rate["punctual_kernel"] > PUNCTUAL_KERNEL_FLOOR, (
        f"PUNCTUAL kernel below {PUNCTUAL_KERNEL_FLOOR:,} slots/second"
    )
    assert batched_rate > BATCHED_SEEDS_FLOOR, (
        f"seed-major batching below {BATCHED_SEEDS_FLOOR:,} seeds/second"
    )

    benchmark(
        lambda: simulate(aligned_inst, aligned_factory(ALIGNED), seed=1)
    )
