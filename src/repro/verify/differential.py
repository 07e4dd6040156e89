"""The differential runner: engine ↔ fastpath kernel cross-execution.

Each fastpath kernel models a protocol the slot engine also runs, so the
two implementations can be diffed.  Three strengths of comparison apply,
depending on whether the draw orders can be made to coincide:

**Exact (offset replay).**  UNIFORM with ``attempts = 1`` depends only on
which window slot each job picks, and the engine's per-job draw is
replayable: job ``j`` draws from ``RngFactory(seed).fresh("job", j)``
exactly what :class:`~repro.core.uniform.UniformProtocol` draws in
``on_begin``.  The replay builds each stream's ``SeedSequence`` (it
prepares no block), so it also checks the engine's block-derived job
streams against the reference derivation.  Feeding those replayed
offsets into
:func:`~repro.fastpath.uniform_fast.simulate_uniform_fast` (its
``offsets=`` parameter) makes the kernel bit-comparable to the engine:
per-job success flags, success counts, and the engine's slot count (the
union of the per-job active intervals) must all match exactly.

**Dominance.**  With ``attempts > 1`` the kernel has jobs transmit in
*all* chosen slots while the engine's jobs stop after a success, so the
kernel over-counts contention: any job the kernel marks successful must
also succeed in the engine (the converse may fail).  The replayed picks
make this a per-job, per-seed check, not a statistical one.

**Paired-draw naive references.**  The remaining kernels (estimation,
broadcast, anarchist, the aligned chain) vectorize their models in ways
the engine's draw order cannot reproduce.  For these the differential is
against a naive scalar re-implementation that consumes *exactly the same
generator draws* — same calls, same order — so any disagreement is a
logic bug in the vectorization (``np.unique`` bookkeeping, ``bincount``
indexing), not Monte-Carlo noise.

**Statistical.**  Jammed UNIFORM runs draw jam decisions in different
orders in the two implementations, so only distribution-level agreement
is checkable: mean success rates over many seeds/trials within an
empirically derived tolerance.

**Full-protocol kernels.**  The seed-major batched path
(:mod:`repro.fastpath.batched`) gets its own checks at the same two
strengths: the engine-exact UNIFORM replay must match the engine's
``SeedDigest`` field-for-field per seed — clean *and* jammed, and both
through :func:`~repro.fastpath.batched.simulate_fastpath` and through
``run_seeds(fastpath="on")``, the seed-major kernel path — while the
ALIGNED/PUNCTUAL kernels
(:func:`~repro.fastpath.aligned_full.simulate_aligned_full`,
:func:`~repro.fastpath.punctual_full.simulate_punctual_full`) consume
their own RNG stream and are compared statistically, engine seeds
against kernel trials.

A failing exact check is handed to :func:`shrink_failing_instance`,
which greedily deletes jobs while the discrepancy reproduces, and the
minimized instance is attached to the check result.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.feedback import Feedback
from repro.core.broadcast import BroadcastSchedule
from repro.core.estimation import resolve_estimate
from repro.experiments.parallel import SeedDigest, run_seeds
from repro.fastpath.batched import plan_fastpath, simulate_fastpath
from repro.fastpath.broadcast_fast import simulate_broadcast_fast
from repro.fastpath.estimation_fast import (
    estimation_success_counts,
    simulate_estimation_fast,
)
from repro.fastpath.anarchist_fast import simulate_anarchists_fast
from repro.fastpath.uniform_fast import simulate_uniform_fast
from repro.core.rounds import ROUND_LENGTH
from repro.obs.telemetry import Telemetry
from repro.params import AlignedParams, PunctualParams
from repro.sim.engine import simulate
from repro.sim.instance import Instance
from repro.sim.rng import RngFactory
from repro.stream.arrivals import materialize
from repro.stream.engine import stream_simulate
from repro.verify.corpus import VerifyCase
from repro.verify.report import Discrepancy

__all__ = [
    "diff_aligned_kernel",
    "diff_anarchist_kernel",
    "diff_broadcast_kernel",
    "diff_estimation_kernel",
    "diff_fastpath_batched",
    "diff_fastpath_exact",
    "diff_fastpath_statistical",
    "diff_streaming_equivalence",
    "diff_uniform_dominance",
    "diff_uniform_exact",
    "diff_uniform_statistical",
    "expected_uniform_slots",
    "replay_uniform_picks",
    "shrink_failing_instance",
]


# ---------------------------------------------------------------------------
# UNIFORM: offset replay
# ---------------------------------------------------------------------------


def replay_uniform_picks(
    instance: Instance, seed: int, attempts: int = 1
) -> List[np.ndarray]:
    """The slot picks each job's protocol draws in the engine.

    Replays, per job in ``by_release`` order, exactly the draw
    :class:`~repro.core.uniform.UniformProtocol.on_begin` makes from the
    job's stream: ``choice(window, size=min(attempts, window),
    replace=False)`` on a fresh ``("job", job_id)`` generator.
    """
    rngs = RngFactory(seed)
    picks: List[np.ndarray] = []
    for job in instance.by_release:
        rng = rngs.fresh("job", job.job_id)
        k = min(attempts, job.window)
        p = rng.choice(job.window, size=k, replace=False)
        picks.append(np.asarray(p, dtype=np.int64))
    return picks


def expected_uniform_slots(
    instance: Instance, offsets: Sequence[int]
) -> int:
    """The engine's slot count for UNIFORM/attempts=1, derived closed-form.

    Job ``j`` is live from its release through its single transmission
    slot ``release + offset`` (it retires right after), and the engine
    skips slots where nobody is live — so the simulated-slot count is the
    size of the union of the inclusive integer intervals
    ``[release_j, release_j + offset_j]``.
    """
    intervals = sorted(
        (j.release, j.release + int(off))
        for j, off in zip(instance.by_release, offsets)
    )
    total = 0
    cur_lo: Optional[int] = None
    cur_hi = 0
    for lo, hi in intervals:
        if cur_lo is None or lo > cur_hi + 1:
            if cur_lo is not None:
                total += cur_hi - cur_lo + 1
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_lo is not None:
        total += cur_hi - cur_lo + 1
    return total


def diff_uniform_exact(case: VerifyCase, seed: int) -> List[Discrepancy]:
    """Engine vs uniform kernel under offset replay: must be bit-equal."""
    instance = case.instance()
    picks = replay_uniform_picks(instance, seed, attempts=1)
    offsets = np.array([int(p[0]) for p in picks], dtype=np.int64)

    engine = simulate(
        instance, case.factory(), jammer=case.jammer(), seed=seed, trace=True
    )
    fast = simulate_uniform_fast(
        instance, np.random.default_rng(0), offsets=offsets
    )

    out: List[Discrepancy] = []

    def mismatch(quantity: str, expected, actual, detail: str = "") -> None:
        out.append(
            Discrepancy(
                case=case.name,
                seed=seed,
                check="uniform-exact",
                quantity=quantity,
                expected=str(expected),
                actual=str(actual),
                detail=detail,
            )
        )

    engine_success = [o.succeeded for o in engine.outcomes]
    fast_success = [bool(b) for b in fast.success]
    for i, (job, e, f) in enumerate(
        zip(instance.by_release, engine_success, fast_success)
    ):
        if e != f:
            mismatch(
                f"job[{job.job_id}].succeeded",
                e,
                f,
                detail=f"offset {int(offsets[i])}, window {job.window}",
            )
    if engine.n_succeeded != fast.n_succeeded:
        mismatch("n_succeeded", engine.n_succeeded, fast.n_succeeded)

    slots_expected = expected_uniform_slots(instance, offsets)
    if engine.slots_simulated != slots_expected:
        mismatch(
            "slots_simulated",
            slots_expected,
            engine.slots_simulated,
            detail="union of per-job active intervals",
        )

    assert engine.trace is not None
    n_success_slots = sum(
        1 for r in engine.trace.records if r.feedback is Feedback.SUCCESS
    )
    if n_success_slots != fast.n_successful_slots:
        mismatch(
            "n_successful_slots", n_success_slots, fast.n_successful_slots
        )
    n_collision_slots = sum(
        1
        for r in engine.trace.records
        if r.feedback is Feedback.NOISE and not r.jammed
    )
    if n_collision_slots != fast.n_collision_slots:
        mismatch(
            "n_collision_slots", n_collision_slots, fast.n_collision_slots
        )
    return out


def diff_uniform_dominance(case: VerifyCase, seed: int) -> List[Discrepancy]:
    """attempts > 1: kernel-model success must imply engine success.

    The kernel's model has every job transmit in all its chosen slots;
    the engine's jobs stop transmitting once they succeed, which can only
    *remove* collisions.  So with the same replayed picks, the set of
    jobs the always-transmit model delivers is a subset of the engine's.
    """
    instance = case.instance()
    picks = replay_uniform_picks(instance, seed, attempts=case.attempts)

    slot_count: Dict[int, int] = {}
    for job, p in zip(instance.by_release, picks):
        for off in p:
            s = job.release + int(off)
            slot_count[s] = slot_count.get(s, 0) + 1
    model_success = [
        any(slot_count[job.release + int(off)] == 1 for off in p)
        for job, p in zip(instance.by_release, picks)
    ]

    engine = simulate(instance, case.factory(), seed=seed)
    out: List[Discrepancy] = []
    for job, model_ok, outcome in zip(
        instance.by_release, model_success, engine.outcomes
    ):
        if model_ok and not outcome.succeeded:
            out.append(
                Discrepancy(
                    case=case.name,
                    seed=seed,
                    check="uniform-dominance",
                    quantity=f"job[{job.job_id}].succeeded",
                    expected="True (kernel model delivered it)",
                    actual="False",
                    detail="engine success must dominate the "
                    "always-transmit model",
                )
            )
    return out


def diff_uniform_statistical(
    case: VerifyCase, *, n_trials: int = 2000
) -> List[Discrepancy]:
    """Jammed UNIFORM: engine and kernel success rates must agree.

    Jam decisions are drawn in different orders by the two
    implementations, so the comparison is distributional: the mean
    per-run success rate over the case's seeds (engine) and over
    ``n_trials`` kernel trials must agree within five combined standard
    errors (plus a small absolute floor for tiny variances).
    """
    instance = case.instance()
    jammer = case.jammer()
    p_jam = float(getattr(jammer, "p_jam", 0.0))

    engine_rates = []
    for seed in case.seeds:
        res = simulate(
            instance, case.factory(), jammer=case.jammer(), seed=seed
        )
        engine_rates.append(res.success_rate)

    rng = np.random.default_rng(20200707)  # fixed: the check is a pin
    fast_rates = []
    for _ in range(n_trials):
        fast = simulate_uniform_fast(instance, rng, p_jam=p_jam)
        fast_rates.append(fast.success_rate)

    e = np.asarray(engine_rates)
    f = np.asarray(fast_rates)
    se = math.sqrt(
        float(e.var(ddof=1)) / e.size + float(f.var(ddof=1)) / f.size
    )
    gap = abs(float(e.mean()) - float(f.mean()))
    tol = 5.0 * se + 0.02
    if gap > tol:
        return [
            Discrepancy(
                case=case.name,
                seed=-1,
                check="uniform-statistical",
                quantity="mean success rate",
                expected=f"{float(f.mean()):.4f} ± {tol:.4f}",
                actual=f"{float(e.mean()):.4f}",
                detail=f"{e.size} engine seeds vs {f.size} kernel trials",
            )
        ]
    return []


# ---------------------------------------------------------------------------
# Paired-draw naive references for the model kernels
# ---------------------------------------------------------------------------

_AL = AlignedParams(lam=1, tau=4, min_level=9)
_PU = PunctualParams(
    aligned=AlignedParams(lam=1, tau=2, min_level=10),
    lam=2,
    pullback_exp=1,
    slingshot_exp=2,
)


def diff_estimation_kernel(seed: int) -> List[Discrepancy]:
    """Estimation kernel vs the shared resolve rule on identical draws.

    Running :func:`estimation_success_counts` and then resolving each
    row with :func:`~repro.core.estimation.resolve_estimate` consumes
    exactly the draws :func:`simulate_estimation_fast` consumes, so the
    two must agree element-for-element.
    """
    out: List[Discrepancy] = []
    for n_jobs, level, p_jam in ((12, 6, 0.0), (40, 8, 0.0), (12, 6, 0.3)):
        fast = simulate_estimation_fast(
            n_jobs, level, _AL, np.random.default_rng(seed),
            n_trials=16, p_jam=p_jam,
        )
        counts = estimation_success_counts(
            n_jobs, level, _AL, np.random.default_rng(seed),
            n_trials=16, p_jam=p_jam,
        )
        ref = np.array(
            [
                resolve_estimate(list(counts[t]), _AL.tau, level)
                for t in range(counts.shape[0])
            ],
            dtype=np.int64,
        )
        if not np.array_equal(fast, ref):
            out.append(
                Discrepancy(
                    case="estimation-kernel",
                    seed=seed,
                    check="paired-draws",
                    quantity=f"estimates(n={n_jobs}, level={level}, "
                    f"p_jam={p_jam})",
                    expected=str(ref.tolist()),
                    actual=str(fast.tolist()),
                )
            )
    return out


def _naive_broadcast(
    n_jobs: int,
    level: int,
    estimate: int,
    params: AlignedParams,
    rng: np.random.Generator,
    p_jam: float,
) -> Tuple[int, int]:
    """Scalar reference for the broadcast kernel, same draws, dict counts."""
    sched = BroadcastSchedule(level, estimate, params.lam)
    alive = n_jobs
    steps = 0
    for phase in range(sched.n_phases):
        x = sched.subphase_lengths[phase]
        for _ in range(params.lam):
            steps += x
            if alive == 0:
                continue
            picks = rng.integers(0, x, size=alive)
            jam = rng.random(x) < p_jam if p_jam > 0.0 else None
            counts: Dict[int, int] = {}
            for p in picks:
                counts[int(p)] = counts.get(int(p), 0) + 1
            delivered = 0
            for p in picks:
                if counts[int(p)] == 1 and (jam is None or not jam[int(p)]):
                    delivered += 1
            alive -= delivered
    return n_jobs - alive, steps


def diff_broadcast_kernel(seed: int) -> List[Discrepancy]:
    """Broadcast kernel vs a naive scalar reference on identical draws."""
    out: List[Discrepancy] = []
    for n_jobs, level, estimate, p_jam in (
        (10, 5, 16, 0.0),
        (30, 6, 32, 0.0),
        (10, 5, 16, 0.25),
    ):
        fast = simulate_broadcast_fast(
            n_jobs, level, estimate, _AL,
            np.random.default_rng(seed), p_jam=p_jam,
        )
        ref_ok, ref_steps = _naive_broadcast(
            n_jobs, level, estimate, _AL,
            np.random.default_rng(seed), p_jam,
        )
        if (fast.n_succeeded, fast.steps_used) != (ref_ok, ref_steps):
            out.append(
                Discrepancy(
                    case="broadcast-kernel",
                    seed=seed,
                    check="paired-draws",
                    quantity=f"(n_succeeded, steps) at n={n_jobs}, "
                    f"level={level}, est={estimate}, p_jam={p_jam}",
                    expected=str((ref_ok, ref_steps)),
                    actual=str((fast.n_succeeded, fast.steps_used)),
                )
            )
    return out


def diff_anarchist_kernel(seed: int) -> List[Discrepancy]:
    """Anarchist kernel vs a naive scalar reference on identical draws."""
    out: List[Discrepancy] = []
    for n_jobs, window, p_jam in ((8, 1024, 0.0), (20, 4096, 0.3)):
        fast = simulate_anarchists_fast(
            n_jobs, window, _PU, np.random.default_rng(seed), p_jam=p_jam
        )
        rng = np.random.default_rng(seed)
        p = _PU.anarchist_probability(window)
        n_slots = window // ROUND_LENGTH
        alive = n_jobs
        for _ in range(n_slots):
            if alive == 0:
                break
            tx = rng.binomial(alive, p)
            if tx == 1 and (p_jam == 0.0 or rng.random() >= p_jam):
                alive -= 1
        ref = (n_jobs, n_jobs - alive, n_slots)
        got = (fast.n_jobs, fast.n_succeeded, fast.slots_used)
        if got != ref:
            out.append(
                Discrepancy(
                    case="anarchist-kernel",
                    seed=seed,
                    check="paired-draws",
                    quantity=f"(n, ok, slots) at n={n_jobs}, w={window}, "
                    f"p_jam={p_jam}",
                    expected=str(ref),
                    actual=str(got),
                )
            )
    return out


def diff_aligned_kernel(seed: int) -> List[Discrepancy]:
    """Aligned chain kernel vs estimation + naive broadcast, same draws."""
    from repro.core.broadcast import total_active_steps
    from repro.core.estimation import estimation_length
    from repro.fastpath.aligned_fast import simulate_class_run_fast

    out: List[Discrepancy] = []
    for n_jobs, level in ((6, 5), (20, 7)):
        fast = simulate_class_run_fast(
            n_jobs, level, _AL, np.random.default_rng(seed)
        )
        rng = np.random.default_rng(seed)
        estimate = int(
            simulate_estimation_fast(n_jobs, level, _AL, rng, n_trials=1)[0]
        )
        est_len = estimation_length(level, _AL.lam)
        if estimate == 0:
            ref = (n_jobs, 0, 0, est_len, False)
        else:
            ref_ok, ref_steps = _naive_broadcast(
                n_jobs, level, estimate, _AL, rng, 0.0
            )
            total = total_active_steps(level, estimate, _AL.lam)
            used = est_len + ref_steps
            ref = (n_jobs, estimate, ref_ok, used, used < total)
        got = (
            fast.n_jobs,
            fast.estimate,
            fast.n_succeeded,
            fast.active_steps,
            fast.truncated,
        )
        if got != ref:
            out.append(
                Discrepancy(
                    case="aligned-kernel",
                    seed=seed,
                    check="paired-draws",
                    quantity=f"class run at n={n_jobs}, level={level}",
                    expected=str(ref),
                    actual=str(got),
                )
            )
    return out


# ---------------------------------------------------------------------------
# full-protocol kernels and the seed-major kernel path
# ---------------------------------------------------------------------------

_DIGEST_FIELDS = (
    "seed",
    "n_jobs",
    "n_succeeded",
    "by_window",
    "slots_simulated",
    "latency_sum",
    "watchdog_reason",
)


def _plan_discrepancy(case: VerifyCase, check: str, reason: str) -> Discrepancy:
    """The corpus promises these cases a kernel; a decline is a defect."""
    return Discrepancy(
        case=case.name,
        seed=-1,
        check=check,
        quantity="plan_fastpath",
        expected="a qualified kernel plan",
        actual="declined",
        detail=reason,
    )


def _digest_mismatches(
    case: VerifyCase,
    seed: int,
    check: str,
    engine: SeedDigest,
    kernel: SeedDigest,
    detail: str = "",
) -> List[Discrepancy]:
    out: List[Discrepancy] = []
    for field in _DIGEST_FIELDS:
        e, k = getattr(engine, field), getattr(kernel, field)
        if e != k:
            out.append(
                Discrepancy(
                    case=case.name,
                    seed=seed,
                    check=check,
                    quantity=field,
                    expected=str(e),
                    actual=str(k),
                    detail=detail,
                )
            )
    return out


def diff_fastpath_exact(case: VerifyCase, seed: int) -> List[Discrepancy]:
    """Engine vs the engine-exact UNIFORM fastpath trial: bit-equal digests.

    Unlike :func:`diff_uniform_exact` (which feeds replayed offsets into
    the component kernel), this goes through the production batched
    path: :func:`~repro.fastpath.batched.plan_fastpath` qualification
    and a :func:`~repro.fastpath.batched.simulate_fastpath` trial, which
    also replays the jam coins — so jammed cases are bit-exact here, not
    just statistical.
    """
    instance = case.instance()
    plan, reason = plan_fastpath(
        instance, case.factory(), jammer=case.jammer()
    )
    if plan is None:
        return [_plan_discrepancy(case, "fastpath-exact", reason)]
    (engine,) = run_seeds(
        case.build, lambda _i: case.factory(),
        seeds=[seed], jammer=case.jammer(),
    )
    kernel = simulate_fastpath(plan, seed)
    return _digest_mismatches(
        case, seed, "fastpath-exact", engine, kernel,
        detail="simulate_fastpath trial vs engine run_seeds",
    )


def diff_fastpath_batched(case: VerifyCase) -> List[Discrepancy]:
    """Seed-major ``run_seeds(fastpath="on")`` vs the engine, all seeds.

    Exercises the kernel path of ``run_seeds`` itself — one plan, one
    shared-prefix key walk, ordered results — on top of the per-trial
    exactness that :func:`diff_fastpath_exact` already pins.
    """
    engine = run_seeds(
        case.build, lambda _i: case.factory(),
        seeds=list(case.seeds), jammer=case.jammer(),
    )
    try:
        batched = run_seeds(
            case.build, lambda _i: case.factory(),
            case.seeds, jammer=case.jammer(), fastpath="on",
        )
    except Exception as exc:  # FastpathUnavailableError included
        return [_plan_discrepancy(case, "fastpath-batched", str(exc))]
    out: List[Discrepancy] = []
    for seed, e, k in zip(case.seeds, engine, batched):
        out.extend(
            _digest_mismatches(
                case, seed, "fastpath-batched", e, k,
                detail="run_seeds fastpath='on' vs per-seed engine run_seeds",
            )
        )
    return out


def diff_fastpath_statistical(
    case: VerifyCase, *, n_trials: int = 300
) -> List[Discrepancy]:
    """ALIGNED/PUNCTUAL full kernels: success rates must agree with the engine.

    The full-protocol kernels draw from their own ``"fastpath"`` stream,
    so per-seed digests cannot match the engine's; instead the mean
    per-run success rate over the case's engine seeds must agree with
    the mean over ``n_trials`` kernel trials within five combined
    standard errors (plus a small absolute floor, as in
    :func:`diff_uniform_statistical`).
    """
    instance = case.instance()
    plan, reason = plan_fastpath(
        instance, case.factory(), jammer=case.jammer()
    )
    if plan is None:
        return [_plan_discrepancy(case, "fastpath-statistical", reason)]

    engine_rates = []
    for seed in case.seeds:
        res = simulate(
            instance, case.factory(), jammer=case.jammer(), seed=seed
        )
        engine_rates.append(res.success_rate)

    # Kernel trials use a disjoint seed range: the "fastpath" stream is
    # already independent of the engine's streams, this just makes the
    # two samples visibly unpaired.
    kernel_rates = [
        simulate_fastpath(plan, 10_000 + t).success_rate
        for t in range(n_trials)
    ]

    e = np.asarray(engine_rates)
    k = np.asarray(kernel_rates)
    se = math.sqrt(
        float(e.var(ddof=1)) / e.size + float(k.var(ddof=1)) / k.size
    )
    gap = abs(float(e.mean()) - float(k.mean()))
    tol = 5.0 * se + 0.02
    if gap > tol:
        return [
            Discrepancy(
                case=case.name,
                seed=-1,
                check="fastpath-statistical",
                quantity="mean success rate",
                expected=f"{float(k.mean()):.4f} ± {tol:.4f}",
                actual=f"{float(e.mean()):.4f}",
                detail=f"{e.size} engine seeds vs {k.size} "
                f"{plan.kind} kernel trials",
            )
        ]
    return []


# ---------------------------------------------------------------------------
# streaming-equivalence: closed engine ↔ open streaming engine
# ---------------------------------------------------------------------------


def diff_streaming_equivalence(
    case: VerifyCase, seed: int
) -> List[Discrepancy]:
    """Closed engine on the frozen prefix vs the open streaming engine.

    :func:`~repro.stream.arrivals.materialize` freezes the case's
    arrival stream over ``[0, horizon)`` into a closed instance using the
    very draws the streaming run makes; the closed engine on that
    instance and :func:`~repro.stream.engine.stream_simulate` on the
    live stream (``max_slots=horizon``, no budget) must then agree
    bit-for-bit — per-job status, completion slot, and transmission
    count, plus the headline counts — under the case's jammer and fault
    plan alike.  Both sides run under the invariant checker with a
    :class:`~repro.obs.telemetry.Telemetry` attached, and must also agree
    on channel-access energy and on the run's job and channel counters.
    """
    process = case.process()
    assert process is not None, "streaming-equivalence case without process"
    instance = materialize(
        process, RngFactory(seed).stream("arrivals"), case.horizon
    )
    engine_tele, stream_tele = Telemetry(), Telemetry()
    engine = simulate(
        instance,
        case.factory(),
        jammer=case.jammer(),
        seed=seed,
        faults=case.faults(),
        invariants=True,
        telemetry=engine_tele,
    )
    stream = stream_simulate(
        process,
        case.factory(),
        seed=seed,
        max_slots=case.horizon,
        jammer=case.jammer(),
        faults=case.faults(),
        record_outcomes=True,
        invariants=True,
        telemetry=stream_tele,
    )

    out: List[Discrepancy] = []

    def mismatch(quantity: str, expected, actual, detail: str = "") -> None:
        out.append(
            Discrepancy(
                case=case.name,
                seed=seed,
                check="streaming-equivalence",
                quantity=quantity,
                expected=str(expected),
                actual=str(actual),
                detail=detail,
            )
        )

    assert stream.outcomes is not None
    if stream.jobs_released != len(instance):
        mismatch(
            "jobs_released",
            len(instance),
            stream.jobs_released,
            detail="materialized prefix vs released stream jobs",
        )
    for outcome in engine.outcomes:
        job = outcome.job
        got = stream.outcomes.get(job.job_id)
        want = (
            outcome.status,
            outcome.completion_slot,
            outcome.transmissions,
        )
        if got != want:
            mismatch(
                f"job[{job.job_id}] (status, completion, transmissions)",
                want,
                got,
                detail=f"release {job.release}, window {job.window}",
            )
    pairs = {
        "n_succeeded": (engine.n_succeeded, stream.jobs_succeeded),
        "slots_simulated": (engine.slots_simulated, stream.slots_simulated),
        "channel_attempts": (engine.channel_attempts, stream.channel_attempts),
        "jammed_transmissions": (engine.jammed_energy, stream.jammed_transmissions),
    }
    want, got = _run_counters(engine_tele), _run_counters(stream_tele)
    pairs.update((k, (want.get(k), got.get(k))) for k in set(want) | set(got))
    for quantity, (expected, actual) in sorted(pairs.items()):
        if expected != actual:
            mismatch(quantity, expected, actual)
    return out


def _run_counters(tele: Telemetry) -> Dict[str, int]:
    """The telemetry counters both engines must agree on."""
    return {
        f"telemetry {name}": value
        for name, value in tele.metrics.snapshot().items()
        if name.startswith(("jobs.", "channel."))
        or name in ("engine.slots", "engine.transmissions")
    }


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------


def shrink_failing_instance(
    instance: Instance,
    seed: int,
    fails: Callable[[Instance, int], bool],
) -> Instance:
    """Greedily minimize a failing instance by deleting jobs.

    Repeatedly removes any single job whose removal keeps ``fails``
    true, until no single removal reproduces the failure (1-minimality).
    Job ids are preserved, so per-job RNG streams — and therefore the
    discrepancy being minimized — stay meaningful throughout.
    """
    jobs = list(instance.by_release)
    changed = True
    while changed and len(jobs) > 1:
        changed = False
        for i in range(len(jobs)):
            candidate = Instance(jobs[:i] + jobs[i + 1 :])
            if fails(candidate, seed):
                jobs = list(candidate.by_release)
                changed = True
                break
    return Instance(jobs)
