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

**Paired-draw naive references.**  The estimation kernel, the ALIGNED
class run (:func:`~repro.fastpath.aligned_full._run_occupied`, which
the full ALIGNED kernel plays for every occupied class and
:func:`~repro.fastpath.aligned_fast.simulate_class_run_fast` plays
alone) and PUNCTUAL's anarchist stage
(:func:`~repro.fastpath.punctual_full._run_anarchy`) vectorize their
models in ways the engine's draw order cannot reproduce.  For these the
differential is against a naive scalar re-implementation that consumes
*exactly the same generator draws* — same calls, same order — so any
disagreement is a logic bug in the vectorization (``bincount``
indexing, the cut inside a subphase, swap-remove bookkeeping), not
Monte-Carlo noise.

**Statistical.**  :func:`~repro.fastpath.uniform_fast.simulate_uniform_fast`
drawing its own offsets under jamming is checked in distribution: mean
success rates over many seeds/trials within an empirically derived
tolerance.  Given the engine's offsets and the run's channel stream it
is bit-exact, jammed or not, which the full-kernel checks below pin.

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
from repro.core.broadcast import BroadcastSchedule, total_active_steps
from repro.core.estimation import estimation_length, resolve_estimate
from repro.experiments.parallel import SeedDigest, run_seeds
from repro.fastpath.aligned_full import _run_occupied
from repro.fastpath.batched import plan_fastpath, simulate_fastpath
from repro.fastpath.estimation_fast import (
    estimation_success_counts,
    simulate_estimation_fast,
)
from repro.fastpath.punctual_full import _ANARCHY_CHUNK, _run_anarchy
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

    Replays, per job in ``by_release`` order, the draw
    :class:`~repro.core.uniform.UniformProtocol.on_begin` makes from the
    job's stream, in its reference form: ``choice(window,
    size=min(attempts, window), replace=False)`` on a fresh
    ``("job", job_id)`` generator.  For a single pick the protocol calls
    :func:`~repro.core.uniform.draw_offset` (``integers(window)``, the
    same value and stream state), so the exact checks cross-check that
    identity as well.
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


def _rates_agree(
    case: VerifyCase, check: str, kernel_rates: List[float], kernel: str
) -> List[Discrepancy]:
    """The engine's mean per-run success rate over the case's seeds must
    match the kernel trials' within five combined standard errors (plus
    a small absolute floor for tiny variances)."""
    instance = case.instance()
    e = np.asarray([
        simulate(instance, case.factory(), jammer=case.jammer(), seed=seed)
        .success_rate
        for seed in case.seeds
    ])
    k = np.asarray(kernel_rates)
    se = math.sqrt(
        float(e.var(ddof=1)) / e.size + float(k.var(ddof=1)) / k.size
    )
    tol = 5.0 * se + 0.02
    if abs(float(e.mean()) - float(k.mean())) <= tol:
        return []
    return [
        Discrepancy(
            case=case.name,
            seed=-1,
            check=check,
            quantity="mean success rate",
            expected=f"{float(k.mean()):.4f} ± {tol:.4f}",
            actual=f"{float(e.mean()):.4f}",
            detail=f"{e.size} engine seeds vs {k.size} {kernel} trials",
        )
    ]


def diff_uniform_statistical(
    case: VerifyCase, *, n_trials: int = 2000
) -> List[Discrepancy]:
    """Jammed UNIFORM: engine and kernel success rates must agree.

    The kernel draws its own offsets and jam coins from one generator,
    not the engine's per-job and channel streams, so the comparison is
    distributional (:func:`_rates_agree`) over the case's engine seeds
    and ``n_trials`` kernel trials.
    """
    instance = case.instance()
    p_jam = float(getattr(case.jammer(), "p_jam", 0.0))
    rng = np.random.default_rng(20200707)  # fixed: the check is a pin
    fast_rates = [
        simulate_uniform_fast(instance, rng, p_jam=p_jam).success_rate
        for _ in range(n_trials)
    ]
    return _rates_agree(case, "uniform-statistical", fast_rates, "kernel")


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


def _paired(case: str, seed: int, quantity: str, expected, actual) -> Discrepancy:
    return Discrepancy(
        case=case,
        seed=seed,
        check="paired-draws",
        quantity=quantity,
        expected=str(expected),
        actual=str(actual),
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
        ref = [resolve_estimate(list(row), _AL.tau, level) for row in counts]
        if fast.tolist() != ref:
            out.append(_paired(
                "estimation-kernel", seed,
                f"estimates(n={n_jobs}, level={level}, p_jam={p_jam})",
                ref, fast.tolist(),
            ))
    return out


def _naive_class_run(
    n_jobs: int,
    level: int,
    units: np.ndarray,
    params: AlignedParams,
    rng: np.random.Generator,
    p_jam: float,
) -> Tuple[int, int, List[int], List[int]]:
    """Scalar class run, same draws as ``_run_occupied``: estimation,
    then :func:`_naive_broadcast`.  Returns the units used, the estimate,
    and each job's winning unit and run-end unit (-1 for none)."""
    est_len = estimation_length(level, params.lam)
    win = [-1] * n_jobs
    if len(units) < est_len:
        return len(units), 0, win, win[:]
    counts = estimation_success_counts(n_jobs, level, params, rng, p_jam=p_jam)
    estimate = resolve_estimate(list(counts[0]), params.tau, level)
    steps = _naive_broadcast(
        n_jobs, level, estimate, params, rng, p_jam, units[est_len:], win
    )
    used = est_len + steps
    complete = used == total_active_steps(level, estimate, params.lam)
    end = int(units[used - 1]) if complete else -1
    return used, estimate, win, [end if w < 0 else -1 for w in win]


def _naive_broadcast(
    n_jobs: int,
    level: int,
    estimate: int,
    params: AlignedParams,
    rng: np.random.Generator,
    p_jam: float,
    units: np.ndarray,
    win: List[int],
) -> int:
    """Scalar broadcast over ``units``, same draws, per-job lists: sets
    each winner's unit in ``win`` and returns the steps played.  When the
    units end inside a subphase, every live job still draws over the
    whole subphase and only picks before the cut transmit."""
    lengths = BroadcastSchedule(level, estimate, params.lam).subphase_lengths
    alive, steps = list(range(n_jobs)), 0
    for x in [x for x in lengths for _ in range(params.lam)]:
        cut = min(x, len(units) - steps)
        if cut <= 0:
            break
        if alive:
            picks = rng.integers(0, x, size=len(alive)).tolist()
            jam = rng.random(x) < p_jam if p_jam > 0.0 else [False] * x
            for job, p in zip(alive, picks):
                if p < cut and picks.count(p) == 1 and not jam[p]:
                    win[job] = int(units[steps + p])
            alive = [job for job in alive if win[job] < 0]
        steps += cut
    return steps


#: (n_jobs, level, p_jam, units): clean, jammed, an empty class, an
#: overloaded one (its run ends with jobs undelivered), a cut inside
#: estimation (49 steps at level 7) and one inside a broadcast subphase.
#: Every second slot is taken by other classes, as under the pecking
#: order.
_CLASS_RUNS = (
    (6, 5, 0.0, 400),
    (20, 7, 0.0, 400),
    (20, 7, 0.3, 400),
    (0, 6, 0.0, 400),
    (60, 5, 0.0, 400),
    (20, 7, 0.0, 30),
    (20, 7, 0.0, 149),
)


def diff_aligned_kernel(seed: int) -> List[Discrepancy]:
    """ALIGNED class run vs :func:`_naive_class_run` on identical draws.

    Checks :func:`~repro.fastpath.aligned_full._run_occupied`, the class
    run the full kernel plays for every occupied class and
    :func:`~repro.fastpath.aligned_fast.simulate_class_run_fast` plays
    alone.
    """
    out: List[Discrepancy] = []
    for n_jobs, level, p_jam, n_units in _CLASS_RUNS:
        units = 3 + 2 * np.arange(n_units, dtype=np.int64)
        success = np.zeros(n_jobs, dtype=bool)
        win, done = np.full((2, n_jobs), -1, dtype=np.int64)
        used, estimate = _run_occupied(
            np.arange(n_jobs), level, units, _AL,
            np.random.default_rng(seed), p_jam, success, win, done,
        )
        got = (used, estimate, win.tolist(), done.tolist())
        ref = _naive_class_run(
            n_jobs, level, units, _AL, np.random.default_rng(seed), p_jam
        )
        if got != ref or success.tolist() != [w >= 0 for w in ref[2]]:
            out.append(_paired(
                "aligned-kernel", seed,
                f"(units used, estimate, win units, end units) at "
                f"n={n_jobs}, level={level}, p_jam={p_jam}, {n_units} units",
                ref, got,
            ))
    return out


def _naive_anarchy(
    n_jobs: int,
    slots: np.ndarray,
    p_tx: float,
    rng: np.random.Generator,
    p_jam: float,
) -> List[int]:
    """Scalar anarchist stage, same draws as ``_run_anarchy``: each
    job's winning slot (-1 for none)."""
    alive, win, i = list(range(n_jobs)), [-1] * n_jobs, 0
    while alive and i < len(slots):
        tx = rng.binomial(len(alive), p_tx, size=min(_ANARCHY_CHUNK, len(slots) - i))
        cand = [k for k, c in enumerate(tx) if c == 1]
        if p_jam > 0.0 and cand:
            coins = rng.random(len(cand))
            cand = [k for k, coin in zip(cand, coins) if coin >= p_jam]
        if not cand:
            i += len(tx)
            continue
        pick = int(rng.integers(len(alive)))
        win[alive[pick]] = int(slots[i + cand[0]])
        alive[pick] = alive[-1]
        alive.pop()
        i += cand[0] + 1
    return win


def diff_anarchist_kernel(seed: int) -> List[Discrepancy]:
    """PUNCTUAL's anarchist stage vs :func:`_naive_anarchy`, same draws.

    Checks :func:`~repro.fastpath.punctual_full._run_anarchy`, the stage
    the PUNCTUAL kernel plays, on one window's anarchy slots.
    """
    out: List[Discrepancy] = []
    for n_jobs, window, p_jam in ((8, 1024, 0.0), (20, 4096, 0.3), (60, 1024, 0.0)):
        slots = np.arange(9, window, ROUND_LENGTH, dtype=np.int64)
        p_tx = _PU.anarchist_probability(window)
        success = np.zeros(n_jobs, dtype=bool)
        completion, retire = np.full((2, n_jobs), -1, dtype=np.int64)
        _run_anarchy(
            np.arange(n_jobs), slots, p_tx, np.random.default_rng(seed),
            p_jam, success, completion, retire,
        )
        win = _naive_anarchy(
            n_jobs, slots, p_tx, np.random.default_rng(seed), p_jam
        )
        got = (success.tolist(), completion.tolist(), retire.tolist())
        ref = ([t >= 0 for t in win], win, win)
        if got != ref:
            out.append(_paired(
                "anarchist-kernel", seed,
                f"(success, completion, retire) at n={n_jobs}, w={window}, "
                f"p_jam={p_jam}",
                ref, got,
            ))
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
    per-run success rates over the case's engine seeds and over
    ``n_trials`` kernel trials must agree (:func:`_rates_agree`).
    """
    plan, reason = plan_fastpath(
        case.instance(), case.factory(), jammer=case.jammer()
    )
    if plan is None:
        return [_plan_discrepancy(case, "fastpath-statistical", reason)]
    # Kernel trials use a disjoint seed range: the "fastpath" stream is
    # already independent of the engine's streams, this just makes the
    # two samples visibly unpaired.
    kernel_rates = [
        simulate_fastpath(plan, 10_000 + t).success_rate
        for t in range(n_trials)
    ]
    return _rates_agree(
        case, "fastpath-statistical", kernel_rates, f"{plan.kind} kernel"
    )


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
