"""The open-arrival streaming engine: bounded memory at any offered load.

:func:`stream_simulate` is the open-loop driver of the shared
:class:`~repro.sim.engine.SlotCore`, the same slot step
:func:`repro.sim.engine.simulate` drives over a closed instance.  Jobs
are not materialized up front — they are drawn lazily from an
:class:`~repro.stream.arrivals.ArrivalProcess` — and the driver keeps
only a sliding window of live state:

* completed/expired jobs are evicted the slot they retire; their
  outcome collapses into counters, a :class:`~repro.obs.sketches.QuantileSketch`
  (p50/p99/p999 latency) and a :class:`~repro.obs.sketches.ReservoirSampler`;
* the arrival buffer holds at most two RNG blocks;
* a hard live-set budget (:class:`StreamBudget`) sheds or queues work
  under overload, with shedding as first-class telemetry.

**Bit-identical to the closed engine.**  For any finite prefix the
streaming run must agree with the closed engine run on the instance
frozen by :func:`repro.stream.arrivals.materialize` — same delivery
slots, same miss set, same number of simulated slots (the
``streaming-equivalence`` verification corpus enforces this).  Both
drivers run the same :meth:`~repro.sim.engine.SlotCore.step`, so
channel, jammer, feedback-fault and per-job randomness are consumed
identically by construction; the driver itself only has to keep the
closed engine's admission order and gap jumps:

* activation order is a heap keyed ``(activation, release, deadline,
  job_id)`` — exactly the closed engine's ``by_release`` order (and its
  fault-shifted stable re-sort) expressed incrementally;
* per-job fault records are drawn at arrival through
  :meth:`~repro.sim.engine.SlotCore.fault_record`, from the job's own
  ``fault-job`` stream — identical decisions whether drawn up front
  (closed) or at arrival (here);
* gap jumps skip idle slots without touching the channel stream.

**Crash recovery.**  With a :class:`~repro.stream.checkpoint.CheckpointConfig`
attached, the driver snapshots its resumable state (``_RESUMABLE``: the
core with its live set, the arrival buffer, the pending heap, the
result so far) every ``every_slots`` simulated slots, *before* the slot
is processed; a run killed at any point resumes from the last
checkpoint and produces bit-identical final statistics (pickle
memoization preserves the object identity between protocols and their
RNG streams).  The caller's hooks are never checkpointed: a resumed run
attaches its own.
"""

from __future__ import annotations

import copy
import heapq
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

from repro.channel.jamming import Jammer
from repro.errors import InvalidParameterError
from repro.faults.plan import FaultPlan, _JobRecord
from repro.obs.sketches import QuantileSketch, ReservoirSampler
from repro.sim.engine import (
    ASLEEP,
    ENGINE_VERSION,
    ProtocolFactory,
    SlotCore,
    resolve_adversary,
)
from repro.sim.invariants import InvariantChecker
from repro.sim.job import Job, JobStatus
from repro.sim.rng import PREPARE_BLOCK, RngFactory
from repro.sim.watchdog import Watchdog, WatchdogTrip
from repro.stream.arrivals import ArrivalProcess
from repro.stream.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import Telemetry

__all__ = [
    "POLICIES",
    "STREAM_VERSION",
    "StreamBudget",
    "StreamResult",
    "stream_simulate",
]

#: Version of the streaming engine's observable semantics *and* its
#: checkpoint state layout.  Bump on any change that can alter a
#: :class:`StreamResult` or what a checkpoint pickles: a checkpoint
#: resumes only under the version that wrote it.
#: 2: checkpoints hold the shared :class:`~repro.sim.engine.SlotCore`.
#: 3: the layout that holds each live job's unread coin block, cached
#:    per-slot values and wake, restored as pickled.
STREAM_VERSION = 3

#: Admission-control policies for :class:`StreamBudget`.
POLICIES = ("shed-newest", "shed-loosest-deadline", "block")

#: Chunk size for unbounded next-arrival scans (max_jobs mode).
_SCAN_CHUNK = 1 << 16

#: The driver state a checkpoint holds besides its ``config`` and
#: ``identity`` keys.
_RESUMABLE = (
    "core", "bound", "t", "next_id", "releasing", "pending", "blocked", "result",
)

#: :class:`StreamResult` counters that add when shards merge.
_SUMMED = (
    "jobs_released", "jobs_admitted", "jobs_succeeded", "jobs_missed",
    "jobs_gave_up", "transmissions", "channel_attempts",
    "jammed_transmissions", "slots_simulated", "final_slot", "silence_slots",
    "success_slots", "collision_slots", "jammed_slots", "checkpoints_written",
)


@dataclass(frozen=True)
class StreamBudget:
    """A hard live-set budget with an admission-control policy.

    Attributes
    ----------
    max_live:
        Maximum number of concurrently live jobs.  Admissions beyond it
        are handled by ``policy``.
    policy:
        ``"shed-newest"`` rejects the arriving job; ``"shed-loosest-deadline"``
        evicts the undelivered live job with the loosest deadline if it
        is looser than the arrival's (otherwise the arrival is shed);
        ``"block"`` parks arrivals in a bounded FIFO and admits them as
        slots free up (jobs whose deadline passes while blocked are
        shed; late admission starts the protocol's local clock at the
        admission slot, like a late-release fault).
    queue_capacity:
        FIFO capacity for ``"block"`` (defaults to ``max_live``);
        overflow is shed as ``queue-full``.
    """

    max_live: int
    policy: str = "shed-newest"
    queue_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_live < 1:
            raise InvalidParameterError(
                f"max_live must be >= 1, got {self.max_live}"
            )
        if self.policy not in POLICIES:
            raise InvalidParameterError(
                f"unknown policy {self.policy!r}; pick one of {list(POLICIES)}"
            )
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise InvalidParameterError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )

    @property
    def capacity(self) -> int:
        """Effective FIFO capacity for the ``block`` policy."""
        return self.queue_capacity if self.queue_capacity is not None else self.max_live

    def describe(self) -> str:
        if self.policy == "block":
            return f"{self.policy}(max_live={self.max_live}, queue={self.capacity})"
        return f"{self.policy}(max_live={self.max_live})"


@dataclass
class StreamResult:
    """Aggregated outcome of one streaming run (or a merge of shards).

    Per-job records are *not* kept (that is the point of streaming);
    latency lives in a mergeable :class:`QuantileSketch` plus a
    :class:`ReservoirSampler` of raw samples, everything else in
    counters.  ``outcomes`` is populated only under
    ``record_outcomes=True`` — the debug/verification mode the
    ``streaming-equivalence`` corpus uses.
    """

    seed: int = 0
    process: str = ""
    offered_load: float = 0.0
    budget: str = "none"

    jobs_released: int = 0
    jobs_admitted: int = 0
    jobs_succeeded: int = 0
    jobs_missed: int = 0
    jobs_gave_up: int = 0
    #: Shedding breakdown by reason: ``arrival``, ``evicted``,
    #: ``queue-full``, ``expired-blocked``, ``crashed-blocked``.
    shed: Dict[str, int] = field(default_factory=dict)

    transmissions: int = 0
    #: Send attempts the channel saw (equals ``transmissions`` on a
    #: fault-free run, evicted jobs included).
    channel_attempts: int = 0
    #: Attempts that landed in jammed slots.
    jammed_transmissions: int = 0
    slots_simulated: int = 0
    final_slot: int = 0
    silence_slots: int = 0
    success_slots: int = 0
    collision_slots: int = 0
    jammed_slots: int = 0
    peak_live: int = 0

    checkpoints_written: int = 0
    resumed_at_slot: int = -1
    healed_checkpoint: bool = False

    latency_sketch: QuantileSketch = field(default_factory=QuantileSketch)
    latency_sample: ReservoirSampler = field(
        default_factory=lambda: ReservoirSampler(4096, 0)
    )
    watchdog: Optional[WatchdogTrip] = None
    outcomes: Optional[Dict[int, Tuple[JobStatus, int, int]]] = None

    # -- derived -----------------------------------------------------------

    @property
    def jobs_shed(self) -> int:
        return sum(self.shed.values())

    @property
    def jobs_resolved(self) -> int:
        """Released jobs with a final fate: succeeded, missed, gave up or shed."""
        return (
            self.jobs_succeeded + self.jobs_missed + self.jobs_gave_up
            + self.jobs_shed
        )

    @property
    def success_rate(self) -> float:
        return self.jobs_succeeded / self.jobs_released if self.jobs_released else 0.0

    @property
    def miss_rate(self) -> float:
        """Deadline misses among released jobs (sheds counted separately)."""
        return self.jobs_missed / self.jobs_released if self.jobs_released else 0.0

    @property
    def loss_rate(self) -> float:
        """All released jobs that did not deliver (miss + gave up + shed)."""
        if not self.jobs_released:
            return 0.0
        return 1.0 - self.jobs_succeeded / self.jobs_released

    @property
    def throughput(self) -> float:
        """Delivered jobs per elapsed channel slot."""
        return self.jobs_succeeded / self.final_slot if self.final_slot else 0.0

    def latency_quantile(self, q: float) -> float:
        return self.latency_sketch.quantile(q)

    def merge(self, other: "StreamResult") -> "StreamResult":
        """Combine two shards (counters add, sketches merge).

        Slot counters add, so :attr:`throughput` of a merge is delivered
        jobs per *channel*-slot summed over the shard channels.
        """
        shed: Dict[str, int] = dict(self.shed)
        for k, v in other.shed.items():
            shed[k] = shed.get(k, 0) + v
        sketch = copy.deepcopy(self.latency_sketch)
        sketch.merge(other.latency_sketch)
        sample = copy.deepcopy(self.latency_sample)
        sample.merge(other.latency_sample)
        return StreamResult(
            seed=-1,
            process=self.process or other.process,
            offered_load=self.offered_load or other.offered_load,
            budget=self.budget,
            shed=shed,
            peak_live=max(self.peak_live, other.peak_live),
            latency_sketch=sketch,
            latency_sample=sample,
            watchdog=self.watchdog or other.watchdog,
            **{k: getattr(self, k) + getattr(other, k) for k in _SUMMED},
        )

    def to_dict(self) -> dict:
        """A JSON-serializable summary (the report row format)."""
        return {
            "seed": self.seed,
            "process": self.process,
            "offered_load": self.offered_load,
            "budget": self.budget,
            "jobs_released": self.jobs_released,
            "jobs_admitted": self.jobs_admitted,
            "jobs_succeeded": self.jobs_succeeded,
            "jobs_missed": self.jobs_missed,
            "jobs_gave_up": self.jobs_gave_up,
            "jobs_shed": self.jobs_shed,
            "shed": dict(sorted(self.shed.items())),
            "transmissions": self.transmissions,
            "slots_simulated": self.slots_simulated,
            "final_slot": self.final_slot,
            "silence_slots": self.silence_slots,
            "success_slots": self.success_slots,
            "collision_slots": self.collision_slots,
            "jammed_slots": self.jammed_slots,
            "peak_live": self.peak_live,
            "checkpoints_written": self.checkpoints_written,
            "resumed_at_slot": self.resumed_at_slot,
            "success_rate": self.success_rate,
            "miss_rate": self.miss_rate,
            "loss_rate": self.loss_rate,
            "throughput": self.throughput,
            "latency_p50": self.latency_quantile(0.50),
            "latency_p99": self.latency_quantile(0.99),
            "latency_p999": self.latency_quantile(0.999),
            "watchdog": None if self.watchdog is None else self.watchdog.reason,
        }


def stream_simulate(
    process: ArrivalProcess,
    factory: ProtocolFactory,
    *,
    seed: int = 0,
    max_jobs: Optional[int] = None,
    max_slots: Optional[int] = None,
    budget: Optional[StreamBudget] = None,
    jammer: Optional[Jammer] = None,
    faults: Optional[FaultPlan] = None,
    watchdog: Optional[Watchdog] = None,
    checkpoint: Optional[CheckpointConfig] = None,
    resume: bool = False,
    record_outcomes: bool = False,
    reservoir_capacity: int = 4096,
    sketch_alpha: float = 0.01,
    progress: Optional[Callable[[int, int], None]] = None,
    invariants: Union[bool, InvariantChecker] = False,
    telemetry: Optional["Telemetry"] = None,
) -> StreamResult:
    """Run one open-arrival streaming simulation.

    Parameters
    ----------
    process:
        The arrival process; jobs are drawn lazily from the dedicated
        ``"arrivals"`` stream of the run's :class:`RngFactory`.
    factory:
        Builds each job's protocol, as in the closed engine.
    seed:
        Root seed; fixes every stream (arrivals, channel, jobs, faults).
    max_jobs / max_slots:
        Stop *releasing* after this many jobs / at this arrival-horizon
        slot (at least one must be set; both may be).  Already-released
        jobs always drain to their deadlines, so a ``max_slots`` run is
        bit-identical to the closed engine on
        ``materialize(process, rng, max_slots)``.
    budget:
        Optional :class:`StreamBudget`; without one the live set is
        unbounded (pure equivalence mode).
    jammer / faults / watchdog / invariants / telemetry:
        As in :func:`repro.sim.engine.simulate`; a fault plan's jammer
        is mutually exclusive with ``jammer=``.  Telemetry's ``jobs.*``
        counters cover the jobs the engine ran, not the shed ones.
    checkpoint:
        Optional :class:`CheckpointConfig` — snapshot the full resumable
        state every ``every_slots`` simulated slots.
    resume:
        Load ``checkpoint.path`` (healing from ``.prev`` if needed) and
        continue instead of starting fresh.  The call's configuration
        must match the checkpointed one.  An invariant checker attached
        to a resumed run starts from the live set at the resume slot.
    record_outcomes:
        Keep a per-job ``{job_id: (status, delivery_slot, transmissions)}``
        dict — unbounded memory, for equivalence verification only.
    reservoir_capacity / sketch_alpha:
        Telemetry memory/accuracy knobs (see :mod:`repro.obs.sketches`).
    progress:
        Optional ``progress(done, total)`` callback invoked on the
        engine's existing 256-slot housekeeping cadence (and once at
        the end): resolved jobs (:attr:`StreamResult.jobs_resolved`)
        against ``max_jobs`` when set, simulated slots against
        ``max_slots`` otherwise.  Purely observational — it sees
        counters, never simulation state — so attaching it cannot
        change results.

    Returns
    -------
    StreamResult
    """
    if max_jobs is None and max_slots is None:
        raise InvalidParameterError("set max_jobs and/or max_slots")
    if max_jobs is not None and max_jobs < 1:
        raise InvalidParameterError(f"max_jobs must be >= 1, got {max_jobs}")
    if max_slots is not None and max_slots < 1:
        raise InvalidParameterError(f"max_slots must be >= 1, got {max_slots}")
    if max_slots is None and process.mean_rate <= 0.0:
        raise InvalidParameterError(
            "max_jobs without max_slots requires a positive arrival rate"
        )
    if resume and checkpoint is None:
        raise InvalidParameterError("resume=True requires a checkpoint config")

    plan, jammer = resolve_adversary(faults, jammer)
    # What a checkpoint must agree on to be resumable under this call.
    cfg_key = (
        STREAM_VERSION,
        ENGINE_VERSION,
        int(seed),
        process,
        budget,
        max_jobs,
        max_slots,
        None if faults is None else faults.describe(),
        None if jammer is None else repr(jammer),
    )
    # The protocol and its knobs, when the factory names them (registry
    # factories do; see repro.registry.protocol_factories).
    identity = getattr(factory, "identity", None)

    pol = budget.policy if budget is not None else None
    max_live = budget.max_live if budget is not None else None

    if resume:
        state, healed = load_checkpoint(checkpoint.path)
        version = state["config"][0]
        if version != STREAM_VERSION:
            raise CheckpointError(
                f"checkpoint {checkpoint.path} has STREAM_VERSION {version}, "
                f"this build resumes version {STREAM_VERSION}; finish that "
                "run with the build that wrote it"
            )
        if state["config"] != cfg_key:
            raise CheckpointError(
                f"checkpoint {checkpoint.path} was written by a different "
                "run configuration; refusing to resume"
            )
        # A checkpoint written by a factory without an identity carries
        # none and resumes as before.
        written = state["identity"]
        if None not in (written, identity) and written != identity:
            raise CheckpointError(
                f"checkpoint {checkpoint.path} was written by protocol "
                f"{written}, not {identity}; refusing to resume"
            )
        core, bound, t, next_id, releasing, pending, blocked, res = (
            state[key] for key in _RESUMABLE
        )
        blocked = deque(blocked)
        res.resumed_at_slot = t
        res.healed_checkpoint = res.healed_checkpoint or healed
    else:
        rngs = RngFactory(seed)
        core = SlotCore(rngs, jammer, plan)
        bound = process.bind(rngs.stream("arrivals"))
        t = 0
        next_id = 0
        releasing = True
        pending = []  # heap of (activation, release, deadline, job_id, job, rec)
        blocked = deque()
        res = StreamResult(
            seed=seed,
            process=process.describe(),
            offered_load=process.mean_rate,
            budget=budget.describe() if budget is not None else "none",
            latency_sketch=QuantileSketch(alpha=sketch_alpha),
            latency_sample=ReservoirSampler(reservoir_capacity, seed ^ 0x5EED),
            outcomes={} if record_outcomes else None,
        )

    core.attach(
        factory,
        invariants=invariants,
        telemetry=telemetry,
        watchdog=watchdog,
        max_window=process.max_window,
        t=t,
    )
    if telemetry is not None:
        telemetry.on_run_start(
            seed=seed,
            n_jobs=-1 if max_jobs is None else max_jobs,
            horizon=-1 if max_slots is None else max_slots,
            jammer=None if core.jam_attempt is None else core.jam,
            faults=plan,
        )
    outcomes = res.outcomes

    ckpt = checkpoint
    if ckpt is not None:
        every = ckpt.every_slots
        next_mark = (core.slots // every + 1) * every

    sketch = res.latency_sketch
    sample = res.latency_sample

    def finalize(
        job: Job, status: JobStatus, comp: int, transmissions: int, jammed: int
    ) -> None:
        if status is JobStatus.SUCCEEDED:
            res.jobs_succeeded += 1
            latency = comp - job.release + 1
            sketch.offer(latency)
            sample.offer(latency)
        elif status is JobStatus.GAVE_UP:
            res.jobs_gave_up += 1
        else:
            res.jobs_missed += 1
        res.transmissions += transmissions
        res.jammed_transmissions += jammed
        if outcomes is not None:
            outcomes[job.job_id] = (status, comp, transmissions)

    def report_progress() -> None:
        if max_jobs is not None:
            progress(res.jobs_resolved, max_jobs)
        else:
            progress(core.slots, max_slots)

    def shed(reason: str) -> None:
        res.shed[reason] = res.shed.get(reason, 0) + 1

    def admit(job: Job, rec: Optional[_JobRecord], at: int) -> None:
        if at > (rec.activation if rec is not None else job.release):
            # Blocked admission: the protocol's local clock starts at
            # the admission slot (the deadline does not move) — the same
            # semantics as a late-release JobFault, including the
            # begin() guard for protocols that reject mid-window starts.
            rec = replace(
                rec or _JobRecord(at, at, 0, 0.0, -1), activation=at, begin=at
            )
        core.admit(job, at, rec)
        res.jobs_admitted += 1
        if len(live) > res.peak_live:
            res.peak_live = len(live)

    live = core.protos  # compacted in place, never rebound
    step = core.step
    trip: Optional[WatchdogTrip] = None
    while True:
        # 0. checkpoint — before anything of slot t is processed, so a
        # resumed run re-enters the loop at exactly this point.
        if ckpt is not None and core.slots >= next_mark:
            res.final_slot = t
            resumable = (
                core, bound, t, next_id, releasing, pending, list(blocked), res,
            )
            save_checkpoint(
                ckpt.path,
                {
                    "config": cfg_key,
                    "identity": identity,
                    **dict(zip(_RESUMABLE, resumable)),
                },
            )
            res.checkpoints_written += 1
            next_mark = (core.slots // every + 1) * every

        # 1a. drain the blocked FIFO into freed live slots.
        if blocked:
            while blocked and len(live) < max_live:
                job, rec = blocked.popleft()
                if rec is not None and 0 <= rec.crash_slot <= t:
                    shed("crashed-blocked")
                    continue
                if t >= job.deadline:
                    shed("expired-blocked")
                    continue
                admit(job, rec, t)

        # 1b. discover arrivals released at slot t.
        if releasing:
            if max_slots is not None and t >= max_slots:
                releasing = False
            else:
                for w in bound.arrivals_at(t):
                    if max_jobs is not None and res.jobs_released >= max_jobs:
                        releasing = False
                        break
                    if not next_id % PREPARE_BLOCK:
                        # Derive the job streams of the next block of ids.
                        block = range(next_id, next_id + PREPARE_BLOCK)
                        core.rngs.prepare("job", block)
                    job = Job(next_id, t, t + w)
                    rec = core.fault_record(job)
                    heapq.heappush(
                        pending,
                        (
                            rec.activation if rec is not None else t,
                            t,
                            job.deadline,
                            next_id,
                            job,
                            rec,
                        ),
                    )
                    next_id += 1
                    res.jobs_released += 1

        # 1c. activate pending jobs whose slot arrived, in the closed
        # engine's order: (activation, release, deadline, job_id).
        activated = False
        while pending and pending[0][0] == t:
            _, _, _, _, job, rec = heapq.heappop(pending)
            activated = True
            if max_live is None or len(live) < max_live:
                admit(job, rec, t)
            elif pol == "shed-newest":
                shed("arrival")
            elif pol == "shed-loosest-deadline":
                candidates = [
                    (d, jid, i)
                    for i, (jid, d) in enumerate(zip(core.ids, core.deadline))
                    if jid not in core.delivered
                ]
                victim = max(candidates, default=None)
                if victim is not None and victim[:2] > (job.deadline, job.job_id):
                    spent, jammed = core.evict(victim[2])
                    res.transmissions += spent
                    res.jammed_transmissions += jammed
                    shed("evicted")
                    admit(job, rec, t)
                else:
                    shed("arrival")
            else:  # block
                if len(blocked) < budget.capacity:
                    blocked.append((job, rec))
                else:
                    shed("queue-full")
        if activated:
            core.progress_mark = core.slots

        # 1d. jump over idle gaps — no slot simulated, no jam draw,
        # exactly like the closed engine's gap jump.
        if not live:
            nxt = pending[0][0] if pending else None
            if releasing:
                start = t + 1
                if max_slots is not None:
                    arr = (
                        bound.next_arrival_at(start, max_slots)
                        if start < max_slots
                        else None
                    )
                    if arr is None:
                        releasing = False
                else:
                    arr = None
                    while arr is None:
                        arr = bound.next_arrival_at(start, start + _SCAN_CHUNK)
                        if arr is None:
                            start += _SCAN_CHUNK
                if arr is not None and (nxt is None or arr < nxt):
                    nxt = arr
            if nxt is None:
                break
            t = nxt
            bound.release_before(t)
            continue

        # 2. the shared slot step: act, resolve, fan out, retire.
        trip = step(t, finalize)
        t += 1

        if not (t & 0xFF):
            bound.release_before(t)
            if progress is not None:
                report_progress()

        if trip is not None:
            if trip is not ASLEEP:
                break
            # 3. every live job sleeps: jump to the next slot that needs
            # a step (a wake, a retirement, an admission or arrival, a
            # checkpoint, the end of releases), counting the slots in
            # between as silent steps.
            trip = None
            stop = core.next_wake()
            if pending:
                stop = min(stop, pending[0][0])
            if ckpt is not None:
                stop = min(stop, t + next_mark - core.slots)
            if blocked and len(live) < max_live:
                stop = t  # the FIFO drains into the freed slots first
            if releasing:
                if max_slots is not None:
                    stop = min(stop, max_slots)
                arr = bound.next_arrival_at(t, stop)
                if arr is not None:
                    stop = arr
            before, t = t, core.skip(t, stop)
            bound.release_before(t)
            if progress is not None and (t >> 8) != (before >> 8):
                report_progress()
        elif not releasing and not pending and not blocked and not live:
            break

    unstarted = 0
    if trip is not None:
        # Graceful cancellation: live jobs finalize like a horizon cut;
        # jobs still pending/blocked count as misses with zero attempts.
        res.watchdog = trip
        core.cancel(trip, finalize)
        unstarted = len(pending) + len(blocked)
        res.jobs_missed += unstarted
        if outcomes is not None:
            for job in [e[4] for e in pending] + [job for job, _ in blocked]:
                outcomes[job.job_id] = (JobStatus.FAILED, -1, 0)

    res.slots_simulated = core.slots
    res.final_slot = t
    res.channel_attempts = core.attempts
    res.silence_slots = core.silence_slots
    res.success_slots = core.success_slots
    res.collision_slots = core.collision_slots
    res.jammed_slots = core.jammed_slots
    if telemetry is not None:
        telemetry.on_run_end(unstarted=unstarted)
    if progress is not None:
        report_progress()
    return res
