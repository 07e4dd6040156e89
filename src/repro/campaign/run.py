"""The campaign pipeline: plan → evaluate → execute → report.

:func:`evaluate` expands a :class:`~repro.campaign.spec.CampaignSpec`
into cells, diffs them against the campaign state file (what already
ran?) and the result cache (of the cells left, which seeds are already
content-addressed?), and returns a :class:`CampaignPlan` — the exact
work a run would do, without doing any of it.  Cache prediction asks
:func:`repro.fastpath.batched.seed_route` for each missing cell's keys:
``run_seeds`` routes and keys every seed through the same helper, so
``--dry-run``'s hit/miss counts are the ones the real run observes.  A
dry run refuses a state file from a different grid, as a run does.

:func:`run_campaign` runs every cell the state file does not record as
done or quarantined: missing cells go to a pluggable
:class:`~repro.campaign.executor.CellExecutor` in retry rounds under the
shared :class:`repro.retrypolicy.RetryPolicy`; a cell that fails every
attempt is *quarantined* — durably recorded, reported, and skipped on
resume — so one deterministically broken cell degrades the campaign by
one cell instead of aborting the grid.  Every state transition is one
atomic append to the state file, so a SIGKILL at any moment loses at
most the in-flight cell; resuming re-runs exactly the cells without a
durable ``cell-done`` record and nothing else (the serial executor
records cells one by one, making completions *exactly-once*; the pool
executor is at-least-once across a crash, with the result cache
absorbing any recompute).

Campaigns leave the same audit trail as everything else: one
``campaign-cell`` ledger record per executed cell and one ``campaign``
summary record per run, in the standard run ledger.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.cache import ResultCache, as_cache
# Unused here: bench/tracing.py patches these names on this module.
from repro.cache import run_key, run_key_batch  # noqa: F401
from repro.campaign.executor import (
    CellExecutor,
    CellFailure,
    CellResult,
    CellTask,
    LocalPoolExecutor,
    SerialExecutor,
)
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.state import CampaignState, StateView
from repro.experiments.parallel import SeedDigest
from repro.obs.report import jsonable
from repro.retrypolicy import RetryPolicy

__all__ = [
    "QUARANTINE_EXIT_CODE",
    "CampaignPlan",
    "CampaignReport",
    "CellPlan",
    "QuarantineEntry",
    "evaluate",
    "run_campaign",
]

#: Process exit code for a campaign that completed *with* quarantined
#: cells: distinct from success (0) and from hard errors (1/2), so CI
#: can tell "degraded but done" from "did not finish".
QUARANTINE_EXIT_CODE = 3

ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class CellPlan:
    """One cell's standing in the plan: identity plus predicted work."""

    index: int
    key: str
    label: str
    status: str  # "done" | "quarantined" | "missing"
    cache_hits: int
    cache_misses: int


@dataclass
class CampaignPlan:
    """What a run would do: every cell classified, nothing executed."""

    name: str
    spec_digest: str
    cells: List[CellPlan] = field(default_factory=list)

    def by_status(self, status: str) -> List[CellPlan]:
        """The plan rows with the given status."""
        return [c for c in self.cells if c.status == status]

    @property
    def counts(self) -> Dict[str, int]:
        """Cell counts by status plus predicted cache hits/misses."""
        return {
            "cells": len(self.cells),
            "done": len(self.by_status("done")),
            "quarantined": len(self.by_status("quarantined")),
            "missing": len(self.by_status("missing")),
            "cache_hits": sum(
                c.cache_hits for c in self.by_status("missing")
            ),
            "cache_misses": sum(
                c.cache_misses for c in self.by_status("missing")
            ),
        }


def _predict_cell_cache(
    cell: CampaignCell, cache_obj: Optional[ResultCache]
) -> Tuple[int, int]:
    """(hits, misses) the real run would observe for this cell.

    The keys come from :func:`~repro.fastpath.batched.seed_route`, the
    routing ``run_seeds`` executes by.  A cell that cannot even build
    (poison, bad knobs), or that demands a kernel none provides,
    predicts all-miss: the run fails it rather than serving it.
    """
    n = len(cell.seeds)
    if cache_obj is None:
        return 0, n
    from repro.fastpath.batched import seed_route

    try:
        plan, _, keys = seed_route(
            cell.workload(),
            cell.protocol,
            cell.seeds,
            faults=cell.adversary.faults(),
            watchdog=cell.watchdog(),
            fastpath=cell.fastpath,
        )
    except Exception:
        return 0, n
    if plan is None and cell.fastpath == "on":
        return 0, n
    hits = 0
    for s, key in zip(cell.seeds, keys):
        found = cache_obj.get(key)
        if isinstance(found, SeedDigest) and found.seed == s:
            hits += 1
    return hits, n - hits


def evaluate(
    spec: CampaignSpec, *, view: Optional[StateView] = None
) -> CampaignPlan:
    """Diff the spec's grid against state and cache; execute nothing.

    ``view`` lets a caller that already loaded (and drift-checked, see
    :meth:`~repro.campaign.state.CampaignState.load`) the state reuse
    it; by default the state file is read fresh, unchecked — a missing
    file is simply an empty campaign.  Evaluation never writes.
    """
    if view is None:
        view = CampaignState(spec.state_path).load()
    cache_path = spec.cache_path
    cache_obj = as_cache(str(cache_path)) if cache_path is not None else None
    plan = CampaignPlan(name=spec.name, spec_digest=spec.digest())
    for cell in spec.cells():
        key = cell.key()
        if key in view.done:
            status, hits, misses = "done", 0, 0
        elif key in view.quarantined:
            status, hits, misses = "quarantined", 0, 0
        else:
            status = "missing"
            hits, misses = _predict_cell_cache(cell, cache_obj)
        plan.cells.append(
            CellPlan(
                index=cell.index,
                key=key,
                label=cell.label(),
                status=status,
                cache_hits=hits,
                cache_misses=misses,
            )
        )
    return plan


@dataclass
class QuarantineEntry:
    """One quarantined cell as reported (durable record distilled)."""

    key: str
    label: str
    attempts: int
    error: str


@dataclass
class CampaignReport:
    """The outcome of one :func:`run_campaign` call (or dry run)."""

    name: str
    spec_digest: str
    dry_run: bool
    counts: Dict[str, int] = field(default_factory=dict)
    executed: List[CellResult] = field(default_factory=list)
    quarantined: List[QuarantineEntry] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def exit_code(self) -> int:
        """``0`` clean, :data:`QUARANTINE_EXIT_CODE` if any quarantine."""
        return QUARANTINE_EXIT_CODE if self.counts.get("quarantined") else 0

    def render(self) -> str:
        """Human-readable summary, one block."""
        c = self.counts
        head = "campaign plan" if self.dry_run else "campaign run"
        lines = [
            f"{head}: {self.name}  (grid {self.spec_digest[:12]})",
            (
                f"  cells: {c.get('cells', 0)}  done: {c.get('done', 0)}  "
                f"quarantined: {c.get('quarantined', 0)}  "
                f"missing: {c.get('missing', 0)}"
            ),
            (
                f"  cache: {c.get('cache_hits', 0)} hit(s), "
                f"{c.get('cache_misses', 0)} miss(es) predicted"
            ),
        ]
        if not self.dry_run:
            lines.append(
                f"  executed: {len(self.executed)} cell(s) in "
                f"{self.wall_seconds:.2f}s"
            )
        for q in self.quarantined:
            tail = q.error.strip().splitlines()[-1] if q.error else ""
            lines.append(
                f"  quarantined: {q.label} after {q.attempts} "
                f"attempt(s): {tail}"
            )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """Strict-JSON dict (non-finite floats become ``null``)."""
        return jsonable(
            {
                "name": self.name,
                "spec_digest": self.spec_digest,
                "dry_run": self.dry_run,
                "counts": dict(self.counts),
                "executed": [
                    {
                        "key": r.key,
                        "index": r.index,
                        "label": r.label,
                        "summary": r.summary,
                        "wall_seconds": r.wall_seconds,
                    }
                    for r in self.executed
                ],
                "quarantined": [
                    {
                        "key": q.key,
                        "label": q.label,
                        "attempts": q.attempts,
                        "error": q.error,
                    }
                    for q in self.quarantined
                ],
                "exit_code": self.exit_code,
            }
        )


def _make_executor(spec: CampaignSpec) -> CellExecutor:
    if spec.executor == "serial" or spec.workers == 1:
        return SerialExecutor()
    return LocalPoolExecutor(spec.workers)


def _ledger_cell_record(spec: CampaignSpec, result: CellResult) -> None:
    if spec.ledger_path is None:
        return
    from repro.obs.ledger import RunLedger, RunRecord

    RunLedger(spec.ledger_path).append(
        RunRecord(
            run_id="",
            kind="campaign-cell",
            started=time.time() - result.wall_seconds,
            wall_seconds=result.wall_seconds,
            status="ok",
            config={
                "campaign": spec.name,
                "cell": result.label,
                "index": result.index,
            },
            config_digest=result.key,
            counters=jsonable(dict(result.summary)),
        )
    )


def _ledger_campaign_record(
    spec: CampaignSpec, report: CampaignReport, started: float
) -> None:
    if spec.ledger_path is None:
        return
    from repro.obs.ledger import RunLedger, RunRecord

    RunLedger(spec.ledger_path).append(
        RunRecord(
            run_id="",
            kind="campaign",
            started=started,
            wall_seconds=report.wall_seconds,
            status="degraded" if report.quarantined else "ok",
            config={
                "name": spec.name,
                "spec_digest": report.spec_digest,
                "executor": spec.executor,
                "workers": spec.workers,
            },
            config_digest=report.spec_digest,
            counters={k: int(v) for k, v in report.counts.items()},
        )
    )


def run_campaign(
    spec: CampaignSpec,
    *,
    dry_run: bool = False,
    progress: Optional[ProgressCallback] = None,
    executor: Optional[CellExecutor] = None,
) -> CampaignReport:
    """Run (or, with ``dry_run``, only plan) a campaign to completion.

    The run is idempotent and resumable: cells with a durable
    ``cell-done`` record are skipped, quarantined cells stay
    quarantined, and the per-cell attempt budget (``1 + spec.retries``)
    survives crashes — a deterministically failing cell converges to
    quarantine across any number of interruptions.  ``dry_run`` writes
    nothing and executes nothing; it returns the plan's numbers.

    ``progress(done, total)`` is called after every cell executed in
    this process (``total`` = missing cells at entry).

    Chaos: when ``spec.kill_after_cells`` is set, the orchestrator
    SIGKILLs *itself* after that many cells have been durably recorded
    — the crash-drill hook the kill/resume tests use.  State appends
    happen before the kill check, so the drill only ever loses
    not-yet-recorded work, exactly like a real crash.
    """
    t0 = time.perf_counter()
    state = CampaignState(spec.state_path)
    spec_digest = spec.digest()
    if dry_run:
        plan = evaluate(spec, view=state.load(spec_digest))
        return CampaignReport(
            name=spec.name,
            spec_digest=spec_digest,
            dry_run=True,
            counts=plan.counts,
            wall_seconds=time.perf_counter() - t0,
        )

    view = state.ensure_header(name=spec.name, spec_digest=spec_digest)
    started_at = time.time()
    attempts: Dict[str, int] = dict(view.attempts)
    budget = 1 + spec.retries
    cache_knob = (
        str(spec.cache_path) if spec.cache_path is not None else None
    )
    exec_ = executor if executor is not None else _make_executor(spec)
    policy = RetryPolicy(retries=spec.retries, base_backoff=spec.retry_backoff)

    report = CampaignReport(
        name=spec.name, spec_digest=spec_digest, dry_run=False
    )
    # Prior quarantines stay reported on every run: a resumed campaign's
    # report must not hide cells an earlier attempt gave up on.
    for rec in view.quarantined.values():
        report.quarantined.append(
            QuarantineEntry(
                key=str(rec.get("key", "")),
                label=str(rec.get("label", "")),
                attempts=int(rec.get("attempts", 0)),
                error=str(rec.get("error", "")),
            )
        )

    pending: List[CellTask] = []
    for cell in spec.cells():
        key = cell.key()
        if view.is_terminal(key):
            continue
        if attempts.get(key, 0) >= budget:
            # Prior (crashed) runs already burned the whole budget
            # without a completion: quarantine without another attempt.
            msg = (
                f"retry budget exhausted by {attempts[key]} prior "
                f"attempt(s) with no completion (crashed runs?)"
            )
            state.record_quarantined(
                key, label=cell.label(), attempts=attempts[key], error=msg
            )
            report.quarantined.append(
                QuarantineEntry(
                    key=key,
                    label=cell.label(),
                    attempts=attempts[key],
                    error=msg,
                )
            )
        else:
            pending.append(CellTask(key=key, cell=cell, cache=cache_knob))

    total_todo = len(pending)
    done_now = 0

    def dispatched(tasks: Iterable[CellTask]) -> Iterable[CellTask]:
        # Attempts become durable exactly when a task is handed to the
        # executor (the serial executor pulls lazily, one per cell; the
        # pool executor pulls the whole round at submit time).
        for t in tasks:
            attempts[t.key] = attempts.get(t.key, 0) + 1
            state.record_attempt(t.key, attempts[t.key])
            yield t

    round_no = 0
    while pending:
        failures: Dict[str, CellFailure] = {}
        round_tasks = pending
        for outcome in exec_.map_unordered(dispatched(round_tasks)):
            if isinstance(outcome, CellResult):
                state.record_done(
                    outcome.key,
                    label=outcome.label,
                    summary=jsonable(dict(outcome.summary)),
                    wall_seconds=outcome.wall_seconds,
                )
                _ledger_cell_record(spec, outcome)
                report.executed.append(outcome)
                done_now += 1
                if progress is not None:
                    progress(done_now, total_todo)
                if (
                    spec.kill_after_cells is not None
                    and done_now >= spec.kill_after_cells
                ):
                    os.kill(os.getpid(), signal.SIGKILL)
            else:
                failures[outcome.key] = outcome
        if not failures:
            break
        retry_tasks: List[CellTask] = []
        for t in round_tasks:
            failure = failures.get(t.key)
            if failure is None:
                continue
            if attempts.get(t.key, 0) >= budget:
                state.record_quarantined(
                    t.key,
                    label=failure.label,
                    attempts=attempts[t.key],
                    error=failure.error,
                )
                report.quarantined.append(
                    QuarantineEntry(
                        key=t.key,
                        label=failure.label,
                        attempts=attempts[t.key],
                        error=failure.error,
                    )
                )
            else:
                retry_tasks.append(t)
        pending = retry_tasks
        if pending:
            round_no += 1
            policy.sleep(round_no)
    exec_.close()

    final_view = state.load()
    final_plan = evaluate(spec, view=final_view)
    report.counts = final_plan.counts
    report.wall_seconds = time.perf_counter() - t0
    _ledger_campaign_record(spec, report, started_at)
    return report
