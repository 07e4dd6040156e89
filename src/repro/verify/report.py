"""Verification results: discrepancy records, the report, the artifact.

A verification run produces a flat list of :class:`CheckResult` records
(one per executed check), each carrying zero or more
:class:`Discrepancy` records pinpointing what disagreed.  The
:class:`VerifyReport` renders them for humans and serializes them as a
telemetry JSONL artifact (via :mod:`repro.obs`) so CI can upload the
exact disagreement on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.analysis.tables import format_table
from repro.obs.telemetry import Telemetry

__all__ = ["CheckResult", "Discrepancy", "VerifyReport"]


@dataclass(frozen=True)
class Discrepancy:
    """One observed disagreement between two executions.

    ``expected`` / ``actual`` are kept as strings so the record stays
    JSON-serializable whatever the compared quantity was (an int, an
    array summary, a digest).
    """

    case: str
    seed: int
    check: str
    quantity: str
    expected: str
    actual: str
    detail: str = ""

    def as_record(self) -> Dict[str, Any]:
        """The JSONL payload of this discrepancy."""
        return {
            "case": self.case,
            "seed": self.seed,
            "check": self.check,
            "quantity": self.quantity,
            "expected": self.expected,
            "actual": self.actual,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CheckResult:
    """The outcome of one verification check on one case.

    ``shrunk`` is the minimized failing reproduction found by the
    differential shrink loop (empty when the check passed or shrinking
    does not apply): a tuple of ``(job_id, release, deadline)`` triples.
    """

    case: str
    check: str
    seeds: Tuple[int, ...]
    discrepancies: Tuple[Discrepancy, ...] = ()
    detail: str = ""
    shrunk: Tuple[Tuple[int, int, int], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.discrepancies


@dataclass
class VerifyReport:
    """All check results of one verification run."""

    results: List[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> None:
        self.results.append(result)

    @property
    def n_checks(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    @property
    def discrepancies(self) -> Tuple[Discrepancy, ...]:
        return tuple(d for r in self.results for d in r.discrepancies)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        """The human-readable verification table plus failure details."""
        rows = []
        for r in self.results:
            rows.append([
                r.case,
                r.check,
                len(r.seeds),
                "ok" if r.ok else f"FAIL ({len(r.discrepancies)})",
            ])
        out = [
            format_table(
                ["case", "check", "seeds", "status"],
                rows,
                title=f"verification: {self.n_checks} checks, "
                f"{len(self.failures)} failing",
            )
        ]
        for r in self.failures:
            out.append("")
            out.append(f"FAIL {r.case} / {r.check}:")
            for d in r.discrepancies[:10]:
                out.append(
                    f"  seed {d.seed}: {d.quantity}: expected "
                    f"{d.expected}, got {d.actual}"
                    + (f" ({d.detail})" if d.detail else "")
                )
            if len(r.discrepancies) > 10:
                out.append(
                    f"  ... {len(r.discrepancies) - 10} more discrepancies"
                )
            if r.shrunk:
                jobs = ", ".join(
                    f"Job({j}, {rel}, {dl})" for j, rel, dl in r.shrunk
                )
                out.append(f"  minimized reproduction: [{jobs}]")
        return "\n".join(out)

    def telemetry(self, label: str = "repro verify") -> Telemetry:
        """A telemetry bundle carrying every check and discrepancy."""
        tele = Telemetry(label=label, context={"command": "verify"})
        for r in self.results:
            tele.metrics.counter("verify.checks").inc()
            if not r.ok:
                tele.metrics.counter("verify.failures").inc()
            tele.events.emit(
                "verify.check",
                -1,
                -1,
                case=r.case,
                check=r.check,
                seeds=list(r.seeds),
                ok=r.ok,
            )
            for d in r.discrepancies:
                tele.metrics.counter("verify.discrepancies").inc()
                tele.events.emit("verify.discrepancy", -1, -1, **d.as_record())
            if r.shrunk:
                tele.events.emit(
                    "verify.shrunk",
                    -1,
                    -1,
                    case=r.case,
                    check=r.check,
                    jobs=[list(t) for t in r.shrunk],
                )
        return tele

    def write_artifact(self, path: Union[str, Path]) -> Path:
        """Write the JSONL discrepancy artifact; returns the path."""
        return self.telemetry().write_jsonl(path)
