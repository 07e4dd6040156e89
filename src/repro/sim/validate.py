"""Instance validation and protocol-readiness certification.

Before running a protocol on a workload it pays to know whether the
workload is even in the protocol's regime.  :func:`certify` runs the
structural and capacity checks in one pass and returns a
:class:`Certificate` of findings — each a severity, a code, and a
human-readable message — that the CLI and notebooks can print directly.

Checks performed:

* structural — empty instance, duplicate ids (already impossible via
  ``Instance``), window span, alignment;
* feasibility — peak density vs the requested γ, with the witness
  interval;
* ALIGNED readiness — alignment, ``min_level`` consistency, the
  deterministic schedule overhead, and the planner's γ* vs the
  instance's actual density;
* PUNCTUAL readiness — minimum window vs fixed costs (sync + pullback),
  per-window-size path prediction (follow vs anarchist), and anarchist
  contention estimates per window size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.rounds import ROUND_LENGTH
from repro.experiments.capacity import max_feasible_gamma, punctual_overheads
from repro.params import AlignedParams, PunctualParams
from repro.sim.feasibility import peak_density
from repro.sim.instance import Instance

__all__ = ["Severity", "Finding", "Certificate", "certify"]


class Severity(enum.Enum):
    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True, slots=True)
class Finding:
    severity: Severity
    code: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.severity.value.upper():7}] {self.code}: {self.message}"


@dataclass
class Certificate:
    """The result of :func:`certify`: findings plus the headline verdict."""

    findings: List[Finding] = field(default_factory=list)

    def add(self, severity: Severity, code: str, message: str) -> None:
        self.findings.append(Finding(severity, code, message))

    @property
    def ok(self) -> bool:
        """True when no ERROR-level finding was raised."""
        return all(f.severity is not Severity.ERROR for f in self.findings)

    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def render(self) -> str:
        lines = [str(f) for f in self.findings]
        lines.append(f"verdict: {'OK' if self.ok else 'NOT READY'}")
        return "\n".join(lines)


def certify(
    instance: Instance,
    *,
    gamma: Optional[float] = None,
    aligned: Optional[AlignedParams] = None,
    punctual: Optional[PunctualParams] = None,
) -> Certificate:
    """Run every applicable readiness check.

    Parameters
    ----------
    gamma:
        The slack the workload is supposed to satisfy; checked against
        the measured peak density when given.
    aligned / punctual:
        Parameter sets to certify the instance against; each adds its
        protocol-specific checks.
    """
    cert = Certificate()

    # -- structural ---------------------------------------------------------
    if len(instance) == 0:
        cert.add(Severity.WARNING, "empty", "instance has no jobs")
        return cert
    cert.add(
        Severity.INFO,
        "shape",
        f"{len(instance)} jobs, horizon {instance.horizon}, windows "
        f"{instance.min_window}..{instance.max_window}, "
        f"aligned={instance.is_aligned}",
    )

    # -- feasibility ----------------------------------------------------------
    report = peak_density(instance)
    cert.add(
        Severity.INFO,
        "density",
        f"peak density {report.density:.4f} on {report.interval} "
        f"({report.nested_jobs} nested jobs)",
    )
    if gamma is not None:
        if report.density > gamma + 1e-12:
            cert.add(
                Severity.ERROR,
                "infeasible",
                f"not γ-slack feasible at γ={gamma}: density "
                f"{report.density:.4f} exceeds it",
            )
        else:
            cert.add(
                Severity.INFO,
                "feasible",
                f"γ-slack feasible at γ={gamma}",
            )

    # -- ALIGNED readiness ----------------------------------------------------
    if aligned is not None:
        if not instance.is_aligned:
            cert.add(
                Severity.ERROR,
                "aligned.unaligned",
                "ALIGNED requires power-of-2-aligned windows",
            )
        else:
            lowest = min(j.job_class for j in instance.jobs)
            highest = max(j.job_class for j in instance.jobs)
            if lowest < aligned.min_level:
                cert.add(
                    Severity.ERROR,
                    "aligned.min_level",
                    f"jobs of class {lowest} exist below the schedule's "
                    f"min_level {aligned.min_level}: they can never run",
                )
            if highest < aligned.min_level:
                return cert  # capacity math is undefined below the floor
            overhead = aligned.schedule_overhead(highest)
            sev = Severity.ERROR if overhead >= 1.0 else (
                Severity.WARNING if overhead > 0.6 else Severity.INFO
            )
            cert.add(
                sev,
                "aligned.overhead",
                f"deterministic schedule overhead {overhead:.2f} of a "
                f"class-{highest} window "
                f"(λ={aligned.lam}, min_level={aligned.min_level})",
            )
            g_star = max_feasible_gamma(highest, aligned)
            density = report.density
            if g_star == 0.0:
                cert.add(
                    Severity.ERROR,
                    "aligned.capacity",
                    "the empty schedule alone does not fit: raise "
                    "min_level or lower λ",
                )
            elif density > g_star:
                cert.add(
                    Severity.WARNING,
                    "aligned.capacity",
                    f"density {density:.4f} exceeds the planner's "
                    f"conservative γ* {g_star:.4f}: truncations possible",
                )
            else:
                cert.add(
                    Severity.INFO,
                    "aligned.capacity",
                    f"density {density:.4f} within planner γ* {g_star:.4f}",
                )

    # -- PUNCTUAL readiness ------------------------------------------------------
    if punctual is not None:
        sizes = sorted({j.window for j in instance.jobs})
        for w in sizes:
            budget = punctual_overheads(w, punctual)
            fixed = budget.sync_slots + budget.pullback_slots + 2 * ROUND_LENGTH
            if budget.window <= fixed:
                cert.add(
                    Severity.ERROR,
                    "punctual.window",
                    f"window {w} (effective {budget.window}) cannot cover "
                    f"the fixed costs (~{fixed} slots)",
                )
                continue
            path = (
                "follow" if budget.virtual_level is not None else "anarchist"
            )
            n_this = sum(1 for j in instance.jobs if j.window == w)
            contention = n_this * punctual.anarchist_probability(budget.window)
            cert.add(
                Severity.INFO,
                "punctual.path",
                f"window {w}: expected path {path}, "
                f"~{budget.anarchist_attempts:.1f} anarchist attempts, "
                f"worst-case anarchist contention {contention:.2f}",
            )
            if path == "anarchist" and contention > 2.0:
                cert.add(
                    Severity.WARNING,
                    "punctual.contention",
                    f"window {w}: {n_this} potential anarchists give "
                    f"contention {contention:.1f} > 2 — the release stage "
                    "may self-jam (see E12's saturated burst)",
                )
    return cert
