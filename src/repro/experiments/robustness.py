"""Degradation profiles: protocol success under escalating fault severity.

The paper's claims are robustness claims — ALIGNED keeps its whp
guarantee against a stochastic adversary up to ``p_jam = 1/2``
(Theorem 14), PUNCTUAL assumes no global clock at all — so the natural
experiment is a *degradation profile*: fix a workload, escalate one
fault family through a severity ladder, and chart each protocol's
success rate and latency as the channel gets nastier.  This module
packages that experiment: :func:`run_robustness` runs the full
``family x protocol x severity`` grid through
:func:`repro.experiments.parallel.run_seeds` (inheriting caching,
multi-process execution, retries, and the runtime invariant checker),
and :class:`RobustnessReport` renders one table per family with the
``p_jam = 1/2`` threshold row flagged.

The families and their severity scales are those of the adversary
catalogue, :data:`repro.adversary.FAMILIES`; :data:`FAULT_FAMILIES`
names the six a profile runs by default (``jam``, ``rate``, ``burst``,
``feedback``, ``clock``, ``jobs``), and any catalogue family, reactive
ones included, can be asked for.  Severity 0 is always the empty plan,
so every profile starts from the clean baseline measured through
exactly the same machinery.  A workload without jobs has nothing to
miss: its cells read success 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.adversary import check_family, fault_plan
from repro.analysis.stats import ProportionEstimate, estimate_proportion
from repro.analysis.tables import format_table
from repro.cache import ResultCache
from repro.experiments.parallel import (
    FactoryBuilder,
    InstanceBuilder,
    run_seeds,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import Telemetry

__all__ = [
    "FAULT_FAMILIES",
    "JAM_THRESHOLD",
    "ProfilePoint",
    "RobustnessReport",
    "run_robustness",
]

#: Theorem 14's jamming threshold: guarantees hold for p_jam <= 1/2.
JAM_THRESHOLD = 0.5

#: The catalogue families a profile runs by default.
FAULT_FAMILIES: Tuple[str, ...] = (
    "jam", "rate", "burst", "feedback", "clock", "jobs",
)


@dataclass(frozen=True)
class ProfilePoint:
    """One cell of a degradation profile."""

    family: str
    protocol: str
    severity: float
    success: ProportionEstimate
    mean_latency: float
    n_runs: int

    @property
    def at_threshold(self) -> bool:
        """True on the Theorem-14 boundary row of the ``jam`` family."""
        return self.family == "jam" and self.severity == JAM_THRESHOLD


@dataclass
class RobustnessReport:
    """A full ``family x protocol x severity`` degradation profile."""

    points: List[ProfilePoint]

    def families(self) -> List[str]:
        seen: Dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.family)
        return list(seen)

    def protocols(self) -> List[str]:
        seen: Dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.protocol)
        return list(seen)

    def point(
        self, family: str, protocol: str, severity: float
    ) -> ProfilePoint:
        for p in self.points:
            if (
                p.family == family
                and p.protocol == protocol
                and p.severity == severity
            ):
                return p
        raise KeyError((family, protocol, severity))

    def table(self, family: str) -> str:
        """One table per family: severity rows, one column per protocol.

        The ``jam`` family's ``p_jam = 1/2`` row — the exact boundary of
        Theorem 14's guarantee — is flagged, so the eye lands on where
        the paper stops promising anything.
        """
        protos = self.protocols()
        severities: Dict[float, Dict[str, ProfilePoint]] = {}
        for p in self.points:
            if p.family == family:
                severities.setdefault(p.severity, {})[p.protocol] = p
        rows = []
        for sev in sorted(severities):
            row: List[Any] = [sev]
            for name in protos:
                cell = severities[sev].get(name)
                row.append("-" if cell is None else round(cell.success.point, 4))
            note = ""
            if family == "jam" and sev == JAM_THRESHOLD:
                note = "<- p_jam = 1/2 (Thm 14 boundary)"
            elif family == "jam" and sev > JAM_THRESHOLD:
                note = "beyond paper guarantee"
            row.append(note)
            rows.append(row)
        return format_table(
            ["severity"] + protos + [""],
            rows,
            title=f"fault family: {family}",
        )

    def render(self) -> str:
        """Every family's table, separated by blank lines."""
        return "\n\n".join(self.table(f) for f in self.families())


def run_robustness(
    build: InstanceBuilder,
    protocols: Mapping[str, FactoryBuilder],
    *,
    families: Optional[Sequence[str]] = None,
    severities: Sequence[float] = (0.0, 0.1, 0.25, 0.5, 0.75),
    seeds: int = 5,
    seed_base: int = 0,
    check_invariants: bool = True,
    processes: int = 1,
    cache: Union[None, bool, str, ResultCache] = None,
    retries: int = 0,
    progress: Optional[Callable[[str, str, float], None]] = None,
    telemetry: Optional["Telemetry"] = None,
) -> RobustnessReport:
    """Chart every protocol's degradation across fault families.

    Parameters
    ----------
    build:
        Zero-argument workload builder (picklable for ``processes > 1``).
    protocols:
        ``name -> protocol builder`` (each builder maps an instance to a
        protocol factory, exactly as in :func:`run_seeds`).
    families:
        Names from :data:`repro.adversary.FAMILIES` (default:
        :data:`FAULT_FAMILIES`).
    severities:
        The severity ladder, each in ``[0, 1]``.  Include 0 for a clean
        baseline and 0.5 to land exactly on the Theorem-14 boundary of
        the ``jam`` family.
    check_invariants:
        Audit every run with the runtime invariant checker (on by
        default: a fault that corrupts engine bookkeeping should fail
        loudly here, not skew a curve silently).
    progress:
        Called as ``progress(family, protocol, severity)`` before each
        cell runs.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` collector
        passed to every cell's :func:`run_seeds` call (on the inline
        path, plans beyond a bare jammer show up as
        ``fault.plan_bound`` events, jammed runs as ``runs.jammed``).

    Remaining knobs (``processes``, ``cache``, ``retries``) pass through
    to :func:`run_seeds` per cell.
    """
    chosen = list(FAULT_FAMILIES if families is None else families)
    for f in chosen:
        check_family(f)
    seed_list = [seed_base + s for s in range(seeds)]
    points: List[ProfilePoint] = []
    for family in chosen:
        for name, protocol in protocols.items():
            for severity in severities:
                if progress is not None:
                    progress(family, name, severity)
                digests = run_seeds(
                    build,
                    protocol,
                    seeds=seed_list,
                    faults=fault_plan(family, severity),
                    check_invariants=check_invariants,
                    processes=processes,
                    cache=cache,
                    retries=retries,
                    telemetry=telemetry,
                )
                ok = sum(d.n_succeeded for d in digests)
                total = sum(d.n_jobs for d in digests)
                latency_sum = sum(d.latency_sum for d in digests)
                points.append(
                    ProfilePoint(
                        family=family,
                        protocol=name,
                        severity=float(severity),
                        success=estimate_proportion(ok, total),
                        mean_latency=(
                            latency_sum / ok if ok else float("nan")
                        ),
                        n_runs=len(digests),
                    )
                )
    return RobustnessReport(points)
