"""The deadline-miss × energy frontier — the paper's headline comparison.

ROADMAP item 3's question: does deadline-aware machinery (UNIFORM /
ALIGNED / PUNCTUAL) actually beat modern backoff when messages expire?
The modern backoff literature (arXiv 2302.07751, 2408.11275) optimizes
*channel-access energy* — send attempts — while this paper optimizes
*deadline misses*; neither metric alone decides the comparison.  This
module runs every protocol under identical oblivious jamming budgets and
reports both, so each protocol lands as a point in the (miss-rate,
energy) plane per budget and the frontier is read off directly.

All protocols at one budget face the *same* jammer, built fresh per run
from the same severity, and run on the same instance and seed list —
differences are protocol differences, not workload luck.  Runs go
through :func:`repro.experiments.parallel.run_seeds`, inheriting
caching, multiprocessing, and retries.  Energy comes from the
:class:`~repro.experiments.parallel.SeedDigest` ``attempts_sum`` field,
which the engine path always tracks (the frontier forces the engine —
``fastpath`` is left off — because the statistical kernels do not model
per-attempt energy).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.tables import format_table
from repro.cache import ResultCache
from repro.channel.jamming import StochasticJammer
from repro.durable import write_atomic
from repro.errors import InvalidParameterError
from repro.experiments.parallel import (
    FactoryBuilder,
    InstanceBuilder,
    aggregate,
    run_seeds,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import Telemetry

__all__ = ["FrontierPoint", "FrontierReport", "run_frontier"]


@dataclass(frozen=True)
class FrontierPoint:
    """One protocol at one jamming budget: both headline metrics."""

    protocol: str
    budget: float  # oblivious stochastic jamming rate p_jam
    n_jobs: int  # jobs pooled across seeds
    n_missed: int  # jobs that failed to deliver by their deadline
    attempts: int  # total send attempts pooled across seeds

    @property
    def miss_rate(self) -> float:
        return self.n_missed / self.n_jobs if self.n_jobs else 0.0

    @property
    def mean_energy(self) -> float:
        """Send attempts per job."""
        return self.attempts / self.n_jobs if self.n_jobs else 0.0

    @property
    def energy_per_success(self) -> float:
        ok = self.n_jobs - self.n_missed
        return self.attempts / ok if ok else float("inf")

    def as_record(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "budget": self.budget,
            "n_jobs": self.n_jobs,
            "n_missed": self.n_missed,
            "attempts": self.attempts,
            "miss_rate": self.miss_rate,
            "mean_energy": self.mean_energy,
        }


@dataclass(frozen=True)
class FrontierReport:
    """All (protocol × budget) points plus rendering and lookups."""

    instance_summary: str
    seeds: int
    budgets: Tuple[float, ...]
    points: Tuple[FrontierPoint, ...]

    def point(self, protocol: str, budget: float) -> FrontierPoint:
        for p in self.points:
            if p.protocol == protocol and p.budget == budget:
                return p
        raise KeyError(f"no frontier point for {protocol!r} at {budget!r}")

    def protocols(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for p in self.points:
            if p.protocol not in seen:
                seen.append(p.protocol)
        return tuple(seen)

    def dominators(self, budget: float) -> Tuple[str, ...]:
        """Protocols on the Pareto frontier at one budget.

        A protocol is dominated when another has both a strictly lower
        miss rate and strictly lower mean energy.
        """
        pts = [p for p in self.points if p.budget == budget]
        out = []
        for a in pts:
            if not any(
                b.miss_rate < a.miss_rate and b.mean_energy < a.mean_energy
                for b in pts
            ):
                out.append(a.protocol)
        return tuple(out)

    def render(self) -> str:
        blocks = []
        for budget in self.budgets:
            rows = []
            pts = sorted(
                (p for p in self.points if p.budget == budget),
                key=lambda p: (p.miss_rate, p.mean_energy),
            )
            front = set(self.dominators(budget))
            for p in pts:
                rows.append(
                    [
                        p.protocol,
                        f"{p.miss_rate:.4f}",
                        f"{p.mean_energy:.2f}",
                        (
                            f"{p.energy_per_success:.2f}"
                            if p.n_missed < p.n_jobs
                            else "inf"
                        ),
                        "*" if p.protocol in front else "",
                    ]
                )
            blocks.append(
                format_table(
                    [
                        "protocol",
                        "miss rate",
                        "energy/job",
                        "energy/success",
                        "pareto",
                    ],
                    rows,
                    title=(
                        f"jam budget p={budget:g} on {self.instance_summary} "
                        f"({self.seeds} seeds)"
                    ),
                )
            )
        return "\n\n".join(blocks)

    def to_jsonl(self, path: str) -> int:
        """Write one JSON record per point; returns the record count."""
        lines = (json.dumps(p.as_record(), sort_keys=True) for p in self.points)
        write_atomic(path, (f"{line}\n".encode() for line in lines))
        return len(self.points)


def run_frontier(
    build: InstanceBuilder,
    protocols: Mapping[str, FactoryBuilder],
    *,
    budgets: Sequence[float] = (0.0, 0.25),
    seeds: int = 16,
    processes: int = 1,
    cache: Union[None, bool, str, ResultCache] = None,
    retries: int = 0,
    telemetry: Optional["Telemetry"] = None,
) -> FrontierReport:
    """Run every protocol under every jamming budget; pool across seeds.

    Parameters
    ----------
    build:
        Zero-argument instance builder (picklable for ``processes>1``).
    protocols:
        Name → factory builder, as in
        :func:`~repro.experiments.certify.run_certification`.
    budgets:
        Oblivious stochastic jamming rates (``0`` means no jammer); every
        protocol faces each budget with identical seeds, so the
        comparison is paired.
    seeds:
        Seeds per (protocol, budget) cell.
    """
    if not protocols:
        raise InvalidParameterError("need at least one protocol")
    budgets = tuple(float(b) for b in budgets)
    for b in budgets:
        if not 0.0 <= b < 1.0:
            raise InvalidParameterError(
                f"jam budget must be in [0, 1), got {b}"
            )
    instance = build()
    points: List[FrontierPoint] = []
    for budget in budgets:
        jammer = StochasticJammer(budget) if budget > 0.0 else None
        for name, factory in protocols.items():
            digests = run_seeds(
                build,
                factory,
                range(seeds),
                jammer=jammer,
                processes=processes,
                cache=cache,
                retries=retries,
                telemetry=telemetry,
            )
            agg = aggregate(digests)
            points.append(
                FrontierPoint(
                    protocol=name,
                    budget=budget,
                    n_jobs=int(agg["jobs"]),
                    n_missed=int(agg["jobs"]) - int(agg["succeeded"]),
                    attempts=int(agg["attempts"]),
                )
            )
    return FrontierReport(
        instance_summary=instance.summary(),
        seeds=seeds,
        budgets=budgets,
        points=tuple(points),
    )
