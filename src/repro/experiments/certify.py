"""Breaking-point certification: bisecting each protocol's failure cliff.

Theorem 14 promises per-job success whp against oblivious stochastic
jamming up to ``p_jam = 1/2`` — a claim with a *location*: somewhere
past 1/2 the success curve must fall off a cliff, and nothing in the
paper says where the cliff sits for smarter adversaries.  This module
finds cliffs empirically:

* :func:`bisect_breaking_point` is the pure bisector — given any
  monotone-ish ``severity -> success rate`` measure, it brackets the
  severity at which success crosses a target rate;
* :data:`ADVERSARY_FAMILIES` names the adversaries certified by
  default: the paper's oblivious families (``jam``, ``rate``,
  ``burst``) and the reactive attackers of :mod:`repro.adversary`
  (:data:`repro.adversary.REACTIVE`); any family of the catalogue
  :data:`repro.adversary.FAMILIES` can be certified;
* :func:`run_certification` bisects every ``protocol x family`` cell
  (through :func:`repro.experiments.parallel.run_seeds`, inheriting
  caching, multiprocessing, and run watchdogs) and returns a
  :class:`CertificationReport`: the degradation frontier with
  run-clustered bootstrap CIs (:func:`repro.analysis.stats.bootstrap_proportion`),
  a JSONL artifact, and the Theorem-14 boundary check — PUNCTUAL's
  ``jam`` threshold must land at ``p_jam ~ 1/2``.

Severity means the same thing everywhere: the adversary's sustained
channel budget, the fraction of slots it may corrupt (see
:mod:`repro.adversary.reactive`).  A *breaking point* is the severity at
which the pooled success rate crosses ``target`` (default 0.9); the
frontier orders families by it, so "which attacker hurts this protocol
most per unit of energy" is the first line of the report.  A workload
without jobs cannot fail, so it has no breaking point in range.

This is *empirical* certification — distinct from the feasibility
certification of :func:`repro.sim.validate.certify`, which checks a
workload against closed-form capacity bounds before any simulation.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.adversary import REACTIVE, check_family, fault_plan
from repro.analysis.stats import ProportionEstimate, bootstrap_proportion
from repro.analysis.tables import format_table
from repro.cache import ResultCache
from repro.errors import InvalidParameterError, PaperGuaranteeWarning
from repro.experiments.parallel import (
    FactoryBuilder,
    InstanceBuilder,
    run_seeds,
)
from repro.experiments.robustness import JAM_THRESHOLD
from repro.sim.watchdog import Watchdog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.ledger import RunLedger
    from repro.obs.telemetry import Telemetry

__all__ = [
    "ADVERSARY_FAMILIES",
    "BisectResult",
    "BreakingPoint",
    "CertificationReport",
    "bisect_breaking_point",
    "run_certification",
]

#: The catalogue families certified by default: the oblivious
#: adversaries (Theorem 14's regime and its budgeted analogues), then
#: the reactive attackers, beyond the model.
ADVERSARY_FAMILIES: Tuple[str, ...] = ("jam", "rate", "burst") + REACTIVE


# -- the pure bisector -------------------------------------------------------


@dataclass(frozen=True)
class BisectResult:
    """Outcome of one bisection (see :func:`bisect_breaking_point`).

    ``threshold`` is the located breaking severity — the midpoint of the
    final bracket ``[bracket_lo, bracket_hi]``, where the measure was
    still at/above target at ``bracket_lo`` and below it at
    ``bracket_hi``.  ``None`` when the measure never fell below target
    on ``[lo, hi]`` (no breaking point in range).  ``evaluations``
    records every probe as ``(severity, value)`` in probe order.
    """

    threshold: Optional[float]
    bracket_lo: float
    bracket_hi: float
    evaluations: Tuple[Tuple[float, float], ...]

    @property
    def broke_below_lo(self) -> bool:
        """True when the measure was already below target at ``lo``."""
        return (
            self.threshold is not None
            and self.bracket_hi == self.evaluations[0][0]
        )


def bisect_breaking_point(
    measure: Callable[[float], float],
    *,
    lo: float = 0.0,
    hi: float = 1.0,
    target: float = 0.9,
    tol: float = 0.02,
    max_iter: int = 32,
) -> BisectResult:
    """Locate where a degradation curve crosses ``target``.

    ``measure(severity)`` is any callable returning a success rate;
    it is assumed (not required — see below) to be non-increasing in
    severity.  The bisector probes ``lo`` and ``hi`` first:

    * already below target at ``lo`` → the breaking point precedes the
      range; returns ``threshold = lo`` with the degenerate bracket
      ``[lo, lo]``-to-``lo`` marked via :attr:`BisectResult.broke_below_lo`;
    * still at/above target at ``hi`` → no breaking point in range;
      returns ``threshold = None`` with bracket ``[hi, hi]``;
    * otherwise classic bisection until the bracket is narrower than
      ``tol`` (or ``max_iter`` probes), returning the bracket midpoint.

    On a monotone ladder the returned threshold is always inside a
    bracket whose ends straddle the target crossing — the property the
    hypothesis suite pins.  On a noisy (non-monotone) measure the
    result is still a valid *local* crossing of the target, which is
    what an empirical cliff is.
    """
    if not lo < hi:
        raise InvalidParameterError(f"need lo < hi, got [{lo}, {hi}]")
    if tol <= 0:
        raise InvalidParameterError(f"tol must be positive, got {tol}")
    evals: List[Tuple[float, float]] = []

    def probe(x: float) -> float:
        v = float(measure(x))
        evals.append((x, v))
        return v

    if probe(lo) < target:
        return BisectResult(lo, lo, lo, tuple(evals))
    if probe(hi) >= target:
        return BisectResult(None, hi, hi, tuple(evals))
    a, b = lo, hi
    for _ in range(max_iter):
        if b - a <= tol:
            break
        mid = (a + b) / 2.0
        if probe(mid) >= target:
            a = mid
        else:
            b = mid
    return BisectResult((a + b) / 2.0, a, b, tuple(evals))


# -- certification over real runs --------------------------------------------


@dataclass(frozen=True)
class BreakingPoint:
    """One certified ``protocol x adversary family`` cell."""

    protocol: str
    family: str
    target: float
    threshold: Optional[float]
    bracket_lo: float
    bracket_hi: float
    #: severity -> pooled success estimate with run-clustered bootstrap CI.
    estimates: Mapping[float, ProportionEstimate] = field(default_factory=dict)

    @property
    def reactive(self) -> bool:
        return self.family in REACTIVE

    def as_record(self) -> Dict[str, object]:
        """A JSON-serializable artifact line."""
        return {
            "type": "breaking_point",
            "protocol": self.protocol,
            "family": self.family,
            "reactive": self.reactive,
            "target": self.target,
            "threshold": self.threshold,
            "bracket": [self.bracket_lo, self.bracket_hi],
            "probes": [
                {
                    "severity": sev,
                    "success": est.point,
                    "ci": [est.low, est.high],
                    "trials": est.trials,
                }
                for sev, est in sorted(self.estimates.items())
            ],
        }


@dataclass
class CertificationReport:
    """The degradation frontier of every certified cell."""

    points: List[BreakingPoint]
    target: float

    def cell(self, protocol: str, family: str) -> BreakingPoint:
        for p in self.points:
            if p.protocol == protocol and p.family == family:
                return p
        raise KeyError((protocol, family))

    def protocols(self) -> List[str]:
        seen: Dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.protocol)
        return list(seen)

    # -- the headline checks -------------------------------------------------

    def theorem14_deviation(self, protocol: str) -> Optional[float]:
        """``jam`` threshold minus 1/2 — the Theorem 14 boundary error.

        ``None`` when the ``jam`` family was not certified for the
        protocol or no breaking point was found in range.
        """
        try:
            cell = self.cell(protocol, "jam")
        except KeyError:
            return None
        if cell.threshold is None:
            return None
        return cell.threshold - JAM_THRESHOLD

    def sharpest_reactive(
        self, protocol: str
    ) -> Optional[BreakingPoint]:
        """The reactive family with the lowest breaking point, if any."""
        best: Optional[BreakingPoint] = None
        for p in self.points:
            if p.protocol != protocol or not p.reactive:
                continue
            if p.threshold is None:
                continue
            if best is None or p.threshold < (best.threshold or 2.0):
                best = p
        return best

    def reactive_strictly_lower(self, protocol: str) -> Optional[bool]:
        """Does some reactive attacker break earlier than oblivious jam?

        ``None`` when either side is missing; otherwise whether the
        sharpest reactive threshold is strictly below the ``jam`` one.
        """
        try:
            jam = self.cell(protocol, "jam")
        except KeyError:
            return None
        best = self.sharpest_reactive(protocol)
        if best is None or jam.threshold is None:
            return None
        assert best.threshold is not None
        return best.threshold < jam.threshold

    # -- rendering -----------------------------------------------------------

    def frontier_table(self, protocol: str) -> str:
        """Families ordered by breaking point, sharpest attacker first."""
        cells = [p for p in self.points if p.protocol == protocol]
        cells.sort(
            key=lambda p: (
                p.threshold if p.threshold is not None else float("inf")
            )
        )
        rows = []
        for p in cells:
            thr = "none in [0,1]" if p.threshold is None else f"{p.threshold:.3f}"
            bracket = f"[{p.bracket_lo:.3f}, {p.bracket_hi:.3f}]"
            note = ""
            if p.family == "jam":
                dev = self.theorem14_deviation(protocol)
                if dev is not None:
                    note = f"Thm 14 boundary: p_jam=1/2 {dev:+.3f}"
            elif p.reactive:
                note = "reactive"
            rows.append(
                [p.family, thr, bracket, len(p.estimates), note]
            )
        return format_table(
            ["family", "breaking point", "bracket", "probes", ""],
            rows,
            title=(
                f"degradation frontier: {protocol} "
                f"(success target {self.target:g})"
            ),
        )

    def render(self) -> str:
        parts = [self.frontier_table(name) for name in self.protocols()]
        for name in self.protocols():
            lower = self.reactive_strictly_lower(name)
            if lower is not None:
                best = self.sharpest_reactive(name)
                jam = self.cell(name, "jam")
                if lower and best is not None:
                    parts.append(
                        f"{name}: reactive '{best.family}' breaks at "
                        f"{best.threshold:.3f} < oblivious jam at "
                        f"{jam.threshold:.3f} — smarter placement beats "
                        "raw budget"
                    )
        return "\n\n".join(parts)

    def as_records(self) -> List[Dict[str, object]]:
        return [p.as_record() for p in self.points]

    def to_jsonl(self, path) -> int:
        """Write one JSON line per cell; returns the line count."""
        records = self.as_records()
        with open(path, "w", encoding="utf-8") as f:
            for rec in records:
                f.write(json.dumps(rec) + "\n")
        return len(records)


def run_certification(
    build: InstanceBuilder,
    protocols: Mapping[str, FactoryBuilder],
    *,
    families: Optional[Sequence[str]] = None,
    seeds: int = 30,
    seed_base: int = 0,
    target: float = 0.9,
    tol: float = 0.02,
    check_invariants: bool = False,
    watchdog: Optional[Watchdog] = Watchdog(stall_factor=4.0),
    processes: int = 1,
    cache: Union[None, bool, str, ResultCache] = None,
    retries: int = 0,
    progress: Optional[Callable[[str, str, float], None]] = None,
    telemetry: Optional["Telemetry"] = None,
    fastpath: str = "off",
    ledger: Union[None, bool, str, "RunLedger"] = None,
) -> CertificationReport:
    """Bisect the breaking point of every ``protocol x family`` cell.

    Parameters
    ----------
    build, protocols:
        Workload builder and named protocol builders, exactly as in
        :func:`repro.experiments.robustness.run_robustness`.
    families:
        Names from :data:`repro.adversary.FAMILIES` (default:
        :data:`ADVERSARY_FAMILIES`).
    seeds, seed_base:
        Monte-Carlo replication per probed severity.
    target, tol:
        Success rate defining "broken", and the bisection bracket width.
    watchdog:
        Applied to every run (default: a stall detector at 4x the
        feasibility bound) so a pathological adversarial cell cancels
        gracefully instead of hanging the sweep; pass ``None`` to
        disable.  Deterministic trips are cache-safe (see
        :func:`repro.experiments.parallel.run_seeds`).
    progress:
        Called as ``progress(protocol, family, severity)`` before each
        probe.
    fastpath:
        Kernel routing knob passed to every probe's :func:`run_seeds`
        call.  With ``"auto"``, probes in the ``jam`` family (a
        :class:`~repro.channel.jamming.StochasticJammer`) run on the
        vectorized kernels when the instance qualifies; the reactive
        families always fall back to the engine (kernels do not model
        feedback-driven adversaries).

    Remaining knobs pass through to :func:`run_seeds` per probe.  Each
    probed severity is one ``run_seeds`` call, so with a warm cache a
    re-certification performs zero simulations.

    ``ledger`` (see :func:`repro.obs.ledger.as_ledger`) appends one
    record for the whole certification — cell and probe counts, the
    configuration digest, wall time; the inner ``run_seeds`` probes do
    not record their own entries.
    """
    if ledger is not None:
        from repro.obs.ledger import as_ledger

        led = as_ledger(ledger)
        if led is not None:
            config = {
                "kind": "certify",
                "protocols": sorted(protocols),
                "families": sorted(
                    ADVERSARY_FAMILIES if families is None else families
                ),
                "seeds": seeds,
                "seed_base": seed_base,
                "target": target,
                "tol": tol,
                "fastpath": fastpath,
            }
            with led.track("certify", config=config) as trk:
                trk.digest(
                    (
                        "certify",
                        build,
                        tuple(sorted(protocols)),
                        tuple(config["families"]),
                        seeds,
                        seed_base,
                        target,
                        tol,
                        fastpath,
                    )
                )
                report = run_certification(
                    build,
                    protocols,
                    families=families,
                    seeds=seeds,
                    seed_base=seed_base,
                    target=target,
                    tol=tol,
                    check_invariants=check_invariants,
                    watchdog=watchdog,
                    processes=processes,
                    cache=cache,
                    retries=retries,
                    progress=progress,
                    telemetry=telemetry,
                    fastpath=fastpath,
                    ledger=None,
                )
                trk.counters = {
                    "cells": len(report.points),
                    "probes": sum(
                        len(p.estimates) for p in report.points
                    ),
                    "broken_cells": sum(
                        1
                        for p in report.points
                        if p.threshold == p.threshold  # non-NaN
                    ),
                }
            return report

    chosen = list(ADVERSARY_FAMILIES if families is None else families)
    for f in chosen:
        check_family(f)
    seed_list = [seed_base + s for s in range(seeds)]
    # Bootstrap resampling is analysis-side randomness: seeded from
    # seed_base so reports reproduce, offset so it never collides with
    # simulation streams.
    boot_rng = np.random.default_rng(seed_base + 0xCE47)
    points: List[BreakingPoint] = []
    for name, protocol in protocols.items():
        for family in chosen:
            estimates: Dict[float, ProportionEstimate] = {}

            def measure(severity: float) -> float:
                if progress is not None:
                    progress(name, family, severity)
                # Probing past p_jam = 1/2 is the harness's whole point;
                # the per-probe guarantee warning is noise.
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", PaperGuaranteeWarning)
                    plan = fault_plan(family, severity)
                digests = run_seeds(
                    build,
                    protocol,
                    seeds=seed_list,
                    faults=plan,
                    check_invariants=check_invariants,
                    watchdog=watchdog,
                    processes=processes,
                    cache=cache,
                    retries=retries,
                    telemetry=telemetry,
                    fastpath=fastpath,
                )
                est = bootstrap_proportion(
                    [(d.n_succeeded, d.n_jobs) for d in digests], boot_rng
                )
                estimates[float(severity)] = est
                return est.point

            res = bisect_breaking_point(
                measure, target=target, tol=tol
            )
            points.append(
                BreakingPoint(
                    protocol=name,
                    family=family,
                    target=target,
                    threshold=res.threshold,
                    bracket_lo=res.bracket_lo,
                    bracket_hi=res.bracket_hi,
                    estimates=dict(estimates),
                )
            )
    return CertificationReport(points, target)
