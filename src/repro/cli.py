"""Command-line interface: run workloads and protocols from the shell.

Usage (also ``python -m repro ...``)::

    repro simulate --workload batch --n 12 --window 4096 --protocol punctual
    repro compare  --workload sensors --seeds 3
    repro feasibility --workload harmonic --n 256 --gamma 0.5
    repro schedule --small-level 9
    repro simulate --protocol punctual --telemetry out.jsonl
    repro obs out.jsonl

Subcommands
-----------
``simulate``
    One workload, one protocol, one seed; prints the result summary.
``compare``
    One workload, every protocol; prints a miss-rate table.
``feasibility``
    Builds a workload and reports its peak density / slack certificate.
``schedule``
    Regenerates a Figure-1-style pecking-order schedule as ASCII art.
``certify``
    Bisects each protocol's empirical breaking point per adversary
    family (oblivious and reactive), prints the degradation frontier,
    and checks the Theorem-14 boundary (PUNCTUAL's stochastic-jamming
    threshold must sit at ``p_jam ~ 1/2``).
``verify``
    Runs the differential / metamorphic / determinism battery of
    :mod:`repro.verify` (``--smoke`` for the CI profile) and writes a
    JSONL discrepancy artifact on request.
``obs``
    Summarizes telemetry JSONL artifacts written by ``--telemetry``
    (available on ``simulate`` / ``sweep`` / ``compare`` /
    ``robustness`` / ``certify``): top metrics, per-phase timing,
    lifecycle event counts, leader churn, contention percentiles.
``runs``
    Inspects the run ledger written by ``--ledger`` (available on
    ``simulate`` / ``sweep`` / ``compare`` / ``certify`` / ``stream`` /
    ``verify``): ``list`` one line per run, ``show`` a full record,
    ``compare`` two runs' configs / versions / counters.
``campaign``
    Drives a declarative experiment campaign (YAML/JSON grid of
    workloads × protocols × adversaries × seeds) through the
    ``plan → evaluate → execute → report`` pipeline: ``run`` executes
    the missing cells (resumable after any crash, quarantining cells
    that fail every retry; exit code 3 flags a degraded-but-complete
    campaign), ``resume`` continues an interrupted one, ``status``
    summarizes the durable state, ``manifest`` lists every cell, and
    ``--dry-run`` predicts cache hits/misses without executing.
``top``
    Tails heartbeat files written by ``--heartbeat``: progress, rate,
    ETA, staleness for in-flight runs.
``perf``
    Runs the perf smoke suite, appends a timestamped entry to the
    ``BENCH_engine.json`` trajectory, and flags statistically confirmed
    throughput regressions against the same-host trend.

``repro --version`` prints the package version.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional

import numpy as np

from repro import registry
from repro.adversary import FAMILIES, check_family, fault_plan
from repro.analysis.tables import format_table
from repro.channel.jamming import NoJammer, StochasticJammer
from repro.errors import InvalidParameterError
from repro.params import AlignedParams
from repro.sim.engine import simulate
from repro.sim.feasibility import peak_density
from repro.sim.instance import Instance

__all__ = ["main", "build_parser"]


def _build_workload(args: argparse.Namespace) -> Instance:
    # Name → builder dispatch lives in repro.registry so the campaign
    # layer and the CLI resolve identical workloads from one name.
    try:
        return registry.build_workload(vars(args))
    except InvalidParameterError as exc:
        raise SystemExit(str(exc))


def _aligned_params(args: argparse.Namespace) -> AlignedParams:
    return registry.aligned_params(vars(args))


def _protocol_factories(args, instance: Instance) -> Dict[str, Callable]:
    return registry.protocol_factories(vars(args), instance)


def _jammer(args):
    return StochasticJammer(args.jam) if args.jam > 0 else NoJammer()


def _fault_plan(args):
    """Parse ``--fault FAMILY:SEVERITY`` into a FaultPlan (or None)."""
    spec = getattr(args, "fault", "")
    if not spec:
        return None
    family, sep, severity = spec.partition(":")
    if not sep:
        raise SystemExit(
            f"--fault expects FAMILY:SEVERITY (e.g. jam:0.5), got {spec!r}"
        )
    try:
        sev = float(severity)
    except ValueError:
        raise SystemExit(f"--fault severity must be a number, got {severity!r}")
    try:
        plan = fault_plan(family.strip(), sev)
    except InvalidParameterError as exc:
        raise SystemExit(str(exc))
    return None if plan.is_noop else plan


#: ``--fault`` and ``--families`` help, from the adversary catalogue.
_FAULT_HELP = (
    "inject an adversary family at a severity in [0, 1], e.g. jam:0.5 "
    f"(families: {', '.join(FAMILIES)})"
)
_FAMILIES_HELP = f"comma-separated adversary families ({', '.join(FAMILIES)})"


def _families(args) -> list[str]:
    """The ``--families`` names, each checked against the catalogue."""
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    try:
        for fam in families:
            check_family(fam)
    except InvalidParameterError as exc:
        raise SystemExit(str(exc))
    return families


def _cache_knob(args):
    """Map the ``--cache`` flag onto the library's cache knob."""
    value = getattr(args, "cache", "")
    if not value:
        return None
    if value == "default":
        return True
    return value


@dataclass
class _Observed:
    """The sinks one command's flags opened; ``None`` where a flag is off."""

    telemetry: Any = None  # Telemetry collector (--telemetry)
    tracker: Any = None  # heartbeat ProgressTracker (--heartbeat)
    server: Any = None  # MetricsServer (--metrics-port)
    ledger: Any = None  # RunLedger (--ledger)
    record: Any = None  # the command's own ledger record (``record=``)


@contextlib.contextmanager
def _observed(
    args: argparse.Namespace,
    command: str,
    *,
    total: Optional[int] = None,
    record: Optional[Dict[str, Any]] = None,
) -> Iterator[_Observed]:
    """Open the sinks a command's observability flags ask for.

    Yields an :class:`_Observed`.  A clean exit writes the telemetry
    artifact and says where; every exit marks the heartbeat ``done`` or
    ``failed`` and stops the ``/metrics`` server.  With a ``record``
    config and ``--ledger``, the body runs inside
    :meth:`~repro.obs.ledger.RunLedger.track`, and ``obs.record`` is the
    command's :class:`~repro.obs.ledger.RunRecord` (which then also
    lists the telemetry artifact).
    """
    obs = _Observed()
    if getattr(args, "telemetry", ""):
        from repro.obs import Telemetry

        context: Dict[str, Any] = {"command": command}
        for key in ("workload", "protocol", "protocols", "seed", "seeds", "jam"):
            value = getattr(args, key, None)
            if value not in (None, ""):
                context[key] = value
        obs.telemetry = Telemetry(label=f"repro {command}", context=context)
    if getattr(args, "heartbeat", ""):
        from repro.obs.progress import Heartbeat, ProgressTracker

        obs.tracker = ProgressTracker(
            total,
            label=f"repro {command}",
            heartbeat=Heartbeat(
                args.heartbeat, every_seconds=args.heartbeat_every
            ),
        )
    ledger = getattr(args, "ledger", "")
    if ledger:
        from repro.obs.ledger import RunLedger

        obs.ledger = RunLedger() if ledger == "default" else RunLedger(ledger)
    with contextlib.ExitStack() as stack:
        if obs.tracker is not None:
            stack.push(
                lambda exc_type, *_: obs.tracker.finish(
                    "done" if exc_type is None else "failed"
                )
            )
        if record is not None and obs.ledger is not None:
            obs.record = stack.enter_context(
                obs.ledger.track(command, config=record)
            )
        if getattr(args, "metrics_port", 0) > 0:
            from repro.obs import MetricsRegistry, MetricsServer

            tele, tracker = obs.telemetry, obs.tracker
            obs.server = stack.enter_context(
                MetricsServer(
                    tele.metrics if tele is not None else MetricsRegistry(),
                    args.metrics_port,
                    extra=tracker.gauges if tracker is not None else None,
                )
            )
            print(
                "serving Prometheus metrics on "
                f"http://127.0.0.1:{obs.server.port}/metrics"
            )
        yield obs
        if obs.telemetry is not None:
            path = obs.telemetry.write_jsonl(args.telemetry)
            print(f"wrote telemetry to {path} (summarize with: repro obs {path})")
            if obs.record is not None:
                obs.record.artifact(args.telemetry)


def _checked_factories(
    args: argparse.Namespace, instance: Instance, names: list[str]
) -> Dict[str, Callable]:
    """The protocol factories for ``instance``; exits when a name is missing."""
    factories = _protocol_factories(args, instance)
    for name in names:
        if name not in factories:
            raise SystemExit(
                f"protocol {name!r} unavailable for this workload "
                f"(choices: {sorted(factories)})"
            )
    return factories


# -- picklable sweep/compare plumbing ---------------------------------------
#
# Multi-process runs ship the builders to worker processes, so they must
# be module-level callables bound with functools.partial (closures over
# ``args`` would not pickle).  The argparse namespace travels as a plain
# dict of its (picklable) values.


def _args_state(args: argparse.Namespace) -> Dict[str, Any]:
    # "telemetry" is observational and must not perturb cache keys
    # (the state dict is digested into run_key via the build/protocol
    # partials), so it never enters the state.  "fastpath" routes
    # execution without changing engine-path results, and the kernel
    # path namespaces its own keys — folding it here would needlessly
    # split the engine cache address space.  The ledger / heartbeat /
    # metrics knobs are observational for the same reason: attaching
    # them must keep every cache and checkpoint key byte-identical.
    return {
        k: v
        for k, v in vars(args).items()
        if k
        not in (
            "func",
            "telemetry",
            "fastpath",
            "ledger",
            "heartbeat",
            "heartbeat_every",
            "metrics_port",
            "json",
        )
    }


def _build_workload_from_state(state: Dict[str, Any], **params: Any) -> Instance:
    ns = argparse.Namespace(**state)
    for key, value in params.items():
        setattr(ns, key.replace("-", "_"), value)
    return _build_workload(ns)


def _protocol_from_state(state: Dict[str, Any], name: str, instance: Instance):
    return _protocol_factories(argparse.Namespace(**state), instance)[name]


def _protocol_grid(args: argparse.Namespace):
    """``--protocols`` as picklable builders: ``(build, {name: protocol})``.

    Exits when a named protocol is unavailable for the workload.
    """
    names = [n.strip() for n in args.protocols.split(",") if n.strip()]
    _checked_factories(args, _build_workload(args), names)
    state = _args_state(args)
    return functools.partial(_build_workload_from_state, state), {
        name: functools.partial(_protocol_from_state, state, name)
        for name in names
    }


class _StreamProtocol:
    """A picklable per-job protocol factory for sharded streaming runs.

    Resolves the named factory lazily in each worker process from the
    argparse state dict (closures over ``args`` would not pickle); the
    resolved factory is cached per process, not shipped.
    """

    def __init__(self, state: Dict[str, Any], name: str) -> None:
        self.state = state
        self.name = name
        self._factory: Optional[Callable] = None

    def __getstate__(self):
        return (self.state, self.name)

    def __setstate__(self, state) -> None:
        self.state, self.name = state
        self._factory = None

    def __call__(self, job, rng):
        if self._factory is None:
            self._factory = _protocol_factories(
                argparse.Namespace(**self.state), Instance(())
            )[self.name]
        return self._factory(job, rng)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = {
        "kind": "simulate",
        "workload": args.workload,
        "protocol": args.protocol,
        "n": args.n,
        "window": args.window,
        "seed": args.seed,
        "jam": args.jam,
        "fault": args.fault or None,
        "fastpath": getattr(args, "fastpath", "off"),
    }
    with _observed(args, "simulate", record=config) as obs:
        tele, trk = obs.telemetry, obs.record
        no_span = contextlib.nullcontext()
        with tele.span("build") if tele is not None else no_span:
            instance = _build_workload(args)
        if trk is not None:
            trk.digest(
                (
                    instance,
                    args.protocol,
                    args.seed,
                    args.jam,
                    args.fault,
                    getattr(args, "fastpath", "off"),
                )
            )
        factories = _checked_factories(args, instance, [args.protocol])
        faults = _fault_plan(args)
        jammer = _jammer(args)
        if faults is not None and faults.jammer is not None:
            if args.jam > 0:
                raise SystemExit(
                    "--jam conflicts with a --fault family that carries its "
                    "own adversary; pick one"
                )
            jammer = None
        plan = None
        if getattr(args, "fastpath", "off") != "off":
            # Tracing, CSV export, and single-run telemetry all want the
            # engine's per-slot / per-job records; the kernels only
            # produce digests.
            if args.trace or args.export or args.export_trace or tele is not None:
                reason = (
                    "--trace/--export/--telemetry need the engine's full "
                    "records"
                )
            else:
                from repro.fastpath.batched import plan_fastpath

                plan, reason = plan_fastpath(
                    instance,
                    factories[args.protocol],
                    jammer=jammer,
                    faults=faults,
                    check_invariants=args.check_invariants,
                )
            if plan is None and args.fastpath == "on":
                raise SystemExit(f"--fastpath on: {reason}")
        if plan is not None:
            from repro.fastpath.batched import KERNEL_VERSION, simulate_fastpath

            digest = simulate_fastpath(plan, args.seed)
            if trk is not None:
                trk.kernel_version = KERNEL_VERSION
                trk.counters.update(
                    jobs=digest.n_jobs,
                    succeeded=digest.n_succeeded,
                    success_rate=digest.success_rate,
                    slots=digest.slots_simulated,
                )
            print(instance.summary())
            print(f"slots simulated: {digest.slots_simulated}")
            print(
                f"success: {digest.n_succeeded}/{digest.n_jobs} "
                f"({digest.success_rate:.3f})"
            )
            for w, s, t in digest.by_window:
                print(f"  window {w:>6}: {s}/{t}")
            print(f"fastpath: {plan.kind} kernel")
            rate = digest.success_rate
        else:
            result = simulate(
                instance,
                factories[args.protocol],
                jammer=jammer,
                seed=args.seed,
                trace=args.trace or bool(args.export_trace),
                faults=faults,
                invariants=args.check_invariants,
                telemetry=tele,
            )
            if trk is not None:
                trk.counters.update(
                    jobs=len(result.outcomes),
                    succeeded=result.n_succeeded,
                    success_rate=result.success_rate,
                    slots=result.slots_simulated,
                )
                if result.watchdog is not None:
                    trk.watchdog_trips = 1
            if faults is not None:
                print(f"faults: {faults.describe()}")
            print(result.summary())
            if args.trace and result.trace is not None:
                print(f"utilization: {result.trace.utilization():.3f}")
                print(f"collisions:  {result.trace.collision_rate():.3f}")
            if args.export:
                from repro.analysis.export import result_to_records, write_csv

                write_csv(result_to_records(result), args.export)
                print(f"wrote per-job outcomes to {args.export}")
            if args.export_trace and result.trace is not None:
                from repro.analysis.export import trace_to_records, write_csv

                write_csv(trace_to_records(result.trace), args.export_trace)
                print(f"wrote per-slot trace to {args.export_trace}")
            rate = result.success_rate
        rc = 0 if rate >= args.require_success else 1
        if trk is not None:
            trk.counters["exit_code"] = rc
    return rc


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep one workload parameter and print the success curve."""
    from repro.experiments import Sweep

    values = []
    for token in args.values.split(","):
        token = token.strip()
        values.append(float(token) if "." in token else int(token))

    with _observed(args, "sweep", total=len(values)) as obs:
        state = _args_state(args)
        sweep = Sweep(
            build=functools.partial(_build_workload_from_state, state),
            protocol=functools.partial(
                _protocol_from_state, state, args.protocol
            ),
            seeds=args.seeds,
            jammer=_jammer(args) if args.jam > 0 else None,
            processes=args.processes,
            cache=_cache_knob(args),
            telemetry=obs.telemetry,
            fastpath=getattr(args, "fastpath", "off"),
            progress=obs.tracker,
            ledger=obs.ledger,
        )
        points = sweep.run({args.param: values})
        print(
            Sweep.table(
                points,
                title=(
                    f"{args.protocol} on {args.workload}, sweeping "
                    f"{args.param} over {values} ({args.seeds} seeds/point)"
                ),
            )
        )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments import aggregate, run_seeds

    with _observed(args, "compare") as obs:
        instance = _build_workload(args)
        factories = _protocol_factories(args, instance)
        state = _args_state(args)
        build = functools.partial(_build_workload_from_state, state)
        rows = []
        for name in sorted(factories):
            digests = run_seeds(
                build,
                functools.partial(_protocol_from_state, state, name),
                seeds=range(args.seeds),
                jammer=_jammer(args),
                processes=args.processes,
                cache=_cache_knob(args),
                telemetry=obs.telemetry,
                ledger=obs.ledger,
            )
            agg = aggregate(digests)
            rows.append([name, 1.0 - agg["success_rate"], agg["jobs"]])
        print(
            format_table(
                ["protocol", "miss rate", "jobs x seeds"],
                rows,
                title=f"workload: {instance.summary()}",
            )
        )
    return 0


def cmd_robustness(args: argparse.Namespace) -> int:
    """Sweep fault severity per family; print degradation profiles."""
    from repro.experiments.robustness import JAM_THRESHOLD, run_robustness

    if args.smoke:
        # CI chaos smoke: ALIGNED + UNIFORM under a rate-limited
        # adaptive adversary, invariant checker on, a clean baseline
        # column to gate on.  Tuned to finish in well under 30 seconds.
        args.workload = "single-class"
        args.n = 10
        args.level = 9
        args.protocols = "aligned,uniform"
        args.families = "rate"
        args.severities = "0,0.5"
        args.seeds = 3

    with _observed(args, "robustness") as obs:
        build, protocols = _protocol_grid(args)
        families = _families(args)
        severities = [float(tok) for tok in args.severities.split(",")]
        report = run_robustness(
            build,
            protocols,
            families=families,
            severities=severities,
            seeds=args.seeds,
            check_invariants=not args.no_invariants,
            processes=args.processes,
            cache=_cache_knob(args),
            retries=args.retries,
            telemetry=obs.telemetry,
        )
        print(report.render())
    if any(s == JAM_THRESHOLD for s in severities) and "jam" in families:
        print(
            f"\nseverity {JAM_THRESHOLD} of family 'jam' is the exact "
            "p_jam <= 1/2 boundary of Theorem 14."
        )
    if args.smoke:
        # Gate the smoke on the clean baseline: a run that cannot
        # deliver everything on an unjammed channel is broken, and any
        # invariant violation has already raised.
        clean = report.point("rate", "aligned", 0.0)
        if clean.success.point < 1.0:
            print("SMOKE FAILURE: clean ALIGNED baseline below 1.0")
            return 1
        print("chaos smoke passed (invariants held on every run)")
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    """Bisect breaking points per adversary family; print the frontier."""
    from repro.experiments.certify import run_certification
    from repro.experiments.robustness import JAM_THRESHOLD

    if args.smoke:
        # Nightly CI smoke: the Theorem-14 anchor plus the two sharpest
        # reactive attackers, a coarse bisection, modest replication.
        # Gates: PUNCTUAL's stochastic threshold must not drift below
        # --min-jam-threshold, some reactive family must break it
        # strictly earlier, and the modern-zoo representative (slowfb)
        # must have a locatable jam cliff.  Tuned to finish in well
        # under a minute.
        args.protocols = "punctual,slowfb"
        args.families = "jam,struct-delivery,banked"
        args.seeds = 12
        args.tol = 0.05

    with _observed(args, "certify") as obs:
        build, protocols = _protocol_grid(args)
        families = _families(args)
        probe_cb = None
        if obs.tracker is not None:

            def probe_cb(name: str, family: str, severity: float) -> None:
                obs.tracker.context.update(
                    cell=f"{name}/{family}", severity=round(severity, 4)
                )
                obs.tracker.add(1)

        report = run_certification(
            build,
            protocols,
            families=families,
            seeds=args.seeds,
            target=args.target,
            tol=args.tol,
            processes=args.processes,
            cache=_cache_knob(args),
            retries=args.retries,
            telemetry=obs.telemetry,
            fastpath=getattr(args, "fastpath", "off"),
            progress=probe_cb,
            ledger=obs.ledger,
        )
        print(report.render())
        if args.artifact:
            n = report.to_jsonl(args.artifact)
            print(f"\nwrote {n} breaking-point records to {args.artifact}")

    status = 0
    if "jam" in families and args.min_jam_threshold > 0:
        for name in protocols:
            dev = report.theorem14_deviation(name)
            if dev is None:
                continue
            threshold = JAM_THRESHOLD + dev
            if name == "punctual" and threshold < args.min_jam_threshold:
                print(
                    f"CERTIFY FAILURE: punctual stochastic-jamming "
                    f"threshold {threshold:.3f} drifted below "
                    f"{args.min_jam_threshold:g}"
                )
                status = 1
    if args.smoke:
        lower = report.reactive_strictly_lower("punctual")
        if lower is not True:
            print(
                "CERTIFY FAILURE: no reactive adversary broke punctual "
                "strictly below the oblivious jam threshold"
            )
            status = 1
        if "slowfb" in protocols:
            cell = report.cell("slowfb", "jam")
            if cell.threshold is None:
                print(
                    "CERTIFY FAILURE: slowfb's stochastic-jamming cliff "
                    "was not located in [0, 1]"
                )
                status = 1
        if status == 0:
            print("\ncertify smoke passed (Theorem 14 boundary in place)")
    return status


def cmd_frontier(args: argparse.Namespace) -> int:
    """Deadline-miss × energy frontier under identical jamming budgets."""
    from repro.experiments.frontier import run_frontier

    with _observed(args, "frontier") as obs:
        build, protocols = _protocol_grid(args)
        try:
            budgets = [
                float(tok) for tok in args.budgets.split(",") if tok.strip()
            ]
        except ValueError:
            raise SystemExit(f"--budgets expects numbers, got {args.budgets!r}")
        report = run_frontier(
            build,
            protocols,
            budgets=budgets,
            seeds=args.seeds,
            processes=args.processes,
            cache=_cache_knob(args),
            retries=args.retries,
            telemetry=obs.telemetry,
        )
        print(report.render())
        if args.artifact:
            n = report.to_jsonl(args.artifact)
            print(f"\nwrote {n} frontier points to {args.artifact}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the differential / metamorphic / determinism battery."""
    from repro.verify import run_verification

    cases = None
    if args.cases:
        cases = [c.strip() for c in args.cases.split(",") if c.strip()]
    config = {"kind": "verify", "smoke": args.smoke, "cases": cases}
    with _observed(args, "verify", record=config) as obs:
        report = run_verification(
            smoke=args.smoke,
            cases=cases,
            progress=(
                (lambda msg: print(f"  .. {msg}")) if args.progress else None
            ),
        )
        trk = obs.record
        if trk is not None:
            trk.counters.update(
                checks=len(report.results),
                failures=len(report.failures),
                discrepancies=len(report.discrepancies),
            )
            if not report.ok:
                trk.status = "failed"
            if args.artifact:
                trk.artifact(args.artifact)
    print(report.render())
    if args.artifact:
        path = report.write_artifact(args.artifact)
        print(f"\nwrote verification artifact to {path} "
              f"(summarize with: repro obs {path})")
    if not report.ok:
        print(
            f"\nVERIFY FAILURE: {len(report.failures)} check(s) found "
            f"{len(report.discrepancies)} discrepancies"
        )
        return 1
    print("\nverification passed (engine, kernels, and digests agree)")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Plan, run, resume, or inspect a declarative campaign."""
    import json

    from repro.campaign import (
        CampaignSpec,
        CampaignState,
        CampaignStateError,
        evaluate,
        run_campaign,
    )

    try:
        spec = CampaignSpec.from_file(args.spec)
    except InvalidParameterError as exc:
        raise SystemExit(str(exc))

    cmd = args.campaign_cmd
    if cmd in ("run", "resume"):
        if cmd == "resume" and not spec.state_path.exists():
            raise SystemExit(
                f"no campaign state at {spec.state_path}; "
                f"start with 'repro campaign run'"
            )
        try:
            report = run_campaign(spec, dry_run=args.dry_run)
        except CampaignStateError as exc:
            raise SystemExit(str(exc))
        if getattr(args, "json", False):
            print(json.dumps(report.to_json(), indent=2, allow_nan=False))
        else:
            print(report.render())
        return 0 if args.dry_run else report.exit_code

    view = CampaignState(spec.state_path).load()
    drift = (
        view.header is not None
        and view.header.get("spec_digest") != spec.digest()
    )
    plan = evaluate(spec, view=view)
    if cmd == "status":
        counts = plan.counts
        if getattr(args, "json", False):
            payload = {
                "name": spec.name,
                "spec_digest": plan.spec_digest,
                "state": str(spec.state_path),
                "state_drift": drift,
                "counts": counts,
                "quarantined": [
                    {
                        "key": str(rec.get("key", "")),
                        "label": str(rec.get("label", "")),
                        "attempts": int(rec.get("attempts", 0)),
                    }
                    for rec in view.quarantined.values()
                ],
            }
            print(json.dumps(payload, indent=2, allow_nan=False))
            return 0
        print(
            f"campaign: {spec.name}  (grid {plan.spec_digest[:12]}, "
            f"state {spec.state_path})"
        )
        if drift:
            print(
                "  WARNING: state file belongs to a different grid — "
                "a run would refuse to resume it"
            )
        print(
            f"  cells: {counts['cells']}  done: {counts['done']}  "
            f"quarantined: {counts['quarantined']}  "
            f"missing: {counts['missing']}"
        )
        print(
            f"  cache: {counts['cache_hits']} hit(s), "
            f"{counts['cache_misses']} miss(es) predicted for the "
            f"missing cells"
        )
        for rec in view.quarantined.values():
            print(
                f"  quarantined: {rec.get('label', '')} after "
                f"{rec.get('attempts', 0)} attempt(s)"
            )
        return 0

    # manifest: one row per cell
    if getattr(args, "json", False):
        payload = {
            "name": spec.name,
            "spec_digest": plan.spec_digest,
            "cells": [
                {
                    "index": c.index,
                    "key": c.key,
                    "label": c.label,
                    "status": c.status,
                    "cache_hits": c.cache_hits,
                    "cache_misses": c.cache_misses,
                }
                for c in plan.cells
            ],
        }
        print(json.dumps(payload, indent=2, allow_nan=False))
        return 0
    rows = [
        [
            str(c.index),
            c.status,
            c.label,
            f"{c.cache_hits}/{c.cache_hits + c.cache_misses}"
            if c.status == "missing"
            else "-",
            c.key[:12],
        ]
        for c in plan.cells
    ]
    print(
        format_table(
            ["cell", "status", "label", "cached", "key"],
            rows,
            title=(
                f"campaign manifest: {spec.name} "
                f"(grid {plan.spec_digest[:12]})"
            ),
        )
    )
    return 0


def cmd_feasibility(args: argparse.Namespace) -> int:
    from repro.sim.validate import certify

    instance = _build_workload(args)
    report = peak_density(instance)
    print(instance.summary())
    print(str(report))
    print(f"tightest feasible γ: {report.density:.6f}")
    feasible = report.density <= args.gamma + 1e-12
    print(f"γ-slack feasible at γ={args.gamma}: {'yes' if feasible else 'NO'}")
    cert = certify(
        instance,
        gamma=args.gamma,
        aligned=_aligned_params(args) if instance.is_aligned else None,
        punctual=registry.punctual_params(vars(args)),
    )
    print()
    print(cert.render())
    return 0 if feasible and cert.ok else 1


def cmd_schedule(args: argparse.Namespace) -> int:
    from repro.analysis.capture import ScheduleCapture
    from repro.analysis.tables import render_schedule
    from repro.sim.job import Job

    lvl = args.small_level
    jobs = []
    jid = 0
    for k in range(4):
        for _ in range(2):
            jobs.append(Job(jid, k << lvl, (k + 1) << lvl)); jid += 1
    for k in range(2):
        for _ in range(3):
            jobs.append(Job(jid, k << (lvl + 1), (k + 1) << (lvl + 1))); jid += 1
    for _ in range(3):
        jobs.append(Job(jid, 0, 4 << lvl)); jid += 1
    instance = Instance(jobs)
    capture = ScheduleCapture(AlignedParams(lam=1, tau=4, min_level=lvl))
    result = simulate(instance, capture.factory(), seed=args.seed)
    active, kinds = capture.timeline(instance.horizon)
    print(f"delivered {result.n_succeeded}/{len(result)}")
    print(
        render_schedule(
            active[: args.width],
            kinds[: args.width],
            [lvl, lvl + 1, lvl + 2],
            max_width=args.width,
        )
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Assemble archived experiment tables into one markdown report."""
    import pathlib

    results = pathlib.Path(args.results_dir)
    if not results.is_dir():
        print(f"no results directory at {results} — run the benchmarks first:")
        print("  pytest benchmarks/ --benchmark-only")
        return 1
    files = sorted(results.glob("*.txt"))
    if not files:
        print(f"no experiment artefacts in {results}")
        return 1
    sections = ["# Experiment report", ""]
    for f in files:
        sections.append(f"## {f.stem}")
        sections.append("")
        sections.append("```")
        sections.append(f.read_text().rstrip())
        sections.append("```")
        sections.append("")
    text = "\n".join(sections)
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"wrote {args.output} ({len(files)} experiments)")
    else:
        print(text)
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Summarize one or more telemetry JSONL artifacts."""
    import json
    import pathlib

    from repro.obs import read_artifact, render_reports, report_data

    artifacts = []
    for path in args.artifacts:
        if not pathlib.Path(path).is_file():
            print(f"no telemetry artifact at {path}")
            return 1
        artifacts.append(read_artifact(path))
    if getattr(args, "json", False):
        print(json.dumps([report_data(a) for a in artifacts], indent=2))
        return 0
    print(render_reports(artifacts))
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    """Inspect the run ledger: list, show, or compare run records."""
    import json

    from repro.obs.ledger import (
        RunLedger,
        compare_runs,
        summarize_records,
    )

    led = RunLedger(args.ledger) if args.ledger else RunLedger()
    if args.runs_cmd == "list":
        records = led.read()
        if getattr(args, "json", False):
            print(json.dumps([r.as_record() for r in records], indent=2))
            return 0
        if not records:
            print(f"no runs recorded in {led.path}")
            return 0
        print(
            format_table(
                ["run id", "kind", "started", "wall s", "status",
                 "config", "headline"],
                summarize_records(records),
                title=f"run ledger: {led.path} ({len(records)} runs)",
            )
        )
        return 0

    def _find(run_id: str):
        try:
            return led.find(run_id)
        except KeyError as exc:
            raise SystemExit(exc.args[0])

    if args.runs_cmd == "show":
        rec = _find(args.run_id)
        if getattr(args, "json", False):
            print(json.dumps(rec.as_record(), indent=2))
            return 0
        import time

        print(f"run {rec.run_id} ({rec.kind}) — {rec.status}")
        started = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(rec.started)
        )
        print(f"  started:  {started}")
        print(f"  wall:     {rec.wall_seconds:.3f}s on "
              f"{rec.hostname} (pid {rec.pid})")
        print(f"  versions: engine={rec.engine_version} "
              f"kernel={rec.kernel_version}")
        if rec.config_digest:
            print(f"  config digest: {rec.config_digest}")
        if rec.config:
            print("  config:")
            for k in sorted(rec.config):
                print(f"    {k}: {rec.config[k]}")
        if rec.counters:
            print("  counters:")
            for k in sorted(rec.counters):
                print(f"    {k}: {rec.counters[k]}")
        if rec.watchdog_trips:
            print(f"  watchdog trips: {rec.watchdog_trips}")
        if rec.artifacts:
            print("  artifacts:")
            for a in rec.artifacts:
                print(f"    {a}")
        return 0

    if args.runs_cmd == "compare":
        rec_a, rec_b = _find(args.a), _find(args.b)
        diff = compare_runs(rec_a, rec_b)
        if getattr(args, "json", False):
            print(json.dumps(diff, indent=2))
            return 0
        a, b = diff["a"], diff["b"]
        print(f"comparing {a} ({diff['kinds'][0]}) "
              f"vs {b} ({diff['kinds'][1]})")
        print(
            "config: identical"
            if diff["same_config"]
            else "config: DIFFERS"
        )
        for key in sorted(diff["config"]):
            va, vb = diff["config"][key]
            print(f"  {key}: {va} -> {vb}")
        if not diff["same_config"] and not diff["config"]:
            # The digests cover full run content (workload state,
            # knobs); the recorded summary dicts may still agree.
            print(
                f"  config digest: {rec_a.config_digest[:12]} -> "
                f"{rec_b.config_digest[:12]}"
            )
        for key in sorted(diff["versions"]):
            va, vb = diff["versions"][key]
            if va != vb:
                print(f"  {key}: {va} -> {vb}")
        if diff["counters"]:
            rows = []
            for key in sorted(diff["counters"]):
                c = diff["counters"][key]
                rows.append([
                    key,
                    "-" if c["a"] is None else c["a"],
                    "-" if c["b"] is None else c["b"],
                    "-" if c.get("delta") is None else c["delta"],
                    (
                        "-"
                        if c.get("ratio") is None
                        else f"{c['ratio']:.3f}"
                    ),
                ])
            print(format_table(
                ["counter", a, b, "delta", "ratio"], rows
            ))
        wall = diff["wall_seconds"]
        print(
            f"wall seconds: {wall['a']:.3f} -> {wall['b']:.3f} "
            f"(delta {wall['delta']:+.3f})"
        )
        return 0
    raise SystemExit(f"unknown runs subcommand: {args.runs_cmd}")


def cmd_top(args: argparse.Namespace) -> int:
    """Show in-flight (and recently finished) runs from heartbeats."""
    import json

    from repro.obs.progress import scan_heartbeats

    paths = args.paths or [".repro"]
    snaps = scan_heartbeats(paths)
    if getattr(args, "json", False):
        print(json.dumps(snaps, indent=2))
        return 0
    if not snaps:
        print(f"no heartbeat files under: {', '.join(paths)}")
        return 0
    rows = []
    for s in snaps:
        done = s.get("done", 0)
        total = s.get("total")
        frac = s.get("fraction")
        rate = s.get("rate_per_s")
        eta = s.get("eta_s")
        status = s.get("status")
        if not status:
            status = "stale" if s.get("stale") else "running"
        rows.append([
            s.get("label", "?"),
            s.get("pid", "?"),
            f"{done}/{total}" if total else str(done),
            "-" if frac is None else f"{100.0 * frac:.1f}%",
            "-" if rate is None else f"{rate:,.0f}/s",
            "-" if eta is None else f"{eta:.0f}s",
            f"{s.get('age_s', 0.0):.1f}s",
            status,
        ])
    print(format_table(
        ["run", "pid", "done", "%", "rate", "eta", "age", "status"],
        rows,
        title=f"heartbeats ({len(snaps)})",
    ))
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    """Measure the perf smoke suite, append history, flag regressions."""
    import json

    from repro.obs import perftrack

    samples = perftrack.measure_smoke(repeats=args.repeats)
    data = perftrack.load_bench(args.bench)
    verdicts = perftrack.detect_regressions(
        samples, data, window=args.window
    )
    appended = False
    if not args.no_append:
        perftrack.append_history(samples, path=args.bench, note=args.note)
        appended = True
    regressions = sorted(
        label for label, v in verdicts.items() if v["regression"]
    )
    if getattr(args, "json", False):
        print(json.dumps({
            "bench": args.bench,
            "rates": {k: sorted(v) for k, v in samples.items()},
            "verdicts": verdicts,
            "regressions": regressions,
            "appended": appended,
        }, indent=2))
    else:
        rows = []
        for label in sorted(verdicts):
            v = verdicts[label]
            rows.append([
                label,
                f"{v['current_mean']:,.0f}",
                (
                    "-"
                    if v["history_mean"] is None
                    else f"{v['history_mean']:,.0f}"
                ),
                v["history_n"],
                (
                    "-"
                    if v.get("rel_change") is None
                    else f"{100.0 * v['rel_change']:+.1f}%"
                ),
                v["verdict"],
            ])
        print(format_table(
            ["suite", "slots/s", "trend mean", "n", "change", "verdict"],
            rows,
            title=f"perf trajectory: {args.bench}",
        ))
        if appended:
            print(f"appended 1 history entry to {args.bench}")
    if regressions and not args.no_gate:
        print(
            "PERF REGRESSION: "
            + ", ".join(regressions)
            + " (bootstrap CI excludes zero and relative drop "
            "exceeds threshold)"
        )
        return 1
    return 0


def _stream_process(args: argparse.Namespace, rho: float):
    """Build the arrival process for one offered load ρ."""
    from repro.stream import BurstyProcess, DiurnalProcess, PoissonProcess

    windows = tuple(int(x) for x in args.windows.split(",") if x.strip())
    weights = (
        tuple(float(x) for x in args.weights.split(",") if x.strip())
        if args.weights
        else None
    )
    kind = args.arrivals
    if kind == "poisson":
        return PoissonProcess(rate=rho, window_sizes=windows, weights=weights)
    if kind == "bursty":
        f = args.p_enter / (args.p_enter + args.p_exit)
        calm = rho * 0.5
        burst = (rho - (1.0 - f) * calm) / f
        return BurstyProcess(
            calm_rate=calm, burst_rate=burst,
            p_enter=args.p_enter, p_exit=args.p_exit,
            window_sizes=windows, weights=weights,
        )
    if kind == "diurnal":
        return DiurnalProcess(
            base_rate=rho, amplitude=args.amplitude, period=args.period,
            window_sizes=windows, weights=weights,
        )
    raise SystemExit(f"unknown arrival process: {kind}")


def _stream_budget(args: argparse.Namespace):
    from repro.stream import StreamBudget

    if args.max_live <= 0:
        return None
    return StreamBudget(
        max_live=args.max_live,
        policy=args.policy,
        queue_capacity=args.queue_capacity or None,
    )


def _stream_watchdog(args: argparse.Namespace):
    from repro.sim.watchdog import Watchdog

    if args.watchdog_seconds <= 0 and args.stall_factor <= 0:
        return None
    return Watchdog(
        max_seconds=args.watchdog_seconds if args.watchdog_seconds > 0 else None,
        stall_factor=args.stall_factor if args.stall_factor > 0 else None,
    )


def cmd_stream(args: argparse.Namespace) -> int:
    """Open-arrival streaming runs: sustained load, bounded memory."""
    from repro.stream import CheckpointConfig, stream_simulate
    from repro.stream.report import SustainedLoadReport
    from repro.stream.shard import StreamShardSpec, run_stream_shards

    config = {
        "kind": "stream",
        "protocol": args.protocol,
        "arrivals": args.arrivals,
        "rho": args.rho,
        "windows": args.windows,
        "max_jobs": args.max_jobs or None,
        "max_slots": args.max_slots or None,
        "shards": args.shards,
        "seed": args.seed,
        "fault": args.fault or None,
        "jam": args.jam or None,
    }
    with _observed(args, "stream", record=config) as obs:
        trk, tracker = obs.record, obs.tracker
        if trk is not None:
            trk.digest(config)
        if args.max_jobs <= 0 and args.max_slots <= 0:
            raise SystemExit("set --max-jobs and/or --max-slots")
        rhos = [float(x) for x in args.rho.split(",") if x.strip()]
        if not rhos:
            raise SystemExit("--rho needs at least one value")
        plan = _fault_plan(args)
        jammer = _jammer(args)
        if type(jammer) is NoJammer:
            jammer = None
        budget = _stream_budget(args)
        watchdog = _stream_watchdog(args)
        factory = _StreamProtocol(_args_state(args), args.protocol)

        checkpoint = None
        if args.checkpoint:
            if len(rhos) > 1 or args.shards > 1:
                raise SystemExit(
                    "--checkpoint applies to a single run: one --rho, "
                    "--shards 1"
                )
            checkpoint = CheckpointConfig(
                path=args.checkpoint, every_slots=args.checkpoint_every
            )
        elif args.resume:
            raise SystemExit("--resume requires --checkpoint PATH")

        report = SustainedLoadReport(
            protocol=args.protocol,
            title="sustained load (streaming)",
            meta={
                "arrivals": args.arrivals,
                "windows": args.windows,
                "budget": budget.describe() if budget is not None else "none",
                "shards": args.shards,
                "max_jobs": args.max_jobs or None,
                "max_slots": args.max_slots or None,
                "fault": args.fault or None,
                "jam": args.jam or None,
            },
        )
        for rho in rhos:
            process = _stream_process(args, rho)
            if tracker is not None:
                tracker.context["rho"] = rho
            if checkpoint is not None:
                merged = stream_simulate(
                    process,
                    factory,
                    seed=args.seed,
                    max_jobs=args.max_jobs or None,
                    max_slots=args.max_slots or None,
                    budget=budget,
                    jammer=jammer,
                    faults=plan,
                    watchdog=watchdog,
                    checkpoint=checkpoint,
                    resume=args.resume,
                    progress=tracker,
                )
            else:
                specs = [
                    StreamShardSpec(
                        seed=args.seed + shard,
                        process=process,
                        factory=factory,
                        max_jobs=(
                            max(args.max_jobs // args.shards, 1)
                            if args.max_jobs
                            else None
                        ),
                        max_slots=args.max_slots or None,
                        budget=budget,
                        jammer=jammer,
                        faults=plan,
                        watchdog=watchdog,
                    )
                    for shard in range(args.shards)
                ]
                merged, _ = run_stream_shards(
                    specs, processes=args.processes, progress=tracker
                )
            report.add(rho, merged)
            if trk is not None:
                for key in (
                    "jobs_released",
                    "jobs_succeeded",
                    "jobs_missed",
                    "jobs_gave_up",
                    "jobs_shed",
                ):
                    trk.counters[key] = (
                        trk.counters.get(key, 0) + getattr(merged, key)
                    )
                trk.counters["peak_live"] = max(
                    trk.counters.get("peak_live", 0), merged.peak_live
                )
                if merged.watchdog is not None:
                    trk.watchdog_trips += 1
            line = (
                f"rho={rho:g}: released={merged.jobs_released} "
                f"succeeded={merged.jobs_succeeded} "
                f"missed={merged.jobs_missed} "
                f"shed={merged.jobs_shed} peak_live={merged.peak_live}"
            )
            if merged.watchdog is not None:
                line += f" [watchdog: {merged.watchdog.reason}]"
            if merged.resumed_at_slot >= 0:
                line += f" [resumed at slot {merged.resumed_at_slot}]"
            print(line)

        print()
        print(report.table())
        if args.report:
            report.save(args.report)
            print(f"wrote report to {args.report}")
            if trk is not None:
                trk.artifact(args.report)
        if trk is not None and args.checkpoint:
            trk.artifact(args.checkpoint)

        rc = 0
        if args.rss_budget_mb > 0:
            import resource

            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            peak_mb = peak_kb / 1024.0
            print(
                f"peak RSS: {peak_mb:.1f} MiB "
                f"(budget {args.rss_budget_mb} MiB)"
            )
            if peak_mb > args.rss_budget_mb:
                print("FAIL: peak RSS exceeded the configured budget")
                rc = 1
        if trk is not None:
            trk.counters["exit_code"] = rc
    return rc


def _add_telemetry_flag(sp) -> None:
    sp.add_argument("--telemetry", default="", metavar="PATH",
                    help="write a telemetry JSONL artifact (metrics, "
                         "lifecycle events, spans) here; summarize it "
                         "with 'repro obs PATH'")


def _add_fastpath_flag(sp) -> None:
    sp.add_argument("--fastpath", default="auto",
                    choices=["auto", "on", "off"],
                    help="route qualifying runs through the vectorized "
                         "full-protocol kernels (auto: kernel when the "
                         "configuration qualifies, engine otherwise; "
                         "on: require a kernel; off: always the engine). "
                         "See docs/TUNING.md")


def _add_obs_flags(sp, heartbeat: bool = True) -> None:
    sp.add_argument("--ledger", nargs="?", const="default", default="",
                    metavar="PATH",
                    help="append one run record to a JSONL run ledger "
                         "(bare flag: $REPRO_LEDGER or .repro/ledger.jsonl; "
                         "inspect with 'repro runs list'). Observational: "
                         "never changes results or cache keys")
    if heartbeat:
        sp.add_argument("--heartbeat", default="", metavar="PATH",
                        help="write live progress snapshots (rate, ETA) "
                             "here; watch them with 'repro top'")
        sp.add_argument("--heartbeat-every", type=float, default=1.0,
                        help="heartbeat write cadence in seconds")
        sp.add_argument("--metrics-port", type=int, default=0,
                        help="serve Prometheus text metrics on "
                             "http://127.0.0.1:PORT/metrics for the "
                             "duration of the run (0 = off)")


def _add_perf_flags(sp) -> None:
    sp.add_argument("--processes", type=int, default=1,
                    help="worker processes for seed replication")
    sp.add_argument("--cache", default="", metavar="DIR",
                    help="cache results on disk: a directory, or 'default' "
                         "for $REPRO_CACHE_DIR / ~/.cache/repro")


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    p = argparse.ArgumentParser(
        prog="repro",
        description="Contention resolution with message deadlines (SPAA 2020)",
    )
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--workload", default="batch",
                        choices=list(registry.WORKLOADS))
        sp.add_argument("--n", type=int, default=8)
        sp.add_argument("--window", type=int, default=4096)
        sp.add_argument("--level", type=int, default=9)
        sp.add_argument("--gamma", type=float, default=0.02)
        sp.add_argument("--workload-seed", type=int, default=0)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--jam", type=float, default=0.0,
                        help="stochastic jamming probability")
        sp.add_argument("--lam", type=int, default=1)
        sp.add_argument("--min-level", type=int, default=9)
        sp.add_argument("--pullback-exp", type=int, default=1)
        sp.add_argument("--slingshot-exp", type=int, default=2)

    sim = sub.add_parser("simulate", help="run one protocol on one workload")
    add_common(sim)
    sim.add_argument("--protocol", default="punctual",
                     choices=list(registry.PROTOCOLS))
    sim.add_argument("--fault", default="", metavar="FAMILY:SEVERITY",
                     help=_FAULT_HELP)
    sim.add_argument("--check-invariants", action="store_true",
                     help="audit every slot with the runtime invariant "
                          "checker (violations raise)")
    sim.add_argument("--trace", action="store_true")
    sim.add_argument("--require-success", type=float, default=0.0,
                     help="exit nonzero if the success rate is below this")
    sim.add_argument("--export", default="",
                     help="write per-job outcomes to this CSV")
    sim.add_argument("--export-trace", default="",
                     help="write the per-slot trace to this CSV")
    _add_fastpath_flag(sim)
    _add_telemetry_flag(sim)
    _add_obs_flags(sim, heartbeat=False)
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser(
        "sweep", help="sweep one workload parameter for one protocol"
    )
    add_common(swp)
    swp.add_argument("--protocol", default="punctual",
                     choices=list(registry.PROTOCOLS))
    swp.add_argument("--param", default="n",
                     choices=["n", "window", "gamma", "level"])
    swp.add_argument("--values", required=True,
                     help="comma-separated values, e.g. 4,8,16")
    swp.add_argument("--seeds", type=int, default=3)
    _add_perf_flags(swp)
    _add_fastpath_flag(swp)
    _add_telemetry_flag(swp)
    _add_obs_flags(swp)
    swp.set_defaults(func=cmd_sweep)

    cmp_ = sub.add_parser("compare", help="run every protocol on one workload")
    add_common(cmp_)
    cmp_.add_argument("--seeds", type=int, default=3)
    _add_perf_flags(cmp_)
    _add_telemetry_flag(cmp_)
    _add_obs_flags(cmp_, heartbeat=False)
    cmp_.set_defaults(func=cmd_compare)

    rob = sub.add_parser(
        "robustness",
        help="sweep fault severity per family; print degradation profiles",
    )
    add_common(rob)
    rob.add_argument("--protocols", default="uniform,aligned,punctual",
                     help="comma-separated protocol names to profile")
    rob.add_argument("--families", default="jam,rate,feedback,clock,jobs",
                     help=_FAMILIES_HELP)
    rob.add_argument("--severities", default="0,0.1,0.25,0.5,0.75",
                     help="comma-separated severity ladder in [0, 1]; "
                          "0.5 lands on the Theorem-14 jamming boundary")
    rob.add_argument("--seeds", type=int, default=5)
    rob.add_argument("--retries", type=int, default=0,
                     help="transient-failure retries per cell")
    rob.add_argument("--no-invariants", action="store_true",
                     help="skip the runtime invariant checker")
    rob.add_argument("--smoke", action="store_true",
                     help="fast CI chaos smoke: ALIGNED under a budgeted "
                          "adversary with the invariant checker on")
    _add_perf_flags(rob)
    _add_telemetry_flag(rob)
    rob.set_defaults(func=cmd_robustness)

    cert = sub.add_parser(
        "certify",
        help="bisect empirical breaking points per adversary family",
    )
    add_common(cert)
    # Calibrated certification workload: small enough that the cliff
    # sits inside [0, 1] and sharp enough that the jam family crosses
    # the target within +-0.05 of the Theorem-14 boundary.
    cert.set_defaults(n=12, window=1024, min_level=8)
    cert.add_argument("--protocols", default="punctual",
                      help="comma-separated protocol names to certify")
    cert.add_argument("--families", default="jam,rate,burst,reactive,"
                      "struct-control,struct-delivery,assassin,banked",
                      help=_FAMILIES_HELP)
    cert.add_argument("--seeds", type=int, default=30,
                      help="Monte-Carlo replication per probed severity")
    cert.add_argument("--target", type=float, default=0.9,
                      help="success rate defining 'broken'")
    cert.add_argument("--tol", type=float, default=0.02,
                      help="bisection bracket width")
    cert.add_argument("--retries", type=int, default=0,
                      help="transient-failure retries per probe")
    cert.add_argument("--artifact", default="", metavar="PATH",
                      help="write the frontier as JSONL here")
    cert.add_argument("--min-jam-threshold", type=float, default=0.4,
                      help="exit nonzero if punctual's stochastic threshold "
                           "falls below this (0 disables the gate)")
    cert.add_argument("--smoke", action="store_true",
                      help="nightly CI smoke: coarse ladder, jam + two "
                           "reactive families, hard gates")
    _add_perf_flags(cert)
    _add_fastpath_flag(cert)
    _add_telemetry_flag(cert)
    _add_obs_flags(cert)
    cert.set_defaults(func=cmd_certify)

    fro = sub.add_parser(
        "frontier",
        help="deadline-miss x energy frontier under identical jam budgets",
    )
    add_common(fro)
    fro.add_argument("--protocols",
                     default="punctual,uniform,beb,sawtooth,soft,slowfb,nocd",
                     help="comma-separated protocol names to place on the "
                          "frontier")
    fro.add_argument("--budgets", default="0,0.25",
                     help="comma-separated oblivious jamming rates; every "
                          "protocol faces each budget with identical seeds")
    fro.add_argument("--seeds", type=int, default=16,
                     help="Monte-Carlo replication per (protocol, budget)")
    fro.add_argument("--retries", type=int, default=0,
                     help="transient-failure retries per cell")
    fro.add_argument("--artifact", default="", metavar="PATH",
                     help="write the frontier points as JSONL here")
    _add_perf_flags(fro)
    _add_telemetry_flag(fro)
    fro.set_defaults(func=cmd_frontier)

    stm = sub.add_parser(
        "stream",
        help="open-arrival streaming runs: sustained load, bounded memory",
    )
    add_common(stm)
    stm.add_argument("--protocol", default="sawtooth",
                     choices=list(registry.STREAM_PROTOCOLS),
                     help="per-job protocol (instance-level protocols like "
                          "edf need the full workload and cannot stream)")
    stm.add_argument("--arrivals", default="poisson",
                     choices=["poisson", "bursty", "diurnal"])
    stm.add_argument("--rho", default="0.1",
                     help="offered load(s), jobs/slot; comma-separated "
                          "values sweep the sustained-load curve")
    stm.add_argument("--windows", default="16,64,256",
                     help="comma-separated window-size menu")
    stm.add_argument("--weights", default="",
                     help="comma-separated window weights (default uniform)")
    stm.add_argument("--p-enter", type=float, default=0.005,
                     help="bursty: per-slot probability of entering a burst")
    stm.add_argument("--p-exit", type=float, default=0.05,
                     help="bursty: per-slot probability of leaving a burst")
    stm.add_argument("--amplitude", type=float, default=0.5,
                     help="diurnal: modulation amplitude in [0, 1]")
    stm.add_argument("--period", type=int, default=4096,
                     help="diurnal: modulation period in slots")
    stm.add_argument("--max-jobs", type=int, default=0,
                     help="stop releasing after this many jobs (0 = off)")
    stm.add_argument("--max-slots", type=int, default=0,
                     help="stop releasing at this slot (0 = off)")
    stm.add_argument("--max-live", type=int, default=0,
                     help="hard live-set budget (0 = unbounded)")
    stm.add_argument("--policy", default="shed-newest",
                     choices=["shed-newest", "shed-loosest-deadline", "block"],
                     help="admission control when the live set is full")
    stm.add_argument("--queue-capacity", type=int, default=0,
                     help="block policy: FIFO capacity (default max-live)")
    stm.add_argument("--fault", default="", metavar="FAMILY:SEVERITY",
                     help=_FAULT_HELP)
    stm.add_argument("--checkpoint", default="", metavar="PATH",
                     help="periodically snapshot resumable state here "
                          "(single run only)")
    stm.add_argument("--checkpoint-every", type=int, default=50_000,
                     help="checkpoint cadence in simulated slots")
    stm.add_argument("--resume", action="store_true",
                     help="resume from --checkpoint instead of starting fresh")
    stm.add_argument("--shards", type=int, default=1,
                     help="partition the run across this many seeds")
    stm.add_argument("--watchdog-seconds", type=float, default=0.0,
                     help="cancel a run after this much wall-clock time")
    stm.add_argument("--stall-factor", type=float, default=0.0,
                     help="cancel after stall-factor * max-window slots "
                          "with live jobs and no delivery")
    stm.add_argument("--report", default="", metavar="PATH",
                     help="write the sustained-load report as JSON here")
    stm.add_argument("--rss-budget-mb", type=float, default=0.0,
                     help="exit nonzero if peak RSS exceeds this many MiB "
                          "(the CI stream-smoke gate)")
    _add_perf_flags(stm)
    _add_obs_flags(stm)
    stm.set_defaults(func=cmd_stream)

    ver = sub.add_parser(
        "verify",
        help="run the differential / metamorphic / determinism battery",
    )
    ver.add_argument("--smoke", action="store_true",
                     help="CI profile: fast corpus subset, one subprocess "
                          "replay; finishes in well under a minute")
    ver.add_argument("--cases", default="", metavar="NAMES",
                     help="comma-separated corpus case names to run "
                          "(default: the whole corpus, or the smoke subset)")
    ver.add_argument("--artifact", default="", metavar="PATH",
                     help="write the JSONL discrepancy artifact here "
                          "(telemetry format; summarize with 'repro obs')")
    ver.add_argument("--progress", action="store_true",
                     help="print one line per completed stage")
    _add_obs_flags(ver, heartbeat=False)
    ver.set_defaults(func=cmd_verify)

    obs = sub.add_parser(
        "obs", help="summarize telemetry artifacts written by --telemetry"
    )
    obs.add_argument("artifacts", nargs="+",
                     help="telemetry JSONL path(s) to summarize")
    obs.add_argument("--json", action="store_true",
                     help="emit the structured summary as JSON")
    obs.set_defaults(func=cmd_obs)

    runs = sub.add_parser(
        "runs", help="inspect the run ledger written by --ledger"
    )
    runs_sub = runs.add_subparsers(dest="runs_cmd", required=True)

    def _runs_common(sp):
        sp.add_argument("--ledger", default="", metavar="PATH",
                        help="ledger path (default: $REPRO_LEDGER or "
                             ".repro/ledger.jsonl)")
        sp.add_argument("--json", action="store_true",
                        help="emit JSON instead of a table")

    runs_list = runs_sub.add_parser("list", help="one line per run")
    _runs_common(runs_list)
    runs_show = runs_sub.add_parser(
        "show", help="full record for one run (id prefixes ok)"
    )
    runs_show.add_argument("run_id")
    _runs_common(runs_show)
    runs_cmp = runs_sub.add_parser(
        "compare", help="diff two runs' configs, versions, and counters"
    )
    runs_cmp.add_argument("a")
    runs_cmp.add_argument("b")
    _runs_common(runs_cmp)
    runs.set_defaults(func=cmd_runs)

    camp = sub.add_parser(
        "campaign",
        help="declarative experiment campaigns: plan, run, resume, inspect",
    )
    camp_sub = camp.add_subparsers(dest="campaign_cmd", required=True)

    def _camp_common(sp):
        sp.add_argument("spec",
                        help="campaign spec file (.yaml/.yml or .json)")
        sp.add_argument("--json", action="store_true",
                        help="emit strict JSON (non-finite floats "
                             "become null)")

    camp_run = camp_sub.add_parser(
        "run", help="execute the missing cells (resumable, idempotent)"
    )
    _camp_common(camp_run)
    camp_run.add_argument("--dry-run", action="store_true",
                          help="plan only: classify cells and predict "
                               "cache hits/misses, execute nothing")
    camp_res = camp_sub.add_parser(
        "resume",
        help="continue an interrupted campaign (requires existing state)",
    )
    _camp_common(camp_res)
    camp_res.add_argument("--dry-run", action="store_true",
                          help="plan only: show what a resume would do")
    camp_st = camp_sub.add_parser(
        "status", help="cell counts from the durable state file"
    )
    _camp_common(camp_st)
    camp_man = camp_sub.add_parser(
        "manifest",
        help="one row per cell: status, label, predicted cache, key",
    )
    _camp_common(camp_man)
    camp.set_defaults(func=cmd_campaign)

    top = sub.add_parser(
        "top", help="show live runs from heartbeat files"
    )
    top.add_argument("paths", nargs="*",
                     help="heartbeat files or directories to scan "
                          "(default: .repro)")
    top.add_argument("--json", action="store_true",
                     help="emit raw snapshots as JSON")
    top.set_defaults(func=cmd_top)

    perf = sub.add_parser(
        "perf",
        help="run the perf smoke suite, append the trajectory, "
             "flag regressions",
    )
    perf.add_argument("--smoke", action="store_true",
                      help="the CI smoke suite (currently the only suite; "
                           "flag kept for forward compatibility)")
    perf.add_argument("--bench", default="BENCH_engine.json", metavar="PATH",
                      help="trajectory file to read and append")
    perf.add_argument("--repeats", type=int, default=3,
                      help="timing repeats per suite label")
    perf.add_argument("--window", type=int, default=20,
                      help="history entries considered for the trend")
    perf.add_argument("--note", default="",
                      help="free-form note stored with the history entry")
    perf.add_argument("--no-append", action="store_true",
                      help="measure and judge only; do not grow the history")
    perf.add_argument("--no-gate", action="store_true",
                      help="report regressions but always exit zero")
    perf.add_argument("--json", action="store_true",
                      help="emit measurements and verdicts as JSON")
    perf.set_defaults(func=cmd_perf)

    feas = sub.add_parser("feasibility", help="report a workload's slack")
    add_common(feas)
    feas.set_defaults(func=cmd_feasibility)

    sched = sub.add_parser("schedule", help="render a Figure-1 schedule")
    sched.add_argument("--small-level", type=int, default=9)
    sched.add_argument("--width", type=int, default=160)
    sched.add_argument("--seed", type=int, default=0)
    sched.set_defaults(func=cmd_schedule)

    rep = sub.add_parser(
        "report", help="assemble benchmark artefacts into one markdown file"
    )
    rep.add_argument("--results-dir", default="benchmarks/results")
    rep.add_argument("--output", default="", help="write here instead of stdout")
    rep.set_defaults(func=cmd_report)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
