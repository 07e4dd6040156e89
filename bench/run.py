#!/usr/bin/env python3
"""Run the repository benchmark.

From the repository root::

    python3 bench/run.py                        # every workload, untraced
    python3 bench/run.py --trace                # every workload, traced
    python3 bench/run.py --workload engine-grid --seed 3 --seconds 15 --trace 0

With ``--workload`` one workload runs in this process: it builds its
inputs from ``--seed``, repeats its round until ``--seconds`` have passed
(at least ``MIN_ROUNDS`` times), checks every result, writes the full
record to ``--out`` and prints, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  Without
``--workload`` each workload runs in a fresh child process and their
metric lines, ``failed_frac`` included, are printed together.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from harness import (
    BENCH_DIR,
    Meter,
    MissingSourceError,
    benchmark_spec,
    compile_sources,
    host_info,
    load_pins,
    median,
    pin,
    probe,
    quartiles,
    require_repro,
    to_reference,
    usable_cpus,
)

#: Fewest untraced rounds a measurement takes, however short ``--seconds``.
MIN_ROUNDS = 5
#: Fresh interpreters started per run to time set-up; the median counts.
SETUP_SAMPLES = 5


def _merge_extras(rounds) -> Dict[str, Any]:
    """Lists concatenate across rounds; numbers take their median."""
    merged: Dict[str, Any] = {}
    for key in {k for r in rounds for k in r.extras}:
        values = [r.extras[key] for r in rounds if key in r.extras]
        if isinstance(values[0], list):
            merged[key] = [x for v in values for x in v]
        else:
            merged[key] = median(values)
    return merged


def _check(rounds, pins: Optional[Dict[str, str]]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, errors)`` over every round of a run.

    An operation fails when it raised or failed a workload check, when
    its result differs from the first round that ran it, or from its
    pinned fingerprint; a round whose parity values differ from the
    first round's fails as a whole.
    """
    first: Dict[str, str] = {}
    attempted = failed = 0
    errors: List[str] = []
    for i, r in enumerate(rounds):
        attempted += sum(op.units for op in r.ops.values())
        bad = 0
        for op_id, op in r.ops.items():
            problem = op.error or (
                "differs from its first run" if first.setdefault(op_id, op.fp) != op.fp
                else "differs from its pinned fingerprint"
                if pins is not None and pins.get(op_id) != op.fp
                else ""
            )
            if problem:
                bad += op.units
                errors.append(f"round {i} {op_id}: {problem}")
        if r.parity != rounds[0].parity:
            bad = sum(op.units for op in r.ops.values())
            errors.append(f"round {i}: parity {r.parity} != {rounds[0].parity}")
        failed += bad
    return attempted, failed, errors


def _setup_seconds(name: str, seed: int) -> float:
    """Reference seconds from launching a fresh interpreter to its inputs built.

    The child inherits this process's CPU, where the probes on either
    side of it run (see ``harness.Meter``).
    """
    before = probe()
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    host = float(out.split()[-1]) - t0
    return to_reference(host, (before + probe()) / 2)


def _peak_rss_mib() -> float:
    """The larger of this process's and its children's peak RSS (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _metric(values: List[float], unit: str) -> Dict[str, Any]:
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "rounds": values}


def measure(workload, seed: int, seconds: float, trace: bool, out: Path,
            min_rounds: int = MIN_ROUNDS, setup_samples: int = SETUP_SAMPLES) -> Dict[str, Any]:
    """Run one workload and return its full result record.

    Untraced: rounds repeat until ``seconds`` have passed and at least
    ``min_rounds`` ran.  Traced: untraced rounds fill the first third of
    the time (at least one), then traced rounds the rest (at least one);
    every per-layer value is the median over the traced rounds.
    """
    from tracing import Tracer, install, layer_metrics

    workload.build(seed)
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=out))
    untraced, traced, snaps = [], [], []
    tracer = Tracer() if trace else None
    cpus = usable_cpus()
    # Work in this process stays on one CPU, so that the meter's probes
    # measure the CPU the work runs on; a pool keeps every CPU.
    one_cpu = {min(cpus)} if cpus else set()
    pin(cpus if workload.pool else one_cpu)
    try:
        workload.prepare(workdir)
        start = time.perf_counter()
        budget = seconds / 3 if trace else seconds
        while (not untraced or _before(start, budget)
               or (not trace and len(untraced) < min_rounds)):
            untraced.append(workload.run_round(Meter(), index=len(untraced)))
        if trace:
            uninstall = install(tracer)
            try:
                while not traced or _before(start, seconds):
                    tracer.round = len(traced)
                    traced.append(workload.run_round(
                        Meter(probing=False), tracer, index=len(traced)))
                    snaps.append(tracer.take())
            finally:
                uninstall()
        if not trace:
            rss = _peak_rss_mib()
            compile_sources()
            pin(one_cpu)
            setup = [_setup_seconds(workload.name, seed) for _ in range(setup_samples)]
    finally:
        pin(cpus)
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    pins_for_seed = load_pins().get(workload.pin_key(), {}).get(str(seed))
    attempted, failed, errors = _check(untraced + traced, pins_for_seed)
    rates = [r.jobs / r.ref for r in untraced]
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": workload.config(),
        "host": host_info(),
        "pinned": pins_for_seed is not None,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": errors[:50],
        "round_host_s": [r.wall for r in untraced],
        "round_ref_s": [r.ref for r in untraced],
        "host_jobs_per_s": [r.jobs / r.wall for r in untraced],
        "fingerprints": {
            k: op.fp for r in untraced + traced for k, op in r.ops.items()
        },
    }
    if not trace:
        record["metrics"] = {
            "setup_s": _metric(setup, "s"),
            "jobs_per_s": _metric(rates, "jobs/s"),
            "peak_rss_mib": _metric([rss], "MiB"),
        }
        warm = [jobs / ref for jobs, ref in (r.warm for r in untraced if r.warm)]
        if warm:
            record["metrics"]["warm_jobs_per_s"] = _metric(warm, "jobs/s")
        return record

    overhead = median([r.wall for r in traced]) / median([r.wall for r in untraced]) - 1
    extras = _merge_extras(untraced)
    per_round = [layer_metrics(s, extras, overhead) for s in snaps]
    record["traced_walls"] = [r.wall for r in traced]
    record["metrics"] = {
        name: _metric([m[name][0] for m in per_round], unit)
        for name, (_, unit) in per_round[0].items()
    }
    spans = {"workload": workload.name, "seed": seed,
             "spans": tracer.span_records()}
    (out / f"trace-{workload.name}.json").write_text(json.dumps(spans) + "\n")
    return record


def _before(start: float, budget: float) -> bool:
    return time.perf_counter() - start < budget


def result_line(record: Dict[str, Any]) -> str:
    """The one-line JSON result the benchmark prints last.

    It carries the metrics ``BENCHMARK.json`` declares (end-to-end, or
    per-layer when traced); a workload's further metrics, such as
    ``warm_jobs_per_s``, stay in the printed table and the record.
    """
    declared = benchmark_spec()["per_layer" if record["trace"] else "end_to_end"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"][m["name"]]["value"],
                        "unit": m["unit"]}
            for m in declared
        },
    })


def _run_one(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.build(args.seed)
        print(time.monotonic())
        return 0
    out = Path(args.out)
    record = measure(workload, args.seed, args.seconds, bool(args.trace), out)
    suffix = "-trace" if args.trace else ""
    path = out / f"{args.workload}-seed{args.seed}{suffix}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in record["metrics"].items():
        print(f"{args.workload:15s} {name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:15s} {'failed_frac':28s} {record['failed_frac']:14.6g} ratio")
    for err in record["errors"][:5]:
        print(f"error: {err}", file=sys.stderr)
    print(f"wrote {path}")
    print(result_line(record))
    return 0


def _run_all(args, names: List[str]) -> int:
    """Each workload in a fresh child process; a summary at the end."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"{name}: {result['failed']} of {result['attempted']} operations failed")
            status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--out", default=str(BENCH_DIR / "out"),
                        help="directory for result records and traces")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        require_repro()
    except MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return _run_all(args, names)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
