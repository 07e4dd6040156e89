#!/usr/bin/env python3
"""Compare benchmark results of a parent commit (A) and a change (B).

Usage, from the repository root::

    python3 bench/compare.py A_DIR B_DIR

Each directory holds the result records ``bench/run.py`` writes
(``--out``).  For every pair of end-to-end metric and workload in
``BENCHMARK.json``, and of a metric in ``RECORD_METRICS`` and a workload
that reports it, the verdict is:

* ``improved`` — both sides have at least ten runs, B beats A in at
  least nine tenths of the pairs (ties count for neither side), and the
  medians differ by more than A's spread;
* ``unresolved`` — otherwise, when A's spread is wider than the
  metric's bound (as a share of A's median), unless every B sample
  reads better than every A sample;
* ``regression`` — otherwise, when B's median is worse than A's by more
  than the bound;
* ``no-change`` — otherwise.

A sample is one run's value, the i-th runs of each side form a pair
(runs are ordered by seed), and A's spread is the distance between the
quartiles of its samples.  A side with a single run of a workload
contributes that run's per-round values instead, with the same rule for
spread; rounds of one run are not independent samples, so such a
comparison is never ``improved``.  Traced records, when both sides have
them, get a per-layer table for reading, with no verdict.  The
comparison also fails when the two sides disagree on any result
fingerprint of the same workload, seed and operation, and when any run
on either side had a failed operation.  Exit status 1 on any
regression, unresolved verdict, fingerprint difference or failed
operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from harness import benchmark_spec, quartiles

Records = Dict[Tuple[str, bool], List[Dict[str, Any]]]

#: Metrics the records carry beyond the end-to-end ones of
#: ``BENCHMARK.json``, which only declares metrics every workload has.
RECORD_METRICS = (
    {"name": "warm_jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.15},
)
#: Fewest runs per side for an ``improved`` verdict.
MIN_RUNS = 10


def load(directory: Path) -> Records:
    """Result records by ``(workload, traced)``, ordered by seed."""
    out: Records = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if "workload" in rec and "metrics" in rec:
            out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for recs in out.values():
        recs.sort(key=lambda r: r["seed"])
    return out


def samples(records: List[Dict[str, Any]], metric: str) -> List[float]:
    if len(records) == 1:
        return list(records[0]["metrics"][metric]["rounds"])
    return [r["metrics"][metric]["value"] for r in records]


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float, runs: int) -> Tuple[str, int, int]:
    """``(verdict, wins of B, pairs)`` by the rule in the module doc.

    ``runs`` is the number of runs on the side with fewer.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    gain = sign * (mb - ma)
    if runs >= MIN_RUNS and wins >= 0.9 * len(pairs) and gain > qa3 - qa1:
        return "improved", wins, len(pairs)
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if qa3 - qa1 > bound * abs(ma) and not all_better:
        return "unresolved", wins, len(pairs)
    if -gain > bound * abs(ma):
        return "regression", wins, len(pairs)
    return "no-change", wins, len(pairs)


def fingerprint_diffs(a: Records, b: Records) -> List[str]:
    """Disagreements between results of the same workload and seed."""
    def by_seed(recs: Records) -> Dict[Tuple[str, int], Dict[str, Any]]:
        return {(r["workload"], r["seed"]): r for rs in recs.values() for r in rs}

    left, right = by_seed(a), by_seed(b)
    diffs = []
    for key in sorted(left.keys() & right.keys()):
        ra, rb = left[key], right[key]
        if ra["config"] != rb["config"]:
            diffs.append(f"{key[0]} seed {key[1]}: workload configuration differs")
            continue
        fa, fb = ra["fingerprints"], rb["fingerprints"]
        for op in sorted(fa.keys() & fb.keys()):
            if fa[op] != fb[op]:
                diffs.append(f"{key[0]} seed {key[1]} {op}: {fa[op]} != {fb[op]}")
    return diffs


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    a, b = load(Path(argv[0])), load(Path(argv[1]))
    spec = benchmark_spec()
    status = 0
    print(f"{'workload':15s} {'metric':15s} {'A median':>12s} {'B median':>12s}"
          f" {'B/A':>7s} {'wins':>6s}  verdict")
    for w in spec["workloads"]:
        key = (w["name"], False)
        if key not in a or key not in b:
            print(f"{w['name']:15s} missing on {'A' if key not in a else 'B'}")
            continue
        runs = min(len(a[key]), len(b[key]))
        for m in spec["end_to_end"] + list(RECORD_METRICS):
            if m["name"] not in a[key][0]["metrics"]:
                continue
            sa, sb = samples(a[key], m["name"]), samples(b[key], m["name"])
            v, wins, n = verdict(sa, sb, m["better"], m["bound"], runs)
            ma, mb = quartiles(sa)[1], quartiles(sb)[1]
            print(f"{w['name']:15s} {m['name']:15s} {ma:12.5g} {mb:12.5g}"
                  f" {mb / ma if ma else float('nan'):7.3f} {wins:>3d}/{n:<2d}  {v}")
            if v in ("regression", "unresolved"):
                status = 1
    for w in spec["workloads"]:
        key = (w["name"], True)
        if key in a and key in b:
            print(f"\nper-layer medians, {w['name']} (traced; no verdict)")
            for m in spec["per_layer"]:
                va = a[key][0]["metrics"][m["name"]]["value"]
                vb = b[key][0]["metrics"][m["name"]]["value"]
                if va or vb:
                    print(f"  {m['name']:28s} {va:12.5g} {vb:12.5g} {m['unit']}")
    diffs = fingerprint_diffs(a, b)
    for d in diffs:
        print(f"fingerprint difference: {d}")
    failures = [
        f"{side} {r['workload']} seed {r['seed']}: {r['failed']} of {r['attempted']}"
        for side, recs in (("A", a), ("B", b))
        for rs in recs.values() for r in rs if r["failed"]
    ]
    for f in failures:
        print(f"failed operations: {f}")
    if diffs or failures:
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
