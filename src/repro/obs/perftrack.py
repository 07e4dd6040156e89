"""The performance record: ``bench/run.py`` results judged and kept.

``bench/run.py`` measures; this module keeps what it measured.  Each
result record the benchmark writes (one workload at one seed) becomes
one entry of a committed trajectory, ``BENCH_e2e.json``, with its host
fingerprint and the ``ENGINE_VERSION`` / ``KERNEL_VERSION`` it ran
under.  Before records are appended, their throughput is judged
against the trailing entries of the same label (``<workload>/<metric>``
for ``jobs_per_s`` and ``warm_jobs_per_s``):

* :func:`read_records` — loads the records, refusing one that failed
  its checks (``correct: false``) and a set from more than one host;
* :func:`detect_regressions` — with same-host history, the bootstrap
  rule from :mod:`repro.analysis.stats`: a label is flagged only when
  the CI on ``mean(now) − mean(history)`` excludes zero from below
  *and* the relative drop beats a noise threshold; with none, a floor
  under any host's history, since the benchmark reports reference
  seconds scaled by a per-host speed probe;
* :func:`append_history` — one entry per record, in one atomic write.

``repro perf RECORD...`` is the CLI over all of this (refuse → judge →
append).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.analysis.stats import bootstrap_mean_diff
from repro.durable import write_atomic

__all__ = [
    "DEFAULT_BENCH_PATH",
    "append_history",
    "detect_regressions",
    "history_samples",
    "load_bench",
    "read_records",
    "throughput_samples",
]

#: The committed trajectory file at the repository root.
DEFAULT_BENCH_PATH = "BENCH_e2e.json"

#: The throughput metrics of a record that are judged, per workload.
THROUGHPUT_METRICS = ("jobs_per_s", "warm_jobs_per_s")

#: Newest same-label entries the trend reads: one batch of
#: ``bench/compare.py``'s ten runs, so an older level does not dilute it.
TRAILING_ENTRIES = 10

#: Minimum history samples before a label is judged at all.
MIN_TREND_HISTORY = 3

#: A drop smaller than this fraction of the historical mean is treated
#: as machine noise even when statistically significant.
REL_DROP_THRESHOLD = 0.15

#: Trend floor = this fraction of the trailing median (CI runners are
#: noisy; 2× headroom under the median only trips on real cliffs).
TREND_FLOOR_FRACTION = 0.5

#: Keys of a ``bench/run.py`` result record that an entry copies as-is.
_RECORD_KEYS = ("workload", "seed", "seconds", "trace", "host")


# -- the trajectory file ------------------------------------------------------


def load_bench(path: Union[str, Path] = DEFAULT_BENCH_PATH) -> Dict[str, Any]:
    """Load the trajectory; a missing file is an empty one.

    A file that is not a trajectory (a torn write, a merge conflict)
    raises :class:`ValueError` naming ``path``, so that an append never
    replaces what it could not read.
    """
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        return {"history": []}
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a performance trajectory: {exc}")
    if not (
        isinstance(data, dict)
        and isinstance(data.get("history"), list)
        and all(_is_record(e) for e in data["history"])
    ):
        raise ValueError(
            f"{path}: not a performance trajectory: expected an object "
            "with a 'history' list of entries"
        )
    return data


def _is_record(obj: Any) -> bool:
    """Whether ``obj`` has the shape of a result record or an entry."""
    return (
        isinstance(obj, dict)
        and all(k in obj for k in _RECORD_KEYS + ("metrics",))
        and isinstance(obj["host"], dict)
        and isinstance(obj["metrics"], dict)
    )


def read_records(paths: Sequence[Union[str, Path]]) -> List[Dict[str, Any]]:
    """Load ``bench/run.py`` result records that may be recorded.

    Raises :class:`ValueError` for a file that is not a result record,
    a record whose run failed its checks (``correct`` is not true), and
    records from more than one host (``host.node``).
    """
    records = []
    for path in paths:
        try:
            rec = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a bench/run.py record: {exc}")
        if not (_is_record(rec) and "correct" in rec):
            raise ValueError(f"{path}: not a bench/run.py result record")
        if rec["correct"] is not True:
            raise ValueError(
                f"{path}: the run failed its checks (correct: "
                f"{rec['correct']!r}); refusing to record it"
            )
        records.append(rec)
    nodes = sorted({str(rec["host"].get("node")) for rec in records})
    if len(nodes) > 1:
        raise ValueError(
            f"records come from more than one host ({', '.join(nodes)}); "
            "record each host's records separately"
        )
    return records


def append_history(
    records: Sequence[Dict[str, Any]],
    *,
    path: Union[str, Path] = DEFAULT_BENCH_PATH,
    note: str = "",
    now: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Append one entry per record to the trajectory; returns the entries.

    An entry keeps the record's workload, seed, run length, trace flag,
    host and each metric's value, unit and per-round values; traced
    records keep their per-layer metrics.  The write is atomic
    (:func:`repro.durable.write_atomic`).
    """
    from repro.fastpath.batched import KERNEL_VERSION
    from repro.sim.engine import ENGINE_VERSION

    stamp = time.time() if now is None else now
    entries = [
        {
            **{k: rec[k] for k in _RECORD_KEYS},
            "metrics": {
                name: {k: m[k] for k in ("value", "unit", "rounds")}
                for name, m in rec["metrics"].items()
            },
            "engine_version": ENGINE_VERSION,
            "kernel_version": KERNEL_VERSION,
            "timestamp": stamp,
            "note": note,
        }
        for rec in records
    ]
    data = load_bench(path)
    data["history"].extend(entries)
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode())
    return entries


# -- samples ------------------------------------------------------------------


def _throughput(entry: Dict[str, Any]) -> Dict[str, List[float]]:
    """Per-round throughput of an untraced record or entry, by label."""
    if entry["trace"]:
        return {}
    return {
        f"{entry['workload']}/{name}": [
            float(v) for v in entry["metrics"][name]["rounds"]
        ]
        for name in THROUGHPUT_METRICS
        if name in entry["metrics"]
    }


def throughput_samples(
    records: Sequence[Dict[str, Any]],
) -> Dict[str, List[float]]:
    """Every untraced record's per-round throughput, pooled by label."""
    out: Dict[str, List[float]] = {}
    for rec in records:
        for label, rounds in _throughput(rec).items():
            out.setdefault(label, []).extend(rounds)
    return out


def history_samples(
    data: Dict[str, Any], label: str, *, node: Optional[str] = None
) -> List[float]:
    """Per-round samples of ``label`` from its trailing entries.

    The newest :data:`TRAILING_ENTRIES` untraced entries carrying
    ``label`` count, only those from host ``node`` when one is given;
    cross-host numbers never feed the bootstrap rule.
    """
    runs = [
        rounds
        for e in data["history"]
        if node is None or e["host"].get("node") == node
        for lbl, rounds in _throughput(e).items()
        if lbl == label
    ]
    return [v for rounds in runs[-TRAILING_ENTRIES:] for v in rounds]


# -- regression detection -----------------------------------------------------


def detect_regressions(
    current: Dict[str, Sequence[float]], data: Dict[str, Any], *, node: str
) -> Dict[str, Dict[str, Any]]:
    """Per-label verdicts of ``current`` samples against the trajectory.

    With at least :data:`MIN_TREND_HISTORY` same-host (``node``)
    samples, a bootstrap CI on ``mean(current) − mean(history)`` is
    computed (:func:`~repro.analysis.stats.bootstrap_mean_diff`); the
    label is a **regression** when the CI's high end is below zero (the
    drop is statistically real) *and* the relative drop exceeds
    :data:`REL_DROP_THRESHOLD` (the drop is large enough to matter).
    Otherwise it is one when its mean is at or below the floor,
    :data:`TREND_FLOOR_FRACTION` × the median of any host's trailing
    samples, which rises as the code gets faster.  With fewer samples
    than that from any host the verdict is ``"insufficient-history"``.
    """
    rng = np.random.default_rng(0)
    out: Dict[str, Dict[str, Any]] = {}
    for label in sorted(current):
        now = [float(v) for v in current[label]]
        now_mean = float(np.mean(now))
        past = history_samples(data, label, node=node)
        same_host = len(past) >= MIN_TREND_HISTORY
        if not same_host:
            past = history_samples(data, label)
        hist_mean = float(np.mean(past)) if past else None
        v: Dict[str, Any] = {
            "current_mean": now_mean,
            "history_mean": hist_mean,
            "history_n": len(past),
            "regression": False,
            "verdict": "ok",
        }
        out[label] = v
        if len(past) < MIN_TREND_HISTORY:
            v["verdict"] = "insufficient-history"
            continue
        rel = v["rel_change"] = (now_mean - hist_mean) / hist_mean
        if not same_host:
            floor = v["floor"] = TREND_FLOOR_FRACTION * float(np.median(past))
            v["regression"] = now_mean <= floor
            v["verdict"] = (
                f"regression: at or below the floor {floor:,.0f} (other hosts)"
                if v["regression"]
                else f"ok: {now_mean / floor:.2f}x the floor (other hosts)"
            )
            continue
        point, low, high = bootstrap_mean_diff(now, past, rng)
        v.update({"diff": point, "ci_low": low, "ci_high": high})
        if high < 0.0 and rel < -REL_DROP_THRESHOLD:
            v["regression"] = True
            v["verdict"] = (
                f"regression: {rel * 100:.1f}% vs trailing mean "
                f"(CI [{low:,.0f}, {high:,.0f}])"
            )
        elif high < 0.0:
            v["verdict"] = f"slower but within noise band ({rel * 100:.1f}%)"
    return out
