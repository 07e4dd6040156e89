"""The performance observatory: trended benchmarks with regression gates.

``BENCH_engine.json`` used to be a one-shot snapshot — each benchmark
run overwrote the last, so a kernel that quietly lost 30% between PRs
was invisible until the coarse static floor in ``perf_smoke.py``
(set 10× under the day-one numbers) finally tripped.  This module turns
it into a trajectory:

* :func:`environment_fingerprint` — hostname / python / numpy / cpu
  provenance, because a slots/second figure without its machine is
  silently misleading across hosts;
* :func:`measure_smoke` — per-repeat throughput samples for the smoke
  labels (engine + the three full-protocol kernels), *samples*, not a
  single best-of, so the regression test has a distribution to resample;
* :func:`append_history` — grows a timestamped ``history`` list inside
  ``BENCH_engine.json`` (capped, oldest dropped), each entry carrying
  the fingerprint and ``ENGINE_VERSION`` / ``KERNEL_VERSION``;
* :func:`detect_regressions` — compares today's samples against recent
  same-host history with the run-clustered bootstrap machinery from
  :mod:`repro.analysis.stats`: a label is flagged only when the CI on
  ``mean(now) − mean(history)`` excludes zero from below *and* the
  relative drop beats a noise threshold;
* :func:`trend_floor` — the trend-aware gate ``perf_smoke.py`` uses in
  place of its static constants: ``max(static, fraction × trailing
  median)`` once enough history exists.

``repro perf`` is the CLI over all of this (measure → append → gate).
"""

from __future__ import annotations

import json
import os
import platform
import socket
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
    "environment_fingerprint",
    "history_samples",
    "load_bench",
    "measure_smoke",
    "trend_floor",
]

#: The committed trajectory file at the repository root.
DEFAULT_BENCH_PATH = "BENCH_engine.json"

#: History entries kept per file; oldest beyond this are dropped.
MAX_HISTORY = 200

#: Minimum same-label history entries before trend gates activate
#: (below this, static floors and "no regression" verdicts apply).
MIN_TREND_HISTORY = 3

#: A drop smaller than this fraction of the historical mean is treated
#: as machine noise even when statistically significant.
REL_DROP_THRESHOLD = 0.15

#: Trend floor = this fraction of the trailing median (CI runners are
#: noisy; 2× headroom under the median only trips on real cliffs).
TREND_FLOOR_FRACTION = 0.5


def environment_fingerprint() -> Dict[str, Any]:
    """Provenance for one benchmark entry: where these numbers came from."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


# -- measurement --------------------------------------------------------------


def measure_smoke(repeats: int = 3) -> Dict[str, List[float]]:
    """Per-repeat slots/second samples for the smoke labels.

    Same instances as ``benchmarks/perf_smoke.py``; unlike the smoke
    script this keeps every repeat (the bootstrap needs samples, not a
    best-of).  Imported lazily so merely loading the obs package never
    pulls the simulation stack.
    """
    from repro.core.aligned import aligned_factory
    from repro.core.punctual import punctual_factory
    from repro.core.uniform import uniform_factory
    from repro.fastpath.batched import plan_fastpath, simulate_fastpath
    from repro.params import AlignedParams, PunctualParams
    from repro.sim.engine import simulate
    from repro.workloads import batch_instance, single_class_instance

    aligned_params = AlignedParams(lam=1, tau=4, min_level=9)
    punctual_params = PunctualParams(
        aligned=AlignedParams(lam=1, tau=2, min_level=10),
        lam=2,
        pullback_exp=1,
        slingshot_exp=2,
    )

    def engine_samples(instance, factory_fn) -> List[float]:
        out = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = simulate(instance, factory_fn(), seed=0)
            out.append(res.slots_simulated / (time.perf_counter() - t0))
        return out

    def kernel_samples(instance, factory, trials=32) -> List[float]:
        plan, reason = plan_fastpath(instance, factory)
        assert plan is not None, f"kernel should qualify: {reason}"
        out = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            slots = sum(
                simulate_fastpath(plan, s).slots_simulated
                for s in range(trials)
            )
            out.append(slots / (time.perf_counter() - t0))
        return out

    uniform_inst = batch_instance(64, window=8192)
    return {
        "engine/uniform": engine_samples(uniform_inst, uniform_factory),
        "kernel/uniform": kernel_samples(uniform_inst, uniform_factory()),
        "kernel/aligned": kernel_samples(
            single_class_instance(16, level=10),
            aligned_factory(aligned_params),
        ),
        "kernel/punctual": kernel_samples(
            batch_instance(16, window=8192),
            punctual_factory(punctual_params),
        ),
    }


# -- the trajectory file ------------------------------------------------------


def load_bench(path: Union[str, Path] = DEFAULT_BENCH_PATH) -> Dict[str, Any]:
    """Load ``BENCH_engine.json`` (empty scaffold when missing/corrupt)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        data = {}
    if not isinstance(data, dict):
        data = {}
    data.setdefault("history", [])
    if not isinstance(data["history"], list):
        data["history"] = []
    return data


def append_history(
    samples: Dict[str, Sequence[float]],
    *,
    path: Union[str, Path] = DEFAULT_BENCH_PATH,
    engine_version: Optional[int] = None,
    kernel_version: Optional[int] = None,
    note: str = "",
    now: Optional[float] = None,
    max_entries: int = MAX_HISTORY,
) -> Dict[str, Any]:
    """Append one timestamped entry to the trajectory; returns the entry.

    The write is atomic (:func:`repro.durable.write_atomic`) and
    preserves every non-``history`` key of the existing file — the
    one-shot ``families`` snapshot from ``bench_engine_perf.py`` and
    this trajectory coexist.
    """
    if engine_version is None or kernel_version is None:
        from repro.fastpath.batched import KERNEL_VERSION
        from repro.sim.engine import ENGINE_VERSION

        engine_version = (
            ENGINE_VERSION if engine_version is None else engine_version
        )
        kernel_version = (
            KERNEL_VERSION if kernel_version is None else kernel_version
        )
    entry: Dict[str, Any] = {
        "timestamp": time.time() if now is None else now,
        "engine_version": engine_version,
        "kernel_version": kernel_version,
        "env": environment_fingerprint(),
        "rates": {
            label: {
                "samples": [float(s) for s in vals],
                "mean": float(np.mean(vals)) if len(vals) else None,
                "best": float(np.max(vals)) if len(vals) else None,
            }
            for label, vals in samples.items()
        },
    }
    if note:
        entry["note"] = note
    data = load_bench(path)
    data["history"].append(entry)
    if max_entries > 0 and len(data["history"]) > max_entries:
        data["history"] = data["history"][-max_entries:]
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode())
    return entry


def history_samples(
    data: Dict[str, Any],
    label: str,
    *,
    hostname: Optional[str] = None,
    window: int = 20,
    exclude_last: bool = False,
) -> List[float]:
    """Flat per-repeat samples for ``label`` from recent history.

    Only entries from ``hostname`` (default: this host) count —
    cross-machine numbers must never gate each other.  ``window`` caps
    how many entries back to look; ``exclude_last`` drops the newest
    entry (used when it is the measurement under test, already
    appended).
    """
    if hostname is None:
        hostname = socket.gethostname()
    entries = [
        e
        for e in data.get("history", [])
        if isinstance(e, dict)
        and (e.get("env") or {}).get("hostname") == hostname
        and label in (e.get("rates") or {})
    ]
    if exclude_last and entries:
        entries = entries[:-1]
    samples: List[float] = []
    for e in entries[-window:]:
        rec = e["rates"][label]
        vals = rec.get("samples")
        if isinstance(vals, list) and vals:
            samples.extend(float(v) for v in vals)
        elif rec.get("mean") is not None:
            samples.append(float(rec["mean"]))
    return samples


# -- regression detection -----------------------------------------------------


def detect_regressions(
    current: Dict[str, Sequence[float]],
    data: Dict[str, Any],
    *,
    hostname: Optional[str] = None,
    window: int = 20,
    exclude_last: bool = False,
    rel_threshold: float = REL_DROP_THRESHOLD,
    n_boot: int = 2000,
    seed: int = 0,
) -> Dict[str, Dict[str, Any]]:
    """Per-label verdicts of today's samples against recent history.

    For each label a bootstrap CI on ``mean(current) − mean(history)``
    is computed (:func:`~repro.analysis.stats.bootstrap_mean_diff`);
    the label is a **regression** when the CI's high end is below zero
    (the drop is statistically real) *and* the relative drop exceeds
    ``rel_threshold`` (the drop is large enough to matter).  Labels
    with fewer than :data:`MIN_TREND_HISTORY` historical samples report
    ``"insufficient-history"`` and never flag.
    """
    rng = np.random.default_rng(seed)
    out: Dict[str, Dict[str, Any]] = {}
    for label in sorted(current):
        now_samples = [float(v) for v in current[label]]
        past = history_samples(
            data,
            label,
            hostname=hostname,
            window=window,
            exclude_last=exclude_last,
        )
        entry: Dict[str, Any] = {
            "current_mean": (
                float(np.mean(now_samples)) if now_samples else None
            ),
            "history_mean": float(np.mean(past)) if past else None,
            "history_n": len(past),
            "regression": False,
            "verdict": "ok",
        }
        if len(past) < MIN_TREND_HISTORY or not now_samples:
            entry["verdict"] = "insufficient-history"
            out[label] = entry
            continue
        point, low, high = bootstrap_mean_diff(
            now_samples, past, rng, n_boot=n_boot
        )
        hist_mean = float(np.mean(past))
        rel = point / hist_mean if hist_mean else 0.0
        entry.update(
            {
                "diff": point,
                "ci_low": low,
                "ci_high": high,
                "rel_change": rel,
            }
        )
        if high < 0.0 and rel < -rel_threshold:
            entry["regression"] = True
            entry["verdict"] = (
                f"regression: {rel * 100:.1f}% vs trailing mean "
                f"(CI [{low:,.0f}, {high:,.0f}] slots/s)"
            )
        elif high < 0.0:
            entry["verdict"] = (
                f"slower but within noise band ({rel * 100:.1f}%)"
            )
        out[label] = entry
    return out


def trend_floor(
    data: Dict[str, Any],
    label: str,
    static_floor: float,
    *,
    hostname: Optional[str] = None,
    window: int = 20,
    fraction: float = TREND_FLOOR_FRACTION,
) -> float:
    """The throughput gate for ``label``: trend-aware when possible.

    ``max(static_floor, fraction × median(recent same-host samples))``
    once :data:`MIN_TREND_HISTORY` entries exist; the static floor
    alone otherwise.  The floor therefore rises as the kernels get
    faster, instead of staying 10× under day-one numbers forever.
    """
    past = history_samples(data, label, hostname=hostname, window=window)
    if len(past) < MIN_TREND_HISTORY:
        return float(static_floor)
    return max(float(static_floor), fraction * float(np.median(past)))
