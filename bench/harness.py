"""Shared plumbing for the benchmark: paths, statistics, fingerprints,
pins, and the meter that times rounds in reference seconds.

Nothing here imports ``repro``, so that ``run.py``, ``compare.py``,
``pin.py`` and the tests agree on one definition of a quartile, a
fingerprint and a pinned result, and ``compare.py`` runs without the
package.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS_PATH = BENCH_DIR / "pins.json"
SPEC_PATH = ROOT / "BENCHMARK.json"


class MissingSourceError(RuntimeError):
    """The checkout holds the benchmark but not the package it measures."""


def require_repro() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or refuse.

    The benchmark measures the source tree next to it, never an
    installed copy, so a checkout without ``src/repro`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSourceError(
            f"no package source at {SRC / 'repro'}; run the benchmark "
            "from a full checkout of the repository"
        )
    src = str(SRC)
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)


def compile_sources() -> None:
    """Byte-compile the package and the benchmark into their caches.

    An installed package is used with its bytecode cached, and an
    interpreter told not to write bytecode (``PYTHONDONTWRITEBYTECODE``)
    would otherwise recompile the package on every launch, making set-up
    time depend on the environment.  Up-to-date files are skipped.
    """
    import compileall

    for directory in (SRC, BENCH_DIR):
        compileall.compile_dir(str(directory), quiet=1)


def benchmark_spec() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json`` at the repository root."""
    return json.loads(SPEC_PATH.read_text())


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("quartiles of an empty sample")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]; 0.0 for no samples."""
    vals = sorted(values)
    if not vals:
        return 0.0
    rank = max(1, -(-len(vals) * q // 100))
    return float(vals[int(min(rank, len(vals))) - 1])


def fingerprint(obj: Any) -> str:
    """A short content hash of a JSON-serialisable result."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def host_info() -> Dict[str, Any]:
    """What a measurement ran on, for telling hosts apart later."""
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    try:
        mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError, AttributeError):  # pragma: no cover
        mem = None
    return {
        "node": platform.node(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cpus_usable": usable,
        "mem_bytes": mem,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class _ProbeState:
    __slots__ = ("x",)

    def __init__(self) -> None:
        self.x = 0

    def step(self, v: int) -> int:
        self.x = (self.x * 31 + v) & 0xFFFF
        return self.x & 1


_PROBE_VALUES = tuple(range(64))

#: Iterations of the speed probe, and its duration at the reference speed
#: (a quiet core of the host the baseline was recorded on).
PROBE_LOOPS = 40_000
NOMINAL_PROBE_S = 0.006
#: Longest stretch of measured work between two probes.
PROBE_INTERVAL_S = 0.25
#: The simulator slows down more than the probe when other tenants load
#: the host: over ten-seed passes on the baseline host, run medians
#: scaled by the probe's slowdown alone still fell as that slowdown rose
#: (log-log slope -0.3 to -0.7 by workload).  The power that flattens
#: them varied from 1.0 to 1.6 between passes and workloads; 1.2 gave
#: the smallest worst-case spread over three passes (see README.md).
SLOWDOWN_EXPONENT = 1.2


def to_reference(seconds: float, probe_s: float) -> float:
    """Host ``seconds`` of work in reference seconds, given the probe's
    time around them (``probe_s``) as a measure of the host's speed."""
    return seconds / (probe_s / NOMINAL_PROBE_S) ** SLOWDOWN_EXPONENT


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now on this CPU.

    Calls, attribute access and small-integer arithmetic, the
    interpreter work the simulator is made of, with no container
    allocation, so garbage collection never runs inside it.
    """
    state, vals, hits = _ProbeState(), _PROBE_VALUES, 0
    t0 = time.perf_counter()
    for i in range(PROBE_LOOPS):
        hits += state.step(vals[i & 63])
    return time.perf_counter() - t0


def probe_all_cpus() -> float:
    """The probe on every usable CPU in turn; their harmonic mean.

    For work spread over a pool, whose throughput is the sum of the
    CPUs' speeds.  The process's CPU set is restored afterwards.
    """
    cpus = usable_cpus()
    times = []
    try:
        for cpu in sorted(cpus):
            pin({cpu})
            times.append(probe())
    finally:
        pin(cpus)
    return len(times) / sum(1.0 / t for t in times)


def usable_cpus() -> set:
    try:
        return set(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return set()


def pin(cpus: set) -> None:
    """Restrict this process (and children it starts) to ``cpus``."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except AttributeError:  # pragma: no cover - non-Linux
            pass


class Meter:
    """Times a round's measured calls in host and in reference seconds.

    The host this runs on changes speed by up to 2x within minutes, as
    other tenants load the CPUs.  So the meter runs :func:`probe` every
    :data:`PROBE_INTERVAL_S` inside the measured calls (from their progress
    callbacks, via :meth:`tick`) and at their edges, leaves the probe's
    own time out, and scales each stretch of work by how much slower
    than :data:`NOMINAL_PROBE_S` the probes on either side of it ran
    (:func:`to_reference`).
    ``pool=True`` is for calls whose work runs in worker processes on
    every CPU: it probes each CPU at the edges only, since probing in
    this process would take a CPU from the workers.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self.host = 0.0  # seconds inside timed regions, probes excluded
        self.ref = 0.0  # the same in reference seconds
        self._pool = False
        self._last = 0.0
        self._start = 0.0

    def _probe(self) -> float:
        return probe_all_cpus() if self._pool else probe()

    def _close(self, now: float) -> None:
        seg = now - self._start
        self.host += seg
        if self.probing:
            p = self._probe()
            self.ref += to_reference(seg, (self._last + p) / 2)
            self._last = p
        else:
            self.ref += seg

    def elapsed(self) -> float:
        """Host seconds of measured work so far, probes excluded."""
        return self.host + time.perf_counter() - self._start

    def tick(self, *_args: Any) -> None:
        """Probe if the current stretch of work is long enough."""
        if self.probing and not self._pool:
            now = time.perf_counter()
            if now - self._start >= PROBE_INTERVAL_S:
                self._close(now)
                self._start = time.perf_counter()

    @contextlib.contextmanager
    def timed(self, pool: bool = False) -> Iterator[None]:
        """Measure the calls made inside the ``with`` block."""
        self._pool = pool
        if self.probing:
            self._last = self._probe()
        self._start = time.perf_counter()
        try:
            yield
        finally:
            self._close(time.perf_counter())


def load_pins() -> Dict[str, Any]:
    if not PINS_PATH.is_file():
        return {}
    return json.loads(PINS_PATH.read_text())


def save_pins(pins: Dict[str, Any]) -> None:
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def seed_list(spec: str) -> List[int]:
    """``"0-19"`` or ``"0,3,7"`` as a list of seeds."""
    out: List[int] = []
    for part in spec.split(","):
        lo, sep, hi = part.partition("-")
        out.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return out
