"""Memory-bounded stream summaries: reservoir samples and quantile sketches.

The closed-instance observability stack keeps *everything* — one
:class:`~repro.sim.metrics.JobOutcome` per job, one ``SlotRecord`` per
slot — which is exactly what an open-arrival streaming run cannot
afford: a sustained-load run processes millions of jobs and must hold
O(1) telemetry state.  This module provides the two bounded summaries
the streaming engine uses instead:

* :class:`ReservoirSampler` — a uniform sample of a stream (Algorithm R)
  with a deterministic private RNG, so runs reproduce bit-identically
  and checkpoints can snapshot the sampler mid-stream.  Used for
  *examples*: a representative set of raw latencies, shed jobs, etc.
* :class:`QuantileSketch` — a logarithmic-bucket quantile sketch in the
  style of DDSketch: every quantile estimate is within a documented
  *relative* error ``alpha`` of an actual stream value at that rank,
  the bucket count is bounded by the dynamic range (a few hundred
  buckets for any realistic latency range), and two sketches merge by
  adding bucket counts — which is what the sharded runner does.

Both are nan-safe in the same sense as :mod:`repro.obs.metrics`: NaN
inputs are ignored, and summaries of an empty stream are NaN rather
than an exception.  Both pickle, so checkpoints capture them exactly.

Error bound (:class:`QuantileSketch`)
-------------------------------------
Positive values are mapped to bucket ``i = ceil(log_gamma(x))`` with
``gamma = (1 + alpha) / (1 - alpha)``; the bucket's representative
value ``2 * gamma^i / (gamma + 1)`` is within a factor ``1 ± alpha`` of
every value stored in it.  :meth:`QuantileSketch.quantile` therefore
returns an estimate ``v`` such that there is a true stream value ``x``
of rank ``⌈q·n⌉`` with ``|v - x| <= alpha * x``.  The estimate is
additionally clamped to the exact observed ``[min, max]``, so extreme
quantiles of tiny streams never leave the data range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["ReservoirSampler", "QuantileSketch"]


class ReservoirSampler:
    """A uniform fixed-size sample of an unbounded stream (Algorithm R).

    Parameters
    ----------
    capacity:
        Maximum number of retained samples.
    seed:
        Seeds the sampler's private generator.  Replacement decisions
        draw *only* from this stream, so attaching a sampler to a
        simulation never perturbs simulation randomness, and equal
        seeds replay identical retention decisions.
    """

    __slots__ = ("capacity", "_rng", "_items", "n_offered")

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity <= 0:
            raise InvalidParameterError(
                f"capacity must be positive, got {capacity}"
            )
        self.capacity = int(capacity)
        self._rng = np.random.default_rng(seed)
        self._items: List[float] = []
        self.n_offered = 0

    def offer(self, value: float) -> None:
        """Offer one value; NaN is ignored (nan-safe like repro.obs)."""
        v = float(value)
        if math.isnan(v):
            return
        self.n_offered += 1
        if len(self._items) < self.capacity:
            self._items.append(v)
            return
        j = int(self._rng.integers(0, self.n_offered))
        if j < self.capacity:
            self._items[j] = v

    def extend(self, values: Sequence[float]) -> None:
        for v in values:
            self.offer(v)

    @property
    def values(self) -> np.ndarray:
        """The current sample (order is an implementation detail)."""
        return np.asarray(self._items, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._items)

    def quantile(self, q: float) -> float:
        """Empirical quantile of the sample (NaN when empty)."""
        if not self._items:
            return float("nan")
        return float(np.quantile(np.asarray(self._items), q))

    def merge(self, other: "ReservoirSampler") -> None:
        """Fold ``other`` into this sampler (shard merge).

        Each retained slot is drawn from the two reservoirs with
        probability proportional to their offered counts, which keeps
        the merged reservoir an (approximately) uniform sample of the
        concatenated streams.  Draws come from *this* sampler's private
        stream, so merges are deterministic given merge order.
        """
        if other.n_offered == 0:
            return
        if self.n_offered == 0:
            self._items = list(other._items)
            self.n_offered = other.n_offered
            return
        total = self.n_offered + other.n_offered
        pool_self = list(self._items)
        pool_other = list(other._items)
        k = min(self.capacity, len(pool_self) + len(pool_other))
        merged: List[float] = []
        for _ in range(k):
            take_self = (
                pool_self
                and (
                    not pool_other
                    or self._rng.random() < self.n_offered / total
                )
            )
            pool = pool_self if take_self else pool_other
            j = int(self._rng.integers(0, len(pool)))
            merged.append(pool.pop(j))
        self._items = merged
        self.n_offered = total

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ReservoirSampler(capacity={self.capacity}, "
            f"held={len(self._items)}, offered={self.n_offered})"
        )


@dataclass
class QuantileSketch:
    """A mergeable log-bucket quantile sketch with relative error ``alpha``.

    See the module docstring for the error bound.  State is a dict of
    bucket counts plus exact ``count`` / ``min`` / ``max``, so memory is
    bounded by the dynamic range of the stream, not its length, and two
    sketches with the same ``alpha`` merge exactly (bucket counts add).
    """

    alpha: float = 0.01
    _buckets: Dict[int, int] = field(default_factory=dict)
    count: int = 0
    zero_count: int = 0
    _min: float = math.inf
    _max: float = -math.inf

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise InvalidParameterError(
                f"alpha must be in (0, 1), got {self.alpha}"
            )
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self._gamma)

    def __getstate__(self):
        return {
            "alpha": self.alpha,
            "_buckets": self._buckets,
            "count": self.count,
            "zero_count": self.zero_count,
            "_min": self._min,
            "_max": self._max,
        }

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self._gamma)

    def offer(self, value: float) -> None:
        """Offer one value; NaN is ignored, non-positive values go to a
        dedicated zero bucket (latencies are >= 1, so this is a guard,
        not a hot path)."""
        v = float(value)
        if math.isnan(v):
            return
        self.count += 1
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v
        if v <= 0.0:
            self.zero_count += 1
            return
        idx = math.ceil(math.log(v) / self._log_gamma)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def extend(self, values: Sequence[float]) -> None:
        for v in values:
            self.offer(v)

    @property
    def n_buckets(self) -> int:
        """Occupied buckets — the sketch's memory footprint."""
        return len(self._buckets)

    def quantile(self, q: float) -> float:
        """The q-quantile estimate (NaN when the sketch is empty)."""
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zero_count:
            return min(0.0, self._max)
        seen = self.zero_count
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= rank:
                g = self._gamma
                est = 2.0 * (g ** idx) / (g + 1.0)
                return float(min(max(est, self._min), self._max))
        return float(self._max)

    def quantiles(self, qs: Sequence[float]) -> Dict[float, float]:
        return {q: self.quantile(q) for q in qs}

    def merge(self, other: "QuantileSketch") -> None:
        """Add ``other``'s buckets into this sketch (exact for equal alpha)."""
        if not math.isclose(self.alpha, other.alpha):
            raise InvalidParameterError(
                f"cannot merge sketches with alpha {self.alpha} and "
                f"{other.alpha}"
            )
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n
        self.count += other.count
        self.zero_count += other.zero_count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"QuantileSketch(alpha={self.alpha:g}, count={self.count}, "
            f"buckets={self.n_buckets})"
        )
