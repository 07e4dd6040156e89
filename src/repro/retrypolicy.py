"""The shared transient-failure retry policy: backoff, cap, jitter.

Three layers of this codebase retry work that died for reasons unrelated
to its inputs — a worker OOM-killed under a process pool, a pool broken
by a signal, a campaign cell whose executor crashed:

* :func:`repro.experiments.parallel.run_seeds` re-runs failed seeds and
  :func:`repro.stream.shard.run_stream_shards` crashed shards, both in
  the one retry loop of the shared pool, :func:`repro.pool.run_all`;
* the campaign orchestrator (:mod:`repro.campaign.run`) re-runs cells.

They must share one policy, or the system's behavior under a recovering
resource becomes the union of three slightly different curves.  The rule
lives here, once:

* **exponential backoff** — attempt ``k`` waits ``base * 2**(k-1)``;
* **a hard cap** (:data:`BACKOFF_CAP_SECONDS`) — unbounded exponential
  growth past ~10s only delays recovery; transient faults either clear
  within seconds or need human attention anyway;
* **multiplicative jitter** — the computed delay is scaled by a uniform
  0.5-1.5x draw so many callers sharing one recovering resource do not
  retry in synchronized waves (the same thundering-herd argument the
  paper's backoff protocols make about channel contention).

:class:`RetryPolicy` is a frozen dataclass, so it is picklable, foldable
into :func:`repro.cache.stable_digest` content keys, and cheap to embed
in specs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["BACKOFF_CAP_SECONDS", "RetryPolicy"]

#: Upper bound on one retry-backoff sleep, in seconds.
BACKOFF_CAP_SECONDS = 10.0


@dataclass(frozen=True)
class RetryPolicy:
    """How (and how often) to re-run transiently failed work.

    Parameters
    ----------
    retries:
        How many times failed work may be re-run (``0`` = fail fast).
    base_backoff:
        First-retry delay in seconds; attempt ``k`` backs off
        ``base_backoff * 2**(k-1)``, capped at ``cap_seconds``.
        ``0`` disables sleeping entirely (what unit tests want).
    cap_seconds:
        Hard ceiling on one sleep (:data:`BACKOFF_CAP_SECONDS`).
    jitter:
        Scale each delay by a uniform draw from
        ``[1 - jitter, 1 + jitter]``.  The default ``0.5`` reproduces
        the historical 0.5-1.5x rule; ``0`` makes delays deterministic.
    """

    retries: int = 0
    base_backoff: float = 0.25
    cap_seconds: float = BACKOFF_CAP_SECONDS
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.base_backoff < 0:
            raise ValueError("base_backoff must be >= 0")
        if self.cap_seconds < 0:
            raise ValueError("cap_seconds must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")

    def should_retry(self, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based failures so far)
        may be followed by another try."""
        return attempt <= self.retries

    def delay(self, attempt: int, rand: Optional[Callable[[], float]] = None) -> float:
        """The sleep before retry ``attempt`` (1-based), jitter applied.

        ``rand`` is a ``random()``-like source for tests; the module
        default is :func:`random.random`.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        if self.base_backoff <= 0:
            return 0.0
        raw = min(self.base_backoff * (2 ** (attempt - 1)), self.cap_seconds)
        if self.jitter <= 0:
            return raw
        draw = (rand if rand is not None else random.random)()
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * draw)

    def sleep(self, attempt: int) -> float:
        """Sleep for :meth:`delay` seconds; returns the slept duration."""
        d = self.delay(attempt)
        if d > 0:
            time.sleep(d)
        return d
