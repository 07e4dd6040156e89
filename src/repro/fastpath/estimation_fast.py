"""Vectorized size-estimation trials (experiment E4 at scale).

One estimation run for a class with ``n̂`` jobs needs only, per slot, the
*number* of simultaneous transmitters — a ``Binomial(n̂, 1/2^i)`` draw —
so thousands of independent runs reduce to a few binomial arrays.  The
estimate rule itself is shared verbatim with the stepwise protocol via
:func:`repro.core.estimation.resolve_estimate`, so the fast path cannot
drift from the real protocol's semantics (tests also cross-validate the
distributions).
"""

from __future__ import annotations

import numpy as np

from repro.core.estimation import resolve_estimate
from repro.errors import InvalidParameterError
from repro.params import AlignedParams

__all__ = ["simulate_estimation_fast", "estimation_success_counts"]


def estimation_success_counts(
    n_jobs: int,
    level: int,
    params: AlignedParams,
    rng: np.random.Generator,
    *,
    n_trials: int = 1,
    p_jam: float = 0.0,
) -> np.ndarray:
    """Per-phase success counts for many independent estimation runs.

    Returns an ``(n_trials, level)`` int array: entry ``[t, i-1]`` is the
    number of slots of phase ``i`` in trial ``t`` that carried a
    successful (exactly-one-transmitter, un-jammed) transmission.
    """
    if n_jobs < 0:
        raise InvalidParameterError(f"n_jobs must be >= 0, got {n_jobs}")
    if level < 0:
        raise InvalidParameterError(f"level must be >= 0, got {level}")
    if not 0.0 <= p_jam <= 1.0:
        raise InvalidParameterError(f"p_jam must be in [0, 1], got {p_jam}")
    phase_len = params.lam * level
    counts = np.zeros((n_trials, level), dtype=np.int64)
    for i in range(1, level + 1):
        p = 1.0 / (1 << i)
        # number of transmitters per slot, per trial
        tx = rng.binomial(n_jobs, p, size=(n_trials, phase_len))
        ok = tx == 1
        if p_jam > 0.0:
            ok &= rng.random((n_trials, phase_len)) >= p_jam
        counts[:, i - 1] = ok.sum(axis=1)
    return counts


def simulate_estimation_fast(
    n_jobs: int,
    level: int,
    params: AlignedParams,
    rng: np.random.Generator,
    *,
    n_trials: int = 1,
    p_jam: float = 0.0,
) -> np.ndarray:
    """Resolved estimates ``n_ℓ`` for many independent estimation runs.

    Returns an ``(n_trials,)`` int array of estimates (0 = "class looks
    empty"), each produced by the exact rule of the stepwise protocol.
    """
    counts = estimation_success_counts(
        n_jobs, level, params, rng, n_trials=n_trials, p_jam=p_jam
    )
    return np.array(
        [
            resolve_estimate(list(counts[t]), params.tau, level)
            for t in range(n_trials)
        ],
        dtype=np.int64,
    )
