"""Deterministic, independent random streams for reproducible simulation.

Every stochastic component of a simulation (each job's protocol, the
jammer, each workload generator) draws from its own ``numpy`` generator,
derived from a single root seed via :class:`numpy.random.SeedSequence`
spawning keyed on a stable label.  Two consequences:

* a simulation is exactly reproducible from ``(instance, seed)``;
* changing one component's number of draws (e.g. turning jamming on) does
  not perturb any other component's stream, so paired comparisons across
  configurations share randomness where it matters.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Dict, Tuple

import numpy as np

__all__ = ["RngFactory"]


@functools.lru_cache(maxsize=256)
def _label_key(label: str) -> Tuple[int, int, int, int]:
    """A stable 128-bit key for a stream label, as four 32-bit words.

    Derived with blake2b over the label's UTF-8 bytes.  Earlier versions
    used ``crc32`` (32 bits): two distinct labels collide with
    probability ~``k²/2³³`` across ``k`` labels, and a collision makes
    two "independent" streams *bit-identical* — silently correlating a
    job's protocol with, say, a fault stream.  128 bits puts collisions
    out of reach.  Changing the key derivation changes every stream, so
    the switch bumped :data:`repro.sim.engine.ENGINE_VERSION`.  Labels
    are a handful of constants, so keys are cached: every job's stream
    would otherwise re-hash its label.
    """
    digest = hashlib.blake2b(
        label.encode("utf-8"), digest_size=16, person=b"repro-rng-v1"
    ).digest()
    return tuple(
        int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
    )


class RngFactory:
    """Spawns named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root entropy.  Equal seeds yield identical streams for identical
        labels, regardless of creation order.

    Examples
    --------
    >>> f = RngFactory(7)
    >>> a = f.stream("job", 3)
    >>> b = RngFactory(7).stream("job", 3)
    >>> float(a.random()) == float(b.random())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._root = np.random.SeedSequence(self.seed)
        self._cache: Dict[tuple, np.random.Generator] = {}

    def stream(self, label: str, index: int = 0) -> np.random.Generator:
        """The generator for ``(label, index)``.

        Repeated calls with the same key return the *same* generator
        object (its state advances across calls); use distinct keys for
        independent streams.
        """
        key = (label, int(index))
        gen = self._cache.get(key)
        if gen is None:
            seq = np.random.SeedSequence(
                self.seed, spawn_key=_label_key(label) + (int(index),)
            )
            gen = np.random.default_rng(seq)
            self._cache[key] = gen
        return gen

    def fresh(self, label: str, index: int = 0) -> np.random.Generator:
        """A brand-new generator for the key (state reset to the origin).

        Unlike :meth:`stream`, this never returns a cached object; used by
        tests that need to replay a component's draws.
        """
        seq = np.random.SeedSequence(
            self.seed, spawn_key=_label_key(label) + (int(index),)
        )
        return np.random.default_rng(seq)

    def job_rng(self, job_id: int) -> np.random.Generator:
        """The protocol stream of job ``job_id``."""
        return self.stream("job", job_id)

    def channel_rng(self) -> np.random.Generator:
        """The jammer/channel stream."""
        return self.stream("channel")

    def workload_rng(self, index: int = 0) -> np.random.Generator:
        """A workload-generation stream."""
        return self.stream("workload", index)
