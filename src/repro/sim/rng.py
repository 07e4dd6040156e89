"""Deterministic, independent random streams for reproducible simulation.

Every stochastic component of a simulation (each job's protocol, the
jammer, each workload generator) draws from its own ``numpy`` generator.
The stream of ``(label, index)`` under root seed ``seed`` is ``PCG64``
seeded by ``SeedSequence(seed, spawn_key=_label_key(label) + (index,))``.
Two consequences:

* a simulation is exactly reproducible from ``(instance, seed)``;
* changing one component's number of draws (e.g. turning jamming on) does
  not perturb any other component's stream, so paired comparisons across
  configurations share randomness where it matters.

Block-derived job streams
-------------------------
Every job draws from a private ``"job"`` stream, so both engines and the
UNIFORM kernel build one stream per job, and a ``SeedSequence`` costs
~28 µs, a third of a short job.  :meth:`RngFactory.prepare` derives a
block of ids at once, bit-identically.  For a fixed seed and label,
SeedSequence's entropy pool is a constant once it has mixed every word
but the last, the index: that prefix is computed once per (seed,
label), and the rest (mixing in the index word, then ``generate_state(4,
uint64)``) runs for the whole block in ``uint64`` numpy arithmetic
masked to 32 bits.  :meth:`RngFactory.fresh` hands held words to
``PCG64`` through :class:`_DerivedSeed` (~2 µs a stream) and otherwise
takes the ``SeedSequence`` path, which stays the reference.
"""

from __future__ import annotations

import functools
import hashlib
from collections import deque
from typing import Deque, Dict, Iterable, List, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["PREPARE_BLOCK", "RngFactory"]

#: Ids the engines prepare at a time; a factory holds at most two blocks.
PREPARE_BLOCK = 256

# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


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


def _hash_consts(init: int, mult: int, n: int) -> Tuple[List[int], List[int]]:
    """The xor and multiplier constants of ``n`` SeedSequence hash steps.

    A step xors the value with a running 32-bit constant (starting at
    ``init``), advances the constant by ``mult`` and multiplies the value
    by the new constant.
    """
    xor, mul = [], []
    for _ in range(n):
        xor.append(init)
        init = init * mult & _MASK32
        mul.append(init)
    return xor, mul


def _column(words: List[int]) -> np.ndarray:
    return np.array(words, dtype=np.uint64)[:, None]


# generate_state(4, uint64) reads the pool twice, in this order, through
# a hash whose constants start at _INIT_B whatever the pool holds.
_OUT_POOL = [0, 1, 2, 3, 0, 1, 2, 3]
_OUT_XOR, _OUT_MUL = map(_column, _hash_consts(_INIT_B, _MULT_B, 8))


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


@functools.lru_cache(maxsize=64)
def _pool_prefix(seed: int, label: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SeedSequence's state for ``(seed, label)`` before the index word.

    Replays ``mix_entropy`` over the seed words (padded to the pool
    size, as for any spawned sequence) and the label key.  Returns, as
    ``(4, 1)`` columns: each pool word times ``_MIX_MULT_L``, and the
    xor and multiplier of the four hash steps that mix the index word
    into the pool, one per pool word.
    """
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (4 - len(entropy))
    entropy += _label_key(label)
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    scaled = [_MIX_MULT_L * p & _MASK32 for p in pool]
    xor, mul = _hash_consts(const, _MULT_A, 4)
    return _column(scaled), _column(xor), _column(mul)


def _derive(seed: int, label: str, ids: np.ndarray) -> np.ndarray:
    """One row per id in ``ids`` (``uint64``, each below 2**32): the
    ``generate_state(4, np.uint64)`` of that id's ``SeedSequence``."""
    pool, xor, mul = _pool_prefix(seed, label)
    v = (ids ^ xor) * mul & _MASK32  # hashmix(index), once per pool word
    v ^= v >> 16
    p = (pool - _MIX_MULT_R * v) & _MASK32  # mix(pool word, hashmix)
    p ^= p >> 16
    w = (p[_OUT_POOL] ^ _OUT_XOR) * _OUT_MUL & _MASK32
    w ^= w >> 16
    return np.ascontiguousarray((w[0::2] | w[1::2] << 32).T)


class _DerivedSeed(ISeedSequence):
    """Seeds ``PCG64`` with words :func:`_derive` computed.

    It holds only the four ``uint64`` words ``PCG64`` asks for, so it
    serves that one request (and cannot spawn).  The words are a row of
    a prepared block, which a live generator keeps alive (8 KiB).  It
    travels in pickled generators, so stream checkpoints carry it.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self.words
        raise ValueError(
            "a block-derived stream holds the 4 uint64 words PCG64 seeds from"
        )


class RngFactory:
    """Spawns named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root entropy, a non-negative integer.  Equal seeds yield
        identical streams for identical labels, regardless of creation
        order.

    Examples
    --------
    >>> f = RngFactory(7)
    >>> a = f.stream("job", 3)
    >>> b = RngFactory(7).stream("job", 3)
    >>> float(a.random()) == float(b.random())
    True

    A pickled factory keeps its :meth:`stream` generators and drops the
    words :meth:`prepare` holds.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        if self.seed < 0:
            # SeedSequence's own error, raised before any stream is built.
            raise ValueError("expected non-negative integer")
        self._cache: Dict[tuple, np.random.Generator] = {}
        # Blocks of (label, {index: words}) from prepare(), newest last.
        self._held: Deque[Tuple[str, Dict[int, np.ndarray]]] = deque(maxlen=2)

    def __getstate__(self) -> dict:
        return {"seed": self.seed, "_cache": self._cache}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["seed"])
        self._cache = state["_cache"]

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

    def prepare(self, label: str, ids: Iterable[int]) -> None:
        """Derive the streams of ``(label, i)`` for every ``i`` in ``ids``
        in one block, for :meth:`fresh` to consume.

        Ids outside ``[0, 2**32)`` are skipped (:meth:`fresh` derives them
        the reference way).  Preparing a third block drops the oldest,
        with whatever of it :meth:`fresh` never consumed.
        """
        ids = [i for i in map(int, ids) if 0 <= i <= _MASK32]
        words = _derive(self.seed, label, np.array(ids, dtype=np.uint64))
        self._held.append((label, dict(zip(ids, words))))

    def fresh(self, label: str, index: int = 0) -> np.random.Generator:
        """A brand-new generator for the key (state reset to the origin).

        Unlike :meth:`stream`, this never returns a cached object.  It is
        the per-job path of both engines and the UNIFORM kernel: it takes
        the key's words from a :meth:`prepare` block when one holds them
        (each at most once), and otherwise builds the ``SeedSequence``.
        Both give the same generator state.
        """
        for held_label, block in self._held:
            if held_label == label:
                words = block.pop(index, None)
                if words is not None:
                    return np.random.Generator(np.random.PCG64(_DerivedSeed(words)))
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
