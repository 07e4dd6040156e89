"""Content-addressed on-disk cache for simulation results.

Every Monte-Carlo run in this repo is deterministic in
``(instance, protocol, jammer, seed, engine version)``; re-running a
sweep after an unrelated code change repeats exactly the same work.  This
module gives that work a stable address:

* :func:`stable_digest` walks a Python object graph (dataclasses, numpy
  arrays, closures with their cell contents, partials, plain containers)
  and produces a sha256 hex digest that is stable across processes and
  interpreter runs — unlike ``hash()``/``pickle`` it never folds in
  memory addresses or per-process randomization;
* :func:`run_key` combines the simulation inputs with
  :data:`repro.sim.engine.ENGINE_VERSION` into one digest, so any change
  to engine semantics invalidates every cached entry automatically;
* :class:`ResultCache` maps digests to small pickled records (the
  :class:`~repro.experiments.parallel.SeedDigest` sized results that the
  experiment layer ships between processes) under a cache root, with
  atomic writes and corrupted-entry recovery (a bad entry is deleted and
  reported as a miss — caching may never change results or crash a run).

The experiment layer (:func:`repro.experiments.parallel.run_seeds`,
:class:`repro.experiments.sweep.Sweep`,
:func:`repro.experiments.compare.compare_protocols`) accepts a ``cache=``
knob: ``None``/``False`` disables caching, ``True`` uses the default
root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), a path string or
:class:`ResultCache` selects an explicit root.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from repro.durable import write_atomic
from repro.sim.engine import ENGINE_VERSION

__all__ = [
    "CACHE_FORMAT",
    "ResultCache",
    "as_cache",
    "default_cache_root",
    "run_key",
    "run_key_batch",
    "stable_digest",
]

#: Bump when the stored record layout changes (keys then stop matching).
#: 2: SeedDigest grew ``watchdog_reason`` (run-watchdog support).
#: 3: SeedDigest grew ``attempts_sum`` (channel-access energy).
CACHE_FORMAT = 3


# ---------------------------------------------------------------------------
# stable content digests
# ---------------------------------------------------------------------------


def _feed(h, obj: Any, seen: set) -> None:
    """Recursively mix ``obj`` into hash ``h`` in a canonical encoding.

    Every branch writes a type tag before its payload so that e.g. the
    string ``"1"`` and the integer ``1`` cannot collide.  Cycles are cut
    with an identity set (the first visit hashes the content; re-visits
    hash a marker).
    """
    if obj is None:
        h.update(b"N")
        return
    if obj is True or obj is False:
        h.update(b"T" if obj else b"F")
        return
    t = type(obj)
    if t is int:
        h.update(b"i%d;" % obj)
        return
    if t is float:
        h.update(b"f")
        h.update(obj.hex().encode())
        return
    if t is str:
        b = obj.encode("utf-8")
        h.update(b"s%d;" % len(b))
        h.update(b)
        return
    if t is bytes:
        h.update(b"b%d;" % len(obj))
        h.update(obj)
        return
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        _feed(h, obj.item(), seen)
        return

    oid = id(obj)
    if oid in seen:
        h.update(b"R")  # already on the walk stack: cycle marker
        return
    seen.add(oid)
    try:
        if t is tuple or t is list:
            h.update(b"(" if t is tuple else b"[")
            h.update(b"%d;" % len(obj))
            for item in obj:
                _feed(h, item, seen)
            return
        if t is dict:
            items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
            h.update(b"{%d;" % len(items))
            for k, v in items:
                _feed(h, k, seen)
                _feed(h, v, seen)
            return
        if t in (set, frozenset):
            h.update(b"<%d;" % len(obj))
            for item in sorted(obj, key=repr):
                _feed(h, item, seen)
            return
        if isinstance(obj, enum.Enum):
            h.update(b"E")
            _feed(h, type(obj).__qualname__, seen)
            _feed(h, obj.name, seen)
            return
        if isinstance(obj, np.ndarray):
            h.update(b"A")
            _feed(h, str(obj.dtype), seen)
            _feed(h, obj.shape, seen)
            h.update(np.ascontiguousarray(obj).tobytes())
            return
        if isinstance(obj, functools.partial):
            h.update(b"P")
            _feed(h, obj.func, seen)
            _feed(h, obj.args, seen)
            _feed(h, obj.keywords, seen)
            return
        if callable(obj) and hasattr(obj, "__qualname__"):
            # Function / method: identity is module + qualname, plus any
            # captured state (defaults and closure cells) so two closures
            # from one factory with different parameters digest apart.
            h.update(b"C")
            _feed(h, getattr(obj, "__module__", ""), seen)
            _feed(h, obj.__qualname__, seen)
            _feed(h, getattr(obj, "__defaults__", None), seen)
            closure = getattr(obj, "__closure__", None)
            if closure:
                for cell in closure:
                    _feed(h, cell.cell_contents, seen)
            self_obj = getattr(obj, "__self__", None)
            if self_obj is not None:
                _feed(h, self_obj, seen)
            return
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            h.update(b"D")
            _feed(h, type(obj).__qualname__, seen)
            for f in dataclasses.fields(obj):
                _feed(h, f.name, seen)
                _feed(h, getattr(obj, f.name), seen)
            return
        # Generic object: class identity plus visible state.
        h.update(b"O")
        _feed(h, type(obj).__module__, seen)
        _feed(h, type(obj).__qualname__, seen)
        state = getattr(obj, "__dict__", None)
        if state:
            _feed(h, state, seen)
        for klass in type(obj).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot.startswith("__"):
                    continue
                try:
                    _feed(h, (slot, getattr(obj, slot)), seen)
                except AttributeError:
                    continue
    finally:
        seen.discard(oid)


def stable_digest(obj: Any) -> str:
    """A sha256 hex digest of ``obj``'s content, stable across processes."""
    h = hashlib.sha256()
    _feed(h, obj, set())
    return h.hexdigest()


def run_key(
    *,
    instance: Any,
    protocol: Any,
    jammer: Any = None,
    seed: int = 0,
    faults: Any = None,
    extra: Any = None,
) -> str:
    """The cache key of one simulation run.

    ``protocol`` may be anything that pins down the protocol content —
    a factory callable (closures digest their captured parameters), a
    params dataclass, or a builder object.  ``extra`` lets callers fold
    in additional context (e.g. a digest-record schema version).

    ``faults`` is an optional :class:`repro.faults.FaultPlan`.  It is
    folded into the key only when set and not a no-op, so every key
    minted before fault injection existed — and every clean run since —
    keeps its address, while a faulted run can never collide with a
    clean one.  Stateful jammers (inside the plan or passed via
    ``jammer=``) are :meth:`~repro.channel.jamming.Jammer.reset` before
    digesting, so a jammer that already ran digests identically to a
    fresh one (the engine resets it again before simulating anyway).
    """
    reset = getattr(jammer, "reset", None)
    if callable(reset):
        reset()
    if faults is not None:
        if getattr(faults, "is_noop", False):
            faults = None  # the engine ignores no-op plans; so do keys
        else:
            reset = getattr(faults, "reset", None)
            if callable(reset):
                reset()
    key: tuple = (
        "repro-run",
        ENGINE_VERSION,
        CACHE_FORMAT,
        instance,
        protocol,
        jammer,
        int(seed),
        extra,
    )
    if faults is not None:
        key = key + ("faults", faults)
    return stable_digest(key)


def run_key_batch(
    *,
    instance: Any,
    protocol: Any,
    seeds: Any,
    jammer: Any = None,
    faults: Any = None,
    extra: Any = None,
) -> list:
    """:func:`run_key` for many seeds, hashing the shared prefix once.

    Returns ``[run_key(..., seed=s, ...) for s in seeds]`` — the keys are
    *string-equal* to per-seed calls — but the instance/protocol/jammer
    walk (by far the expensive part for a large instance) happens once:
    the common tuple prefix is fed into one hasher, which is then forked
    per seed with ``hash.copy()``.

    Feeding the prefix element-by-element with a fresh ``seen`` set per
    element matches :func:`stable_digest` on the whole tuple because the
    cycle-cut set only retains objects for the duration of their own
    walk (every entry is discarded on the way out), so no state crosses
    element boundaries.
    """
    reset = getattr(jammer, "reset", None)
    if callable(reset):
        reset()
    if faults is not None:
        if getattr(faults, "is_noop", False):
            faults = None
        else:
            reset = getattr(faults, "reset", None)
            if callable(reset):
                reset()
    prefix = (
        "repro-run",
        ENGINE_VERSION,
        CACHE_FORMAT,
        instance,
        protocol,
        jammer,
    )
    n_elems = len(prefix) + 2 + (2 if faults is not None else 0)
    h = hashlib.sha256()
    h.update(b"(")
    h.update(b"%d;" % n_elems)
    for item in prefix:
        _feed(h, item, set())
    keys = []
    for s in seeds:
        hs = h.copy()
        _feed(hs, int(s), set())
        _feed(hs, extra, set())
        if faults is not None:
            _feed(hs, "faults", set())
            _feed(hs, faults, set())
        keys.append(hs.hexdigest())
    return keys


# ---------------------------------------------------------------------------
# on-disk store
# ---------------------------------------------------------------------------


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class ResultCache:
    """A content-addressed pickle store under one directory.

    Entries live at ``<root>/<key[:2]>/<key>.pkl`` (two-level fan-out to
    keep directories small).  All operations are safe against concurrent
    writers: writes go through :func:`repro.durable.write_atomic`, and
    unreadable entries are treated as misses and deleted.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Any]:
        """The stored value, or ``None`` on a miss or corrupted entry."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as f:
                value = pickle.load(f)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupted / truncated / unreadable: recover by recomputing.
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically."""
        write_atomic(
            self.path_for(key),
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self.puts += 1

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        n = 0
        if self.root.is_dir():
            for p in self.root.glob("*/*.pkl"):
                try:
                    p.unlink()
                    n += 1
                except OSError:
                    pass
        return n

    def stats(self) -> str:
        return (
            f"ResultCache({self.root}): {self.hits} hits, "
            f"{self.misses} misses, {self.puts} writes"
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ResultCache(root={str(self.root)!r})"


def as_cache(
    cache: Union[None, bool, str, Path, ResultCache]
) -> Optional[ResultCache]:
    """Coerce the public ``cache=`` knob into a :class:`ResultCache`.

    ``None``/``False`` → disabled; ``True`` → default root; a path →
    cache rooted there; a :class:`ResultCache` passes through.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
