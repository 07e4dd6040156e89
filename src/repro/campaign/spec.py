"""Declarative campaign specs: a grid of cells compiled from YAML/JSON.

A *campaign* is the cross product ``workloads x protocols x adversaries``
with a shared seed range — the whole measurement grid behind a figure or
a claim, written down declaratively so it can be planned, diffed against
caches, executed, killed, and resumed without anyone re-typing CLI
flags.  This module owns the spec side of that pipeline:

* :class:`CampaignSpec` — the parsed, validated spec
  (:meth:`CampaignSpec.from_file` reads YAML or JSON by suffix);
* :meth:`CampaignSpec.cells` — the expanded grid, one
  :class:`CampaignCell` per combination, in a deterministic order;
* :meth:`CampaignSpec.digest` — a content address of everything that
  defines cell identity, written into the campaign state file's header
  so a resume against an edited grid is refused instead of silently
  mixing two campaigns.

Cells carry *builders*, not built objects: :class:`GridWorkload` and
:class:`GridProtocol` are frozen, picklable dataclasses that resolve
names through :mod:`repro.registry` when called.  That keeps cells
cheap to enumerate, safe to ship to worker processes, and — crucially —
digestible even when building would fail: a cell whose workload raises
still has a stable key, so it can be retried, quarantined, and reported
like any other (see the ``poison`` chaos workload below).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.cache import stable_digest
from repro.channel.jamming import Jammer
from repro.errors import InvalidParameterError
from repro.experiments.robustness import FAULT_FAMILIES, fault_plan
from repro.faults.plan import FaultPlan
from repro.registry import PROTOCOLS, WORKLOADS, build_workload, protocol_factory
from repro.sim.engine import ProtocolFactory
from repro.sim.instance import Instance
from repro.sim.watchdog import Watchdog

__all__ = [
    "SPEC_SCHEMA",
    "AdversarySpec",
    "CampaignCell",
    "CampaignSpec",
    "GridProtocol",
    "GridWorkload",
    "POISON_WORKLOAD",
]

#: Version of the spec schema (folded into :meth:`CampaignSpec.digest`).
SPEC_SCHEMA = 1

#: Reserved workload name that fails deterministically when built.
#:
#: Campaign crash tests need a cell that *always* fails so quarantine
#: can be exercised end to end; ``poison`` is that cell.  It is handled
#: here — not in :mod:`repro.registry` — so ordinary CLI users never see
#: it among the real workloads.
POISON_WORKLOAD = "poison"


def _items(params: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """A mapping as a sorted, hashable, digest-stable tuple of pairs."""
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class GridWorkload:
    """A named workload plus its knobs, as a picklable builder.

    Calling it resolves the name through
    :func:`repro.registry.build_workload`; the reserved
    :data:`POISON_WORKLOAD` name raises instead (deterministically), so
    campaigns can carry an always-failing cell for chaos tests.
    """

    items: Tuple[Tuple[str, Any], ...]

    @property
    def params(self) -> Dict[str, Any]:
        """The knob mapping this builder was declared with."""
        return dict(self.items)

    @property
    def name(self) -> str:
        """The workload's registry name."""
        return str(self.params.get("workload", "batch"))

    def __call__(self) -> Instance:
        if self.name == POISON_WORKLOAD:
            raise RuntimeError(
                "poison workload: this cell fails deterministically "
                "(campaign chaos knob)"
            )
        return build_workload(self.params)


@dataclass(frozen=True)
class GridProtocol:
    """A named protocol plus shared knobs, as a picklable factory builder.

    Calling it with an instance resolves the name through
    :func:`repro.registry.protocol_factory` — the same dispatch the CLI
    uses — so a campaign's ``"punctual"`` is byte-identical to the CLI's.
    """

    name: str
    items: Tuple[Tuple[str, Any], ...]

    @property
    def params(self) -> Dict[str, Any]:
        """The knob mapping this builder was declared with."""
        return dict(self.items)

    def __call__(self, instance: Instance) -> ProtocolFactory:
        return protocol_factory(self.name, self.params, instance)


@dataclass(frozen=True)
class AdversarySpec:
    """One adversary column of the grid: a fault family at a severity.

    ``severity <= 0`` is the clean channel (no faults, label ``none``);
    otherwise the plan comes from
    :func:`repro.experiments.robustness.fault_plan`, so campaign
    adversaries mean exactly what degradation profiles mean.
    """

    family: str = "jam"
    severity: float = 0.0

    @property
    def label(self) -> str:
        """Short human-readable name (``none`` or ``family@severity``)."""
        if self.severity <= 0.0:
            return "none"
        return f"{self.family}@{self.severity:g}"

    def faults(self) -> Optional[FaultPlan]:
        """The cell's :class:`FaultPlan`, or ``None`` on a clean channel."""
        if self.severity <= 0.0:
            return None
        return fault_plan(self.family, self.severity)

    def jammer(self) -> Optional[Jammer]:
        """Always ``None``: campaign adversaries travel inside the plan."""
        return None


@dataclass(frozen=True)
class CampaignCell:
    """One cell of the expanded grid: everything one run needs.

    The cell's :meth:`key` digests the *builders* (workload, protocol,
    adversary, seeds, fastpath) — not built objects — so it is stable
    across processes and defined even for cells that cannot build.
    """

    index: int
    workload: GridWorkload
    protocol: GridProtocol
    adversary: AdversarySpec
    seeds: Tuple[int, ...]
    fastpath: str = "off"
    timeout_seconds: Optional[float] = None

    def label(self) -> str:
        """Human-readable cell name for reports and logs."""
        return (
            f"{self.workload.name}/{self.protocol.name}"
            f"/{self.adversary.label}"
        )

    def watchdog(self) -> Optional[Watchdog]:
        """The per-cell wall-clock watchdog; ``None`` without a timeout."""
        if self.timeout_seconds is None:
            return None
        return Watchdog(max_seconds=self.timeout_seconds)

    def key(self) -> str:
        """Content address of this cell within its campaign."""
        return stable_digest(
            (
                "campaign-cell",
                SPEC_SCHEMA,
                self.workload,
                self.protocol,
                self.adversary,
                self.seeds,
                self.fastpath,
                self.timeout_seconds,
            )
        )


def _as_workload(entry: Union[str, Mapping[str, Any]], knobs: Mapping[str, Any]) -> GridWorkload:
    if isinstance(entry, str):
        merged: Dict[str, Any] = dict(knobs)
        merged["workload"] = entry
    elif isinstance(entry, Mapping):
        merged = dict(knobs)
        merged.update(entry)
        merged.setdefault("workload", "batch")
    else:
        raise InvalidParameterError(
            f"workload entries must be names or mappings, got {entry!r}"
        )
    name = str(merged["workload"])
    if name != POISON_WORKLOAD and name not in WORKLOADS:
        raise InvalidParameterError(
            f"unknown workload: {name} (choices: {sorted(WORKLOADS)})"
        )
    return GridWorkload(items=_items(merged))


def _as_protocol(entry: Union[str, Mapping[str, Any]], knobs: Mapping[str, Any]) -> GridProtocol:
    if isinstance(entry, str):
        name, merged = entry, dict(knobs)
    elif isinstance(entry, Mapping):
        merged = dict(knobs)
        merged.update(entry)
        if "protocol" not in merged:
            raise InvalidParameterError(
                f"protocol mapping entries need a 'protocol' key: {entry!r}"
            )
        name = str(merged.pop("protocol"))
    else:
        raise InvalidParameterError(
            f"protocol entries must be names or mappings, got {entry!r}"
        )
    if name not in PROTOCOLS:
        raise InvalidParameterError(
            f"unknown protocol: {name} (choices: {sorted(PROTOCOLS)})"
        )
    return GridProtocol(name=name, items=_items(merged))


def _as_adversary(entry: Union[str, Mapping[str, Any]]) -> AdversarySpec:
    if entry in (None, "none", "clean"):
        return AdversarySpec()
    if isinstance(entry, Mapping):
        family = str(entry.get("family", "jam"))
        severity = float(entry.get("severity", 0.0))
    elif isinstance(entry, str):
        # "jam@0.5" shorthand
        if "@" not in entry:
            raise InvalidParameterError(
                f"adversary strings are 'none' or 'family@severity', "
                f"got {entry!r}"
            )
        family, _, sev = entry.partition("@")
        severity = float(sev)
    else:
        raise InvalidParameterError(
            f"adversary entries must be strings or mappings, got {entry!r}"
        )
    if severity > 0.0 and family not in FAULT_FAMILIES:
        raise InvalidParameterError(
            f"unknown fault family {family!r} "
            f"(choices: {sorted(FAULT_FAMILIES)})"
        )
    if not 0.0 <= severity <= 1.0:
        raise InvalidParameterError(
            f"severity must be in [0, 1], got {severity}"
        )
    return AdversarySpec(family=family, severity=severity)


@dataclass
class CampaignSpec:
    """A validated campaign: the grid plus how to run it.

    Grid-defining fields (workloads, protocols, adversaries, seeds,
    fastpath, timeout) are folded into :meth:`digest`; execution knobs
    (executor, workers, retries, paths, chaos) are not, so a campaign
    can be resumed with a different worker count or retry budget without
    tripping the state file's drift check.
    """

    name: str
    workloads: Tuple[GridWorkload, ...]
    protocols: Tuple[GridProtocol, ...]
    adversaries: Tuple[AdversarySpec, ...] = (AdversarySpec(),)
    seeds: int = 4
    seed_base: int = 0
    fastpath: str = "off"
    timeout_seconds: Optional[float] = None
    executor: str = "local"
    workers: int = 2
    retries: int = 1
    retry_backoff: float = 0.25
    cache: Optional[str] = None
    state: Optional[str] = None
    ledger: Optional[str] = None
    kill_after_cells: Optional[int] = None
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self) -> None:
        if not self.workloads:
            raise InvalidParameterError("campaign needs at least one workload")
        if not self.protocols:
            raise InvalidParameterError("campaign needs at least one protocol")
        if not self.adversaries:
            raise InvalidParameterError(
                "campaign needs at least one adversary (use 'none')"
            )
        if self.seeds < 1:
            raise InvalidParameterError(
                f"seeds must be >= 1, got {self.seeds}"
            )
        if self.fastpath not in ("off", "auto", "on"):
            raise InvalidParameterError(
                f"fastpath must be 'off', 'auto', or 'on', "
                f"got {self.fastpath!r}"
            )
        if self.executor not in ("local", "serial"):
            raise InvalidParameterError(
                f"executor must be 'local' or 'serial', got {self.executor!r}"
            )
        if self.workers < 1:
            raise InvalidParameterError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.retries < 0:
            raise InvalidParameterError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise InvalidParameterError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.kill_after_cells is not None and self.kill_after_cells < 1:
            raise InvalidParameterError(
                f"kill_after_cells must be >= 1, got {self.kill_after_cells}"
            )

    # -- paths ---------------------------------------------------------

    def _resolve(self, path: str) -> Path:
        p = Path(path)
        return p if p.is_absolute() else self.base_dir / p

    @property
    def state_path(self) -> Path:
        """Where the resumable campaign state lives (JSONL)."""
        if self.state is not None:
            return self._resolve(self.state)
        return self.base_dir / f"{self.name}.campaign.jsonl"

    @property
    def cache_path(self) -> Optional[Path]:
        """The result-cache root, or ``None`` for no caching."""
        return self._resolve(self.cache) if self.cache is not None else None

    @property
    def ledger_path(self) -> Optional[Path]:
        """The run-ledger path, or ``None`` to skip ledger records."""
        return self._resolve(self.ledger) if self.ledger is not None else None

    # -- grid ----------------------------------------------------------

    def seed_range(self) -> Tuple[int, ...]:
        """The seeds every cell runs."""
        return tuple(range(self.seed_base, self.seed_base + self.seeds))

    def cells(self) -> List[CampaignCell]:
        """The expanded grid in deterministic (workload-major) order."""
        seeds = self.seed_range()
        out: List[CampaignCell] = []
        combos = itertools.product(
            self.workloads, self.protocols, self.adversaries
        )
        for index, (w, p, a) in enumerate(combos):
            out.append(
                CampaignCell(
                    index=index,
                    workload=w,
                    protocol=p,
                    adversary=a,
                    seeds=seeds,
                    fastpath=self.fastpath,
                    timeout_seconds=self.timeout_seconds,
                )
            )
        return out

    def digest(self) -> str:
        """Content address of the grid (what a resume must match)."""
        return stable_digest(
            (
                "campaign-spec",
                SPEC_SCHEMA,
                self.workloads,
                self.protocols,
                self.adversaries,
                self.seeds,
                self.seed_base,
                self.fastpath,
                self.timeout_seconds,
            )
        )

    # -- parsing -------------------------------------------------------

    _EXEC_KEYS = (
        "executor",
        "workers",
        "retries",
        "retry_backoff",
        "cache",
        "state",
        "ledger",
    )

    @classmethod
    def from_dict(
        cls,
        raw: Mapping[str, Any],
        *,
        base_dir: Union[str, Path, None] = None,
    ) -> "CampaignSpec":
        """Build and validate a spec from a parsed mapping.

        Unknown top-level keys are rejected (a typo'd knob silently
        ignored is a campaign that measures the wrong thing).
        """
        if not isinstance(raw, Mapping):
            raise InvalidParameterError(
                f"campaign spec must be a mapping, got {type(raw).__name__}"
            )
        known = {f.name for f in fields(cls)} | {"knobs", "chaos"}
        known -= {"base_dir"}
        unknown = set(raw) - known
        if unknown:
            raise InvalidParameterError(
                f"unknown campaign spec keys: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        knobs = raw.get("knobs", {})
        if not isinstance(knobs, Mapping):
            raise InvalidParameterError(
                f"knobs must be a mapping, got {type(knobs).__name__}"
            )
        chaos = raw.get("chaos", {}) or {}
        if not isinstance(chaos, Mapping):
            raise InvalidParameterError(
                f"chaos must be a mapping, got {type(chaos).__name__}"
            )
        chaos_unknown = set(chaos) - {"kill_after_cells"}
        if chaos_unknown:
            raise InvalidParameterError(
                f"unknown chaos keys: {sorted(chaos_unknown)}"
            )
        kill_after = chaos.get("kill_after_cells")
        kwargs: Dict[str, Any] = {
            "name": str(raw.get("name", "campaign")),
            "workloads": tuple(
                _as_workload(e, knobs) for e in raw.get("workloads", [])
            ),
            "protocols": tuple(
                _as_protocol(e, knobs) for e in raw.get("protocols", [])
            ),
            "seeds": int(raw.get("seeds", 4)),
            "seed_base": int(raw.get("seed_base", 0)),
            "fastpath": str(raw.get("fastpath", "off")),
            "kill_after_cells": (
                int(kill_after) if kill_after is not None else None
            ),
            "base_dir": Path(base_dir) if base_dir is not None else Path(),
        }
        if "adversaries" in raw:
            kwargs["adversaries"] = tuple(
                _as_adversary(e) for e in raw["adversaries"]
            )
        if raw.get("timeout_seconds") is not None:
            kwargs["timeout_seconds"] = float(raw["timeout_seconds"])
        for key in cls._EXEC_KEYS:
            if key in raw and raw[key] is not None:
                value = raw[key]
                if key in ("workers", "retries"):
                    value = int(value)
                elif key == "retry_backoff":
                    value = float(value)
                else:
                    value = str(value)
                kwargs[key] = value
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Parse a spec file: YAML for ``.yaml``/``.yml``, else JSON.

        Relative ``cache``/``state``/``ledger`` paths in the spec
        resolve against the spec file's directory, so a campaign is a
        self-contained directory that can be moved or mounted anywhere.
        """
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise InvalidParameterError(
                f"cannot read campaign spec {path}: {exc}"
            ) from exc
        if path.suffix in (".yaml", ".yml"):
            import yaml

            try:
                raw = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise InvalidParameterError(
                    f"invalid YAML in {path}: {exc}"
                ) from exc
        else:
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise InvalidParameterError(
                    f"invalid JSON in {path}: {exc}"
                ) from exc
        if raw is None:
            raise InvalidParameterError(f"campaign spec {path} is empty")
        return cls.from_dict(raw, base_dir=path.parent)
