"""Typed protocol lifecycle events and the sinks that collect them.

The paper's lemmas are statements about *internal* protocol dynamics —
ALIGNED's size estimation converging (Lemmas 8–9), the pecking order
handing the channel to a class (Lemma 7), PUNCTUAL electing and deposing
leaders (Lemmas 16–18), anarchist releases — none of which are visible
in a :class:`~repro.sim.metrics.SimulationResult`.  Protocols therefore
emit **typed events** through an engine-owned :class:`EventSink`, giving
experiments and tests lemma-level visibility without any protocol
exposing its private state.

Event kinds are dotted strings, ``<family>.<what>``; the family prefix
(``job``, ``aligned``, ``punctual``, ``uniform``, ``run``, ``fault``,
``watchdog``)
groups events in the ``repro obs`` report.  The full taxonomy lives in
:data:`EVENT_KINDS` and docs/OBSERVABILITY.md.

Emission is strictly pay-for-what-you-use: protocols hold an optional
sink (``None`` by default) and every emission site guards on it, so an
un-instrumented run performs no event work at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "EVENT_KINDS",
    "Event",
    "EventLog",
    "EventSink",
    "NullSink",
    "family_of",
]


# -- taxonomy ----------------------------------------------------------------

#: Every event kind the built-in engine and protocols can emit, with a
#: one-line meaning.  Protocols outside this repo may add their own
#: dotted kinds; the report groups them by prefix all the same.
EVENT_KINDS: Dict[str, str] = {
    # engine-level job lifecycle (ground truth, emitted by the engine)
    "job.activated": "a job's protocol was constructed and begun",
    "job.success": "the job's data message was delivered in its window",
    "job.deadline_miss": "the window closed without a delivery",
    "job.gave_up": "the protocol stopped contending before its deadline",
    # run / fault bookkeeping (emitted by the engine)
    "run.started": "one simulate() call began",
    "run.finished": "one simulate() call completed",
    "fault.plan_bound": "a FaultPlan was bound to this run",
    # watchdog cancellations (emitted by the engine; see sim/watchdog.py)
    "watchdog.slot_budget": "run cancelled: simulated-slot budget exhausted",
    "watchdog.wall_clock": "run cancelled: wall-clock budget exhausted",
    "watchdog.stall": "run cancelled: no delivery progress for the stall budget",
    # ALIGNED internals (slot = machine slot; virtual time under PUNCTUAL)
    "aligned.estimation_started": "my class began its size-estimation phase",
    "aligned.estimation_converged": "my class's estimate is fixed (Lemma 9)",
    "aligned.class_agreement": "the pecking order handed my class the channel",
    "aligned.broadcast_started": "my class began batch broadcast",
    "aligned.exhausted": "my class's run completed without my delivery",
    # PUNCTUAL internals (slot = engine slot)
    "punctual.synced": "round structure established (SYNC complete)",
    "punctual.slingshot_entered": "began the SLINGSHOT pullback",
    "punctual.leader_elected": "my leader claim succeeded",
    "punctual.leader_deposed": "a later-deadline claimant deposed me",
    "punctual.leader_handover": "handed over with my payload attached",
    "punctual.leader_abdicated": "abdicated at window end with payload",
    "punctual.leader_lost": "follower heard a silent timekeeper slot",
    "punctual.follow_entered": "adopted a leader and trimmed my window",
    "punctual.anarchist_release": "released into the anarchist stage",
    "punctual.truncation": "trimmed virtual window expired undelivered",
    # UNIFORM internals
    "uniform.exhausted": "all chosen slots used without a success",
}


def family_of(kind: str) -> str:
    """The taxonomy family of an event kind (prefix before the dot)."""
    return kind.split(".", 1)[0]


# -- event + sinks -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Event:
    """One emitted lifecycle event.

    Attributes
    ----------
    kind:
        Dotted taxonomy name (see :data:`EVENT_KINDS`).
    slot:
        The slot the event refers to (engine slot for engine/PUNCTUAL
        events, machine/virtual slot for ALIGNED machine events), or -1.
    job_id:
        The emitting job, or -1 for engine-level events.
    data:
        Small JSON-serializable payload (``None`` when empty).
    """

    kind: str
    slot: int = -1
    job_id: int = -1
    data: Optional[Dict[str, Any]] = None

    def as_record(self) -> Dict[str, Any]:
        rec: Dict[str, Any] = {
            "type": "event",
            "kind": self.kind,
            "slot": self.slot,
            "job": self.job_id,
        }
        if self.data:
            rec["data"] = self.data
        return rec


class EventSink:
    """Receiver interface for lifecycle events.

    Subclasses override :meth:`emit`.  The base class is also usable
    directly as a no-op (see :class:`NullSink`).
    """

    __slots__ = ()

    def emit(
        self, kind: str, slot: int = -1, job_id: int = -1, **data: Any
    ) -> None:
        """Receive one event (default: drop it)."""


class NullSink(EventSink):
    """Explicitly discards every event (placeholder / testing)."""

    __slots__ = ()


class EventLog(EventSink):
    """A buffering sink: stores every event and counts kinds.

    The standard sink owned by a :class:`~repro.obs.telemetry.Telemetry`
    object.  Counting happens at emission (one dict update) so summary
    tables never re-scan the buffer.
    """

    __slots__ = ("events", "counts")

    def __init__(self) -> None:
        self.events: List[Event] = []
        self.counts: Dict[str, int] = {}

    def emit(
        self, kind: str, slot: int = -1, job_id: int = -1, **data: Any
    ) -> None:
        self.events.append(Event(kind, slot, job_id, data or None))
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def of_kind(self, kind: str) -> List[Event]:
        """All buffered events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]

    def counts_by_family(self) -> Dict[str, Dict[str, int]]:
        """``family -> kind -> count`` over everything buffered."""
        out: Dict[str, Dict[str, int]] = {}
        for kind, n in sorted(self.counts.items()):
            out.setdefault(family_of(kind), {})[kind] = n
        return out

    def as_records(self) -> List[Dict[str, Any]]:
        return [e.as_record() for e in self.events]
