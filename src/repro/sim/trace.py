"""Per-slot trace recording for simulations.

A :class:`TraceRecorder` captures, for every simulated slot, the channel
outcome plus engine-side context (how many jobs were live, how many
transmitted, and the summed transmit probability when a protocol exposes
it).  Traces power the contention analyses (Lemma 2 / Corollary 3
experiments) and the Figure 1 schedule regeneration.

Recording is opt-in; the engine skips all bookkeeping when no recorder is
installed, keeping the hot loop lean per the "measure before you pay"
guidance for simulation inner loops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

import numpy as np

from repro.channel.channel import SlotOutcome
from repro.channel.feedback import Feedback
from repro.durable import write_atomic

__all__ = ["SlotRecord", "TraceRecorder"]


@dataclass(frozen=True, slots=True)
class SlotRecord:
    """Everything recorded about one simulated slot.

    Attributes
    ----------
    slot:
        Slot index.
    feedback:
        Trinary channel state.
    n_transmitters:
        Number of simultaneous transmissions (simulator ground truth).
    n_live:
        Jobs live (released, window open, not finished) during the slot.
    contention:
        Sum of live jobs' transmit probabilities for the slot, over the
        protocols that report one in ``last_p``; ``nan`` when
        unavailable.  This is the paper's ``C(t)``.
    jammed:
        Whether the jammer corrupted the slot.
    message_type:
        Class name of the delivered message on success, else ``""``.
    """

    slot: int
    feedback: Feedback
    n_transmitters: int
    n_live: int
    contention: float
    jammed: bool
    message_type: str

    def as_record(self) -> Dict[str, Any]:
        """JSON-serializable form (contention NaN encodes as ``None``)."""
        c = self.contention
        return {
            "slot": self.slot,
            "feedback": self.feedback.name,
            "n_tx": self.n_transmitters,
            "n_live": self.n_live,
            "contention": c if c == c else None,
            "jammed": self.jammed,
            "message_type": self.message_type,
        }

    @classmethod
    def from_record(cls, rec: Dict[str, Any]) -> "SlotRecord":
        c = rec.get("contention")
        return cls(
            slot=int(rec["slot"]),
            feedback=Feedback[rec["feedback"]],
            n_transmitters=int(rec["n_tx"]),
            n_live=int(rec["n_live"]),
            contention=float("nan") if c is None else float(c),
            jammed=bool(rec["jammed"]),
            message_type=rec.get("message_type", ""),
        )


class TraceRecorder:
    """Accumulates :class:`SlotRecord` objects and derived arrays."""

    def __init__(self) -> None:
        self.records: List[SlotRecord] = []

    def record(
        self,
        outcome: SlotOutcome,
        n_live: int,
        contention: float = float("nan"),
    ) -> None:
        self.records.append(
            SlotRecord(
                slot=outcome.slot,
                feedback=outcome.feedback,
                n_transmitters=outcome.n_transmitters,
                n_live=n_live,
                contention=contention,
                jammed=outcome.jammed,
                message_type=type(outcome.message).__name__
                if outcome.message is not None
                else "",
            )
        )

    def __len__(self) -> int:
        return len(self.records)

    # -- derived arrays ----------------------------------------------------

    def feedback_codes(self) -> np.ndarray:
        """0 = silence, 1 = success, 2 = noise, per slot."""
        code = {Feedback.SILENCE: 0, Feedback.SUCCESS: 1, Feedback.NOISE: 2}
        return np.array([code[r.feedback] for r in self.records], dtype=np.int8)

    def contentions(self) -> np.ndarray:
        """Per-slot contention ``C(t)`` (nan where unreported)."""
        return np.array([r.contention for r in self.records], dtype=np.float64)

    def success_slots(self) -> np.ndarray:
        """Indices of slots carrying a successful broadcast."""
        return np.array(
            [r.slot for r in self.records if r.feedback is Feedback.SUCCESS],
            dtype=np.int64,
        )

    def utilization(self) -> float:
        """Fraction of recorded slots carrying a success."""
        if not self.records:
            return 0.0
        return float(np.mean(self.feedback_codes() == 1))

    def collision_rate(self) -> float:
        """Fraction of recorded slots that were noise."""
        if not self.records:
            return 0.0
        return float(np.mean(self.feedback_codes() == 2))

    # -- nan-aware contention aggregation ----------------------------------
    #
    # Contention is nan in every slot where no live protocol reported a
    # transmit probability (e.g. listen-only phases), so plain mean/max
    # would poison the whole trace with one such slot.  All aggregation
    # here reduces over the reported slots only.

    def mean_contention(self) -> float:
        """Mean ``C(t)`` over slots where it was reported (nan if none)."""
        c = self.contentions()
        if c.size == 0 or np.isnan(c).all():
            return float("nan")
        return float(np.nanmean(c))

    def max_contention(self) -> float:
        """Max ``C(t)`` over slots where it was reported (nan if none)."""
        c = self.contentions()
        if c.size == 0 or np.isnan(c).all():
            return float("nan")
        return float(np.nanmax(c))

    def contention_percentiles(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0)
    ) -> Dict[float, float]:
        """``q -> percentile of C(t)`` over reported slots (nan if none)."""
        c = self.contentions()
        if c.size == 0 or np.isnan(c).all():
            return {float(q): float("nan") for q in qs}
        vals = np.nanpercentile(c, list(qs))
        return {float(q): float(v) for q, v in zip(qs, vals)}

    # -- JSONL round-trip ---------------------------------------------------

    def to_records(self) -> List[Dict[str, Any]]:
        """All slots in JSON-serializable form, in slot order."""
        return [r.as_record() for r in self.records]

    @classmethod
    def from_records(cls, records: Iterable[Dict[str, Any]]) -> "TraceRecorder":
        """Rebuild a recorder from :meth:`to_records` output."""
        rec = cls()
        rec.records = [SlotRecord.from_record(r) for r in records]
        return rec

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """One JSON object per slot; reload with :meth:`read_jsonl`."""
        records = (r.as_record() for r in self.records)
        write_atomic(path, ((json.dumps(r) + "\n").encode() for r in records))
        return Path(path)

    @classmethod
    def read_jsonl(cls, path: Union[str, Path]) -> "TraceRecorder":
        """Load a trace written by :meth:`write_jsonl`."""
        records = (
            json.loads(line)
            for line in Path(path).read_text().splitlines()
            if line.strip()
        )
        return cls.from_records(records)
