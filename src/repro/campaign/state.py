"""The campaign state file: an append-only, crash-tolerant JSONL log.

Resumability is the whole point of a campaign, so its state file gets
the same durability contract as the run ledger (PR 8): every record is
one :func:`repro.durable.append_jsonl_atomic` call — a single
``os.write`` on an ``O_APPEND`` descriptor, with the healing newline for
a torn tail folded into the same write — and reads go through the
tolerant reader, which skips a half-written final line instead of
dying.  A SIGKILL at *any* byte offset therefore loses at most the
record being written, never an earlier one, and
:meth:`CampaignState.load` after the kill sees exactly the cells that
were durably recorded.

The first record is a header carrying the spec's grid digest.  Opening
the file for a spec whose digest differs raises
:class:`CampaignStateError`: resuming an edited grid against old state
would silently mix two different campaigns, which is strictly worse
than refusing.

Record types (all JSON objects, one per line):

* ``campaign-header`` — ``name``, ``spec_digest``, ``schema``;
* ``cell-attempt`` — a cell is about to be dispatched (``key``,
  ``attempt`` starting at 1);
* ``cell-done`` — a cell completed (``key``, ``summary``,
  ``wall_seconds``);
* ``cell-quarantined`` — a cell exhausted its retry budget (``key``,
  ``attempts``, ``error``).

``cell-attempt`` records persist the retry budget across crashes: a
poison cell that burned two attempts before a SIGKILL has two fewer
attempts after resume, so a deterministically failing cell converges to
quarantine no matter how often the orchestrator dies around it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import ReproError
from repro.durable import append_jsonl_atomic, read_jsonl_tolerant

__all__ = [
    "STATE_SCHEMA",
    "CampaignState",
    "CampaignStateError",
    "StateView",
]

#: Version of the state-file record schema.
STATE_SCHEMA = 1


class CampaignStateError(ReproError):
    """The state file cannot serve this campaign (digest drift, etc.)."""


@dataclass
class StateView:
    """What the state file durably says about every cell.

    ``done`` and ``quarantined`` map cell keys to their terminal
    records; ``attempts`` counts dispatches per key (terminal or not),
    which is what survives of the retry budget across a crash.
    """

    header: Optional[Dict[str, Any]] = None
    done: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    quarantined: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    attempts: Dict[str, int] = field(default_factory=dict)

    def is_terminal(self, key: str) -> bool:
        """Whether ``key`` needs no further work."""
        return key in self.done or key in self.quarantined


class CampaignState:
    """Append-only view of one campaign's progress, keyed by cell.

    All mutation goes through the three ``record_*`` methods; each is
    one atomic append, so the file is consistent after a kill at any
    point between (or inside) calls.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    # -- reads ---------------------------------------------------------

    def load(self, spec_digest: Optional[str] = None) -> StateView:
        """Replay the log into a :class:`StateView` (missing file: empty).

        With ``spec_digest``, raises :class:`CampaignStateError` when the
        file belongs to a different grid — a resume, or its dry run,
        must match the spec it started from.
        """
        view = StateView()
        for rec in read_jsonl_tolerant(self.path):
            kind = rec.get("type")
            if kind == "campaign-header" and view.header is None:
                view.header = rec
            elif kind == "cell-attempt":
                key = str(rec.get("key", ""))
                view.attempts[key] = view.attempts.get(key, 0) + 1
            elif kind == "cell-done":
                view.done[str(rec.get("key", ""))] = rec
            elif kind == "cell-quarantined":
                view.quarantined[str(rec.get("key", ""))] = rec
        if spec_digest is not None and view.header is not None:
            found = view.header.get("spec_digest")
            if found != spec_digest:
                raise CampaignStateError(
                    f"state file {self.path} belongs to a different "
                    f"campaign grid (state digest {str(found)[:12]}…, spec "
                    f"digest {spec_digest[:12]}…); edit the spec back, or "
                    f"point 'state' at a fresh file"
                )
        return view

    # -- writes --------------------------------------------------------

    def ensure_header(self, *, name: str, spec_digest: str) -> StateView:
        """Open the state for this spec, writing the header if new.

        Returns the current :class:`StateView` (after any header write).
        Raises :class:`CampaignStateError` on grid drift (see
        :meth:`load`).
        """
        view = self.load(spec_digest)
        if view.header is None:
            header = {
                "type": "campaign-header",
                "schema": STATE_SCHEMA,
                "name": name,
                "spec_digest": spec_digest,
                "created": time.time(),
            }
            append_jsonl_atomic(self.path, header)
            view.header = header
        return view

    def record_attempt(self, key: str, attempt: int) -> None:
        """Durably note that ``key`` is being dispatched (1-based)."""
        append_jsonl_atomic(
            self.path,
            {
                "type": "cell-attempt",
                "schema": STATE_SCHEMA,
                "key": key,
                "attempt": attempt,
                "t": time.time(),
            },
        )

    def record_done(
        self,
        key: str,
        *,
        label: str,
        summary: Dict[str, Any],
        wall_seconds: float,
    ) -> None:
        """Durably mark ``key`` complete with its outcome summary."""
        append_jsonl_atomic(
            self.path,
            {
                "type": "cell-done",
                "schema": STATE_SCHEMA,
                "key": key,
                "label": label,
                "summary": summary,
                "wall_seconds": wall_seconds,
                "t": time.time(),
            },
        )

    def record_quarantined(
        self, key: str, *, label: str, attempts: int, error: str
    ) -> None:
        """Durably quarantine ``key`` after its retry budget ran out."""
        append_jsonl_atomic(
            self.path,
            {
                "type": "cell-quarantined",
                "schema": STATE_SCHEMA,
                "key": key,
                "label": label,
                "attempts": attempts,
                "error": error,
                "t": time.time(),
            },
        )
