"""Runtime invariant checking for simulation runs.

The engine already cross-checks one ground truth (protocol self-reported
success vs. observed delivery).  :class:`InvariantChecker` extends that
to a per-slot audit that can be enabled in *any* run
(``simulate(..., invariants=True)``) and is cheap enough for CI chaos
smokes.  It enforces:

* **No success outside the window** — every delivered data message
  belongs to an activated job and lands strictly inside
  ``[release, deadline)`` (the paper's hard deadline semantics).
* **No duplicate success** — a job's message is delivered at most once.
  Under success-erasure feedback faults a *correct* transmitter may
  legitimately re-send (it never learned it succeeded), so the engine
  relaxes this one check via :attr:`allow_redelivery` when such a fault
  is active.
* **No transmission after known success** — a protocol whose
  ``succeeded`` flag is set must never transmit again.  This is the
  double-send detector and is *not* relaxed under faults: the flag is
  only set when the protocol saw its own success.
* **Monotone protocol state** — ``succeeded`` and ``gave_up`` never
  revert, and the transmission counter never decreases.
* **Contention bookkeeping (Lemma 2)** — every reported per-slot
  transmission probability ``last_p`` is a probability (finite, in
  ``[0, 1]``); Lemma 2's success-probability envelope is meaningless
  otherwise.

Violations raise :class:`repro.errors.InvariantViolationError`
immediately, naming the slot and job, so a failing chaos run points at
the first broken slot instead of a corrupted aggregate.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

from repro.errors import InvariantViolationError
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol

__all__ = ["InvariantChecker"]


class InvariantChecker:
    """Per-slot audit of protocol and delivery invariants.

    Driven by the engine: :meth:`on_activate` once per job,
    :meth:`after_slot` once per simulated slot.  Stateless across runs —
    use a fresh checker per simulation (``invariants=True`` does this
    automatically).

    Attributes
    ----------
    allow_redelivery:
        Set by the engine when a success-erasure feedback fault targets
        transmitters; relaxes only the duplicate-delivery check.
    slots_checked:
        Number of slots audited (for tests asserting the checker ran).
    """

    __slots__ = ("allow_redelivery", "slots_checked", "_jobs", "_state", "_delivered")

    def __init__(self, *, allow_redelivery: bool = False) -> None:
        self.allow_redelivery = allow_redelivery
        self.slots_checked = 0
        self._jobs: Dict[int, Job] = {}
        self._state: Dict[int, Tuple[bool, bool, int]] = {}
        self._delivered: Dict[int, int] = {}

    # -- engine hooks ------------------------------------------------------

    def on_activate(self, job: Job, proto: Protocol, slot: int) -> None:
        """Record a job's activation and its protocol's initial state."""
        if not job.release <= slot < job.deadline:
            raise InvariantViolationError(
                f"slot {slot}: job {job.job_id} activated outside its window "
                f"[{job.release}, {job.deadline})"
            )
        self._jobs[job.job_id] = job
        self._state[job.job_id] = (
            bool(proto.succeeded),
            bool(proto.gave_up),
            int(proto.transmissions),
        )

    def after_slot(
        self,
        slot: int,
        delivered: int,
        live_ids: Sequence[int],
        live_protos: Sequence[Protocol],
        tx_idx: Sequence[int],
    ) -> None:
        """Audit one resolved slot.

        Parameters
        ----------
        delivered:
            Job id whose data message was delivered this slot, or ``-1``.
        tx_idx:
            Indices into the live lists of the jobs that transmitted.
        """
        self.slots_checked += 1
        state = self._state

        # transmission after known success (checked against the state
        # snapshot from *before* this slot: succeeded was set no later
        # than the previous slot's observe).
        for i in tx_idx:
            prev = state.get(live_ids[i])
            if prev is not None and prev[0]:
                raise InvariantViolationError(
                    f"slot {slot}: job {live_ids[i]} transmitted after its "
                    "protocol recorded success (double-send)"
                )

        if delivered >= 0:
            job = self._jobs.get(delivered)
            if job is None:
                raise InvariantViolationError(
                    f"slot {slot}: delivery for job {delivered}, which was "
                    "never activated"
                )
            if not job.release <= slot < job.deadline:
                raise InvariantViolationError(
                    f"slot {slot}: job {delivered} delivered outside its "
                    f"window [{job.release}, {job.deadline})"
                )
            first = self._delivered.setdefault(delivered, slot)
            if first != slot and not self.allow_redelivery:
                raise InvariantViolationError(
                    f"slot {slot}: duplicate delivery for job {delivered} "
                    f"(first delivered at slot {first})"
                )

        for i, proto in enumerate(live_protos):
            jid = live_ids[i]
            succeeded = bool(proto.succeeded)
            gave_up = bool(proto.gave_up)
            transmissions = int(proto.transmissions)
            prev = state.get(jid)
            if prev is not None:
                if prev[0] and not succeeded:
                    raise InvariantViolationError(
                        f"slot {slot}: job {jid} protocol reverted "
                        "succeeded from True to False"
                    )
                if prev[1] and not gave_up:
                    raise InvariantViolationError(
                        f"slot {slot}: job {jid} protocol reverted "
                        "gave_up from True to False"
                    )
                if transmissions < prev[2]:
                    raise InvariantViolationError(
                        f"slot {slot}: job {jid} transmission counter "
                        f"decreased ({prev[2]} -> {transmissions})"
                    )
            state[jid] = (succeeded, gave_up, transmissions)

            p = getattr(proto, "last_p", None)
            if p is not None:
                p = float(p)
                if math.isnan(p) or not 0.0 <= p <= 1.0:
                    raise InvariantViolationError(
                        f"slot {slot}: job {jid} reported transmission "
                        f"probability last_p={p!r} outside [0, 1] "
                        "(contention bookkeeping inconsistent with Lemma 2)"
                    )

    # -- reporting ---------------------------------------------------------

    @property
    def deliveries(self) -> Dict[int, int]:
        """Job id → first delivery slot, as audited."""
        return dict(self._delivered)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"InvariantChecker(slots_checked={self.slots_checked}, "
            f"deliveries={len(self._delivered)})"
        )
