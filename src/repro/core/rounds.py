"""PUNCTUAL's round structure and distributed synchronization (Section 4).

Time is grouped into **rounds** of ten slots::

    index: 0      1      2      3           4      5        6      7         8      9
    role:  START  START  GUARD  TIMEKEEPER  GUARD  ALIGNED  GUARD  ELECTION  GUARD  ANARCHIST

Every live synchronized job broadcasts a start message in both START
slots (they normally collide — by design, the round opening is simply
"two busy slots").  Guards are always silent; each useful slot carries at
most one protocol's traffic.

**Synchronization.**  The paper's rule — wait for two consecutive busy
slots, give up after 10 slots and broadcast your own starts — has two
races at the edges (an anarchist transmission in slot 9 abuts the next
round's starts; two announcers can offset by one slot).  We implement a
slightly strengthened, still O(1), rule and document the deviation:

* a round start is detected at ``i`` iff ``busy(i) ∧ busy(i+1) ∧
  silent(i+2)`` — slot 2 is a guard, so a true round start always
  matches, while the anarchist/start wrap (busy 9, busy 0, busy 1) and
  any isolated busy slot never do;
* the listening budget is 13 observed slots (one full round plus the
  detection lag), not 10;
* a job only *begins* announcing if the most recently observed slot was
  silent; otherwise it keeps listening — this serializes near-simultaneous
  announcers instead of letting them adopt origins one slot apart.

Announcing means transmitting start messages in the next two slots and
declaring the first of them the round origin, regardless of collisions
(colliding starts still read as two busy slots to everyone else, which
is all that matters).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Optional

from repro.channel.feedback import Observation
from repro.channel.messages import Message, StartMessage
from repro.errors import ProtocolViolationError

__all__ = ["SlotRole", "ROUND_LENGTH", "ROLE_OF_INDEX", "RoundSynchronizer"]

ROUND_LENGTH = 10

#: Number of slots a job listens for an existing round before announcing.
LISTEN_BUDGET = 13


class SlotRole(enum.Enum):
    """The purpose of one slot within a round."""

    START = "start"
    GUARD = "guard"
    TIMEKEEPER = "timekeeper"
    ALIGNED = "aligned"
    ELECTION = "election"
    ANARCHIST = "anarchist"


ROLE_OF_INDEX = (
    SlotRole.START,
    SlotRole.START,
    SlotRole.GUARD,
    SlotRole.TIMEKEEPER,
    SlotRole.GUARD,
    SlotRole.ALIGNED,
    SlotRole.GUARD,
    SlotRole.ELECTION,
    SlotRole.GUARD,
    SlotRole.ANARCHIST,
)


class RoundSynchronizer:
    """One job's view of the round timeline.

    Drive it like a protocol: ``maybe_transmit(t)`` inside the owner's
    ``act`` (returns a start message while announcing), then
    ``observe(t, obs)``.  Once :attr:`synced` is True, :meth:`role` and
    :meth:`round_index` are available; the owner is responsible for
    broadcasting the per-round start messages from then on (they are part
    of the protocol proper, not of synchronization).
    """

    def __init__(self, job_id: int) -> None:
        self.job_id = job_id
        self.synced = False
        self.origin: Optional[int] = None  # slot index of a round start
        self._recent: Deque[tuple[int, bool]] = deque(maxlen=3)  # (slot, busy)
        self._listened = 0
        self._announcing = False
        self._announce_first: Optional[int] = None

    # -- queries -------------------------------------------------------------

    def slot_index(self, t: int) -> int:
        """Position of slot ``t`` within its round (0..9)."""
        if not self.synced or self.origin is None:
            raise ProtocolViolationError("slot_index before synchronization")
        return (t - self.origin) % ROUND_LENGTH

    def role(self, t: int) -> SlotRole:
        """The role of slot ``t``."""
        return ROLE_OF_INDEX[self.slot_index(t)]

    def round_index(self, t: int) -> int:
        """The (local) round counter containing slot ``t``.

        Counted from this job's origin; only differences are meaningful
        across jobs, which is why deadlines travel as *remaining rounds*.
        """
        if not self.synced or self.origin is None:
            raise ProtocolViolationError("round_index before synchronization")
        return (t - self.origin) // ROUND_LENGTH

    def next_slot_of_role(self, t: int, role: SlotRole) -> int:
        """The earliest slot ``>= t`` whose role is ``role``."""
        for d in range(ROUND_LENGTH):
            if self.role(t + d) is role:
                return t + d
        raise AssertionError("every role occurs within one round")

    # -- drive ----------------------------------------------------------------

    def maybe_transmit(self, t: int) -> Optional[Message]:
        """The synchronizer's own action for slot ``t`` (pre-sync only)."""
        if self.synced:
            return None
        if self._announcing:
            assert self._announce_first is not None
            if t == self._announce_first or t == self._announce_first + 1:
                return StartMessage(self.job_id)
            return None
        # Still listening: decide whether to start announcing *next* slot.
        if self._listened >= LISTEN_BUDGET:
            last_busy = self._recent[-1][1] if self._recent else False
            if not last_busy:
                self._announcing = True
                self._announce_first = t
                return StartMessage(self.job_id)
        return None

    def observe(self, t: int, obs: Observation) -> None:
        """Digest one slot's feedback; may flip :attr:`synced`."""
        if self.synced:
            return
        busy = obs.feedback.is_busy
        self._recent.append((t, busy))
        self._listened += 1
        if self._announcing:
            assert self._announce_first is not None
            if t >= self._announce_first + 1:
                self.synced = True
                self.origin = self._announce_first
            return
        # pattern detection: busy(i), busy(i+1), silent(i+2)
        if len(self._recent) == 3:
            (t0, b0), (t1, b1), (t2, b2) = self._recent
            if t1 == t0 + 1 and t2 == t1 + 1 and b0 and b1 and not b2:
                self.synced = True
                self.origin = t0
