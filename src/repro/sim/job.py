"""Jobs: unit-length messages with release times and deadlines.

Section 1.1: an instance is a set of jobs; job ``j`` has release time
``r_j``, deadline ``d_j``, and must broadcast one data message in some slot
of its window ``[r_j, d_j)``.  We use the half-open convention — the window
contains exactly ``w_j = d_j - r_j`` slots, which matches the paper's
``w_j = d_j - r_j`` window size.

A job knows its window *size* upon activation but not its absolute release
time (no global clock); the absolute fields on :class:`Job` are simulator
bookkeeping, never exposed to protocol logic except where the paper's model
allows it (the aligned special case).

Energy convention: each slot in which a job transmits anything costs one
unit of *channel-access energy* — the headline metric of the modern
backoff literature (arXiv 2302.07751, 2408.11275).  The per-job counter
lives on :class:`~repro.sim.protocolbase.Protocol` (``transmissions``),
the engine folds it into :class:`~repro.sim.metrics.JobOutcome`, and the
aggregate views live on :class:`~repro.sim.metrics.SimulationResult`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import InvalidInstanceError

__all__ = ["Job", "JobStatus", "is_power_of_two", "window_class"]


def is_power_of_two(x: int) -> bool:
    """True iff ``x`` is a positive integral power of two."""
    return x > 0 and (x & (x - 1)) == 0


def window_class(w: int) -> int:
    """The job class ``ℓ`` of a power-of-two window size ``w = 2^ℓ``.

    Raises
    ------
    InvalidInstanceError
        If ``w`` is not a power of two.
    """
    if not is_power_of_two(w):
        raise InvalidInstanceError(f"window size {w} is not a power of two")
    return int(w).bit_length() - 1


class JobStatus(enum.Enum):
    """Lifecycle of a job inside the simulator."""

    PENDING = "pending"  # release time not reached yet
    LIVE = "live"  # inside its window, still trying
    SUCCEEDED = "succeeded"  # data message delivered
    FAILED = "failed"  # window closed without a successful broadcast
    GAVE_UP = "gave_up"  # protocol truncated / stopped before the deadline

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.GAVE_UP)


@dataclass(frozen=True, slots=True)
class Job:
    """One unit-length message with a delivery window.

    Attributes
    ----------
    job_id:
        Simulator-level identity (jobs themselves are anonymous).
    release:
        First slot of the window (the job is activated at the start of it).
    deadline:
        One past the last slot of the window; the job may transmit in slots
        ``release .. deadline - 1``.
    """

    job_id: int
    release: int
    deadline: int

    def __post_init__(self) -> None:
        if self.release < 0:
            raise InvalidInstanceError(
                f"job {self.job_id}: negative release {self.release}"
            )
        if self.deadline <= self.release:
            raise InvalidInstanceError(
                f"job {self.job_id}: empty window [{self.release}, {self.deadline})"
            )

    @property
    def window(self) -> int:
        """Window size ``w_j = d_j - r_j`` (number of usable slots)."""
        return self.deadline - self.release

    @property
    def is_aligned(self) -> bool:
        """True iff the window is power-of-2 aligned.

        Section 3: size a power of 2 *and* release a multiple of that size.
        """
        w = self.window
        return is_power_of_two(w) and self.release % w == 0

    @property
    def job_class(self) -> int:
        """Class ``ℓ`` such that ``w = 2^ℓ`` (aligned jobs only)."""
        if not self.is_aligned:
            raise InvalidInstanceError(
                f"job {self.job_id} (window [{self.release},{self.deadline})) "
                "is not power-of-2 aligned"
            )
        return window_class(self.window)

    def contains(self, slot: int) -> bool:
        """Whether ``slot`` falls inside this job's window."""
        return self.release <= slot < self.deadline

    def local_age(self, slot: int) -> int:
        """Slots elapsed since release; 0 in the job's first slot."""
        return slot - self.release

    def shifted(self, delta: int) -> "Job":
        """A copy with the whole window translated by ``delta`` slots."""
        return Job(self.job_id, self.release + delta, self.deadline + delta)

    def with_window(self, release: int, deadline: int) -> "Job":
        """A copy with a replaced window (used by trimming)."""
        return Job(self.job_id, release, deadline)

    def overlaps(self, other: "Job") -> bool:
        """Whether two windows share at least one slot."""
        return self.release < other.deadline and other.release < self.deadline

    def nested_in(self, other: "Job") -> bool:
        """Whether this window is contained in ``other``'s window."""
        return other.release <= self.release and self.deadline <= other.deadline
