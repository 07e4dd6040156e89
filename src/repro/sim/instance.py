"""Instances: immutable collections of jobs plus structural queries.

An :class:`Instance` wraps a job list with the derived views protocols and
analyses need repeatedly: horizon, jobs grouped by identical window, jobs
grouped by class, release order, and alignment checks.  All views are
computed lazily and cached; the instance itself is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.errors import InvalidInstanceError
from repro.sim.job import Job

__all__ = ["Instance", "WindowKey"]

#: An exact window, identifying a job class occupancy: ``(release, deadline)``.
WindowKey = Tuple[int, int]


@dataclass(frozen=True)
class Instance:
    """An immutable set of jobs arriving over time.

    Parameters
    ----------
    jobs:
        The jobs.  IDs must be unique; order is irrelevant (views sort).
    """

    jobs: Tuple[Job, ...]

    def __init__(self, jobs: Iterable[Job]) -> None:
        tup = tuple(jobs)
        ids = [j.job_id for j in tup]
        if len(set(ids)) != len(ids):
            raise InvalidInstanceError("duplicate job ids in instance")
        object.__setattr__(self, "jobs", tup)

    # -- basic views -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, i: int) -> Job:
        return self.jobs[i]

    @cached_property
    def by_release(self) -> Tuple[Job, ...]:
        """Jobs sorted by ``(release, deadline, job_id)``."""
        return tuple(sorted(self.jobs, key=lambda j: (j.release, j.deadline, j.job_id)))

    @cached_property
    def horizon(self) -> int:
        """One past the last deadline (0 for an empty instance)."""
        return max((j.deadline for j in self.jobs), default=0)

    @cached_property
    def first_release(self) -> int:
        """Earliest release time (0 for an empty instance)."""
        return min((j.release for j in self.jobs), default=0)

    @cached_property
    def min_window(self) -> int:
        """Smallest window size ``w_0`` (0 for an empty instance)."""
        return min((j.window for j in self.jobs), default=0)

    @cached_property
    def max_window(self) -> int:
        """Largest window size (0 for an empty instance)."""
        return max((j.window for j in self.jobs), default=0)

    # -- alignment -------------------------------------------------------

    @cached_property
    def is_aligned(self) -> bool:
        """True iff every job's window is power-of-2 aligned (Section 3)."""
        return all(j.is_aligned for j in self.jobs)

    def require_aligned(self) -> None:
        """Raise :class:`InvalidInstanceError` unless aligned."""
        for j in self.jobs:
            if not j.is_aligned:
                raise InvalidInstanceError(
                    f"job {j.job_id} window [{j.release},{j.deadline}) "
                    "is not power-of-2 aligned"
                )

    # -- groupings -------------------------------------------------------

    @cached_property
    def by_window(self) -> Mapping[WindowKey, Tuple[Job, ...]]:
        """Jobs grouped by exact window ``(release, deadline)``.

        In ALIGNED, jobs sharing the same exact window coordinate as one
        job-class occupancy; this is the grouping those protocols act on.
        """
        groups: Dict[WindowKey, List[Job]] = {}
        for j in self.jobs:
            groups.setdefault((j.release, j.deadline), []).append(j)
        return {k: tuple(v) for k, v in sorted(groups.items())}

    @cached_property
    def by_class(self) -> Mapping[int, Tuple[Job, ...]]:
        """Aligned jobs grouped by class ``ℓ`` (window size ``2^ℓ``)."""
        self.require_aligned()
        groups: Dict[int, List[Job]] = {}
        for j in self.jobs:
            groups.setdefault(j.job_class, []).append(j)
        return {k: tuple(v) for k, v in sorted(groups.items())}

    @cached_property
    def classes(self) -> Tuple[int, ...]:
        """Sorted distinct job classes present (aligned instances)."""
        return tuple(sorted(self.by_class))

    # -- queries ---------------------------------------------------------

    def live_at(self, slot: int) -> Tuple[Job, ...]:
        """Jobs whose window contains ``slot``."""
        return tuple(j for j in self.jobs if j.contains(slot))

    def nested_jobs(self, release: int, deadline: int) -> Tuple[Job, ...]:
        """Jobs whose windows are contained in ``[release, deadline)``.

        This includes jobs with exactly that window — the quantity
        ``N̂_W`` of Lemma 11.
        """
        probe = Job(-1, release, deadline)
        return tuple(j for j in self.jobs if j.nested_in(probe))

    def shifted(self, delta: int) -> "Instance":
        """The whole instance translated by ``delta`` slots."""
        return Instance(j.shifted(delta) for j in self.jobs)

    def merged(self, other: "Instance") -> "Instance":
        """Union of two instances (ids must stay unique)."""
        return Instance(tuple(self.jobs) + tuple(other.jobs))

    def relabeled(self, start: int = 0) -> "Instance":
        """A copy with ids renumbered ``start, start+1, ...`` in release order."""
        return Instance(
            Job(start + i, j.release, j.deadline)
            for i, j in enumerate(self.by_release)
        )

    def summary(self) -> str:
        """One-line human-readable description."""
        if not self.jobs:
            return "Instance(empty)"
        return (
            f"Instance(n={len(self.jobs)}, horizon={self.horizon}, "
            f"windows {self.min_window}..{self.max_window}, "
            f"aligned={self.is_aligned})"
        )
