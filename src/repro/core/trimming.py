"""Window trimming (Section 4, "Trimming down windows"; Lemma 15).

``trimmed(W)`` is a largest power-of-2-aligned window contained in the
arbitrary window ``W``; the paper notes ``|trimmed(W)| >= |W|/4`` and
(citing the reallocation papers [11, 12]) that trimming a 4γ-slack
feasible job set leaves a γ-slack feasible one.  PUNCTUAL's followers
trim their windows against the leader's announced global time and then
run ALIGNED inside the trimmed windows.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import InvalidInstanceError
from repro.sim.instance import Instance
from repro.sim.job import Job

__all__ = ["trimmed_window", "trimmed_job", "trimmed_instance"]


def trimmed_window(release: int, deadline: int) -> Tuple[int, int]:
    """A largest aligned window inside ``[release, deadline)``.

    Returns the aligned ``(start, end)`` with ``end - start = 2^k`` for
    the largest feasible ``k``; among equals the earliest is chosen
    (the paper allows an arbitrary choice).  Guarantees
    ``end - start >= (deadline - release) / 4`` for windows of size >= 1.

    Raises
    ------
    InvalidInstanceError
        If the window is empty (no aligned window of size >= 1 fits only
        when ``deadline <= release``).
    """
    w = deadline - release
    if w <= 0:
        raise InvalidInstanceError(f"empty window [{release}, {deadline})")
    k = max(w.bit_length() - 1, 0)
    while k >= 0:
        size = 1 << k
        a = -(-release // size)  # ceil division
        if (a + 1) * size <= deadline:
            return (a * size, (a + 1) * size)
        k -= 1
    # k = 0 always fits: size 1, a = release, release + 1 <= deadline.
    raise AssertionError("unreachable: unit window always fits")


def trimmed_job(job: Job) -> Job:
    """The job with its window replaced by ``trimmed(W)``."""
    s, e = trimmed_window(job.release, job.deadline)
    return job.with_window(s, e)


def trimmed_instance(instance: Instance) -> Instance:
    """``trimmed(J)``: every job's window trimmed (Lemma 15's operand).

    The result is always power-of-2 aligned; if the input was 4γ-slack
    feasible the output is γ-slack feasible (checked statistically by
    tests, exactly as Lemma 15 promises).
    """
    return Instance(trimmed_job(j) for j in instance.jobs)
