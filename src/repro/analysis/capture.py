"""Instrumentation captures: schedule and stage histories from live runs.

Two reusable observers that the Figure-1/Figure-2 experiments, the CLI,
and the examples all need (and previously each reimplemented):

* :class:`ScheduleCapture` — wraps an ALIGNED factory and records, per
  slot, which class was active and whether it was estimating or
  broadcasting (the data behind the paper's Figure 1);
* :class:`StageCapture` — wraps a PUNCTUAL factory and records every
  per-job stage transition (the data behind Figure 2's state machine).

Both are pure observers: the wrapped protocols' behaviour is untouched
(decisions, randomness, and timing are identical with or without the
capture), which the tests verify.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.aligned import AlignedProtocol
from repro.core.punctual import PunctualProtocol, Stage
from repro.params import AlignedParams, PunctualParams
from repro.sim.job import Job
from repro.sim.protocolbase import ProtocolContext

__all__ = ["ScheduleCapture", "StageCapture", "StageTransition"]


class ScheduleCapture:
    """Record the pecking-order schedule of an ALIGNED run.

    Usage::

        capture = ScheduleCapture(params)
        simulate(instance, capture.factory(), seed=0)
        active, kinds = capture.timeline(horizon)
    """

    def __init__(self, params: AlignedParams) -> None:
        self.params = params
        self.log: Dict[int, Tuple[int, str]] = {}

    def factory(self):
        """An ALIGNED protocol factory that logs into this capture."""
        capture = self

        class _Logging(AlignedProtocol):
            def on_act(self, slot):
                msg = super().on_act(slot)
                view = self.machine.view
                if view is not None and view.active_level is not None:
                    lv = view.active_level
                    run = view.run_of(lv)
                    kind = (
                        "est"
                        if run.steps_taken < run.estimation_steps
                        else "bcast"
                    )
                    capture.log[slot] = (lv, kind)
                return msg

        def make(job: Job, rng: np.random.Generator) -> AlignedProtocol:
            return _Logging(ProtocolContext.for_job(job, rng), capture.params)

        return make

    def timeline(
        self, horizon: int
    ) -> Tuple[List[Optional[int]], List[str]]:
        """Per-slot (active level, step kind) lists over ``[0, horizon)``."""
        active = [
            self.log[t][0] if t in self.log else None for t in range(horizon)
        ]
        kinds = [self.log[t][1] if t in self.log else "" for t in range(horizon)]
        return active, kinds

    def active_step_counts(self) -> Dict[int, Dict[str, int]]:
        """``{level: {"est": n, "bcast": m}}`` across the whole run."""
        out: Dict[int, Dict[str, int]] = {}
        for lv, kind in self.log.values():
            out.setdefault(lv, {"est": 0, "bcast": 0})[kind] += 1
        return out


@dataclass(frozen=True, slots=True)
class StageTransition:
    """One job's stage change at one slot."""

    slot: int
    job_id: int
    before: Stage
    after: Stage


class StageCapture:
    """Record every stage transition of a PUNCTUAL run."""

    def __init__(self, params: PunctualParams) -> None:
        self.params = params
        self.transitions: List[StageTransition] = []
        self.protocols: Dict[int, PunctualProtocol] = {}

    def factory(self):
        """A PUNCTUAL protocol factory that logs into this capture."""
        capture = self

        class _Logging(PunctualProtocol):
            def __init__(self, ctx, params):
                super().__init__(ctx, params)
                self._last_stage = self.stage

            def observe(self, slot, obs):
                super().observe(slot, obs)
                if self.stage is not self._last_stage:
                    capture.transitions.append(
                        StageTransition(
                            slot, self.ctx.job_id, self._last_stage, self.stage
                        )
                    )
                    self._last_stage = self.stage

        def make(job: Job, rng: np.random.Generator) -> PunctualProtocol:
            proto = _Logging(ProtocolContext.for_job(job, rng), capture.params)
            capture.protocols[job.job_id] = proto
            return proto

        return make

    def census(self) -> collections.Counter:
        """Counter of ``(before, after)`` stage-name pairs."""
        return collections.Counter(
            (t.before.value, t.after.value) for t in self.transitions
        )

    def final_stages(self) -> Dict[int, Stage]:
        """Each job's last recorded stage."""
        return {jid: p.stage for jid, p in self.protocols.items()}

    def jobs_reaching(self, stage: Stage) -> List[int]:
        """Job ids that ever entered ``stage``."""
        out = {t.job_id for t in self.transitions if t.after is stage}
        out |= {
            jid for jid, p in self.protocols.items() if p.stage is stage
        }
        return sorted(out)
