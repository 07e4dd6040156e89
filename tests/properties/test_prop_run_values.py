"""Property tests: values the per-slot hooks read instead of re-deriving.

* a :class:`ClassRun` fixes ``estimation_steps`` at construction and
  ``total_steps`` when its estimate resolves, and keeps ``done`` current
  on each ``advance``; an :class:`EstimationTally` fixes ``total_steps``
  at construction.  At every step they equal what
  :func:`estimation_length` and :func:`total_active_steps` give.  The
  next step's ``phase``, ``sub_len`` and ``sub_off``, advanced step by
  step, equal what :meth:`ClassRun.next_step` derives, and the tally the
  run advances inline equals one fed through
  :meth:`EstimationTally.record`, also after unpickling a state written
  without them;
* once synced, PUNCTUAL derives each slot's local round and role from the
  synchronizer's origin, cached when sync completes.  Every round and role
  its hooks hand on equals :meth:`RoundSynchronizer.round_index` /
  :meth:`RoundSynchronizer.role` at that slot.
"""

import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.jamming import StochasticJammer
from repro.channel.messages import StartMessage
from repro.core.broadcast import total_active_steps
from repro.core.estimation import EstimationTally, estimation_length
from repro.core.leader import LeaderTracker
from repro.core.punctual import PunctualProtocol
from repro.core.rounds import SlotRole
from repro.core.schedule import ClassRun, EstimationStep
from repro.params import AlignedParams, PunctualParams
from repro.sim.engine import simulate
from repro.sim.protocolbase import ProtocolContext
from repro.workloads import batch_instance


def _expected_total(run: ClassRun, level: int, lam: int):
    if level == 0:
        return 1
    if run.estimate is None:
        return None
    return total_active_steps(level, run.estimate, lam)


@given(
    level=st.integers(min_value=0, max_value=6),
    lam=st.integers(min_value=1, max_value=3),
    tau=st.sampled_from([2, 4, 8, 64]),
    p_success=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=150, deadline=None)
def test_class_run_values_match_the_formulas(level, lam, tau, p_success, seed):
    rnd = random.Random(seed)
    run = ClassRun(level, AlignedParams(lam=lam, tau=tau, min_level=0))
    ref_tally = EstimationTally(level, lam)
    est_len = estimation_length(level, lam)
    while True:
        assert run.estimation_steps == (est_len if level > 0 else 0)
        if run.tally is not None:
            assert run.tally.total_steps == est_len
            assert run.tally.complete == (run.tally.steps_seen >= est_len)
            assert run.tally == ref_tally
        total = _expected_total(run, level, lam)
        assert run.total_steps == total
        assert run.done == (total is not None and run.steps_taken >= total)
        if run.done:
            break
        _assert_cursor(run)
        if run.steps_taken % 7 == 3:
            run = pickle.loads(pickle.dumps(run))
            _assert_cursor(run)
        success = rnd.random() < p_success
        if level and run.steps_taken < est_len:
            ref_tally.record(success)
        run.advance(success)
    assert run.steps_taken == run.total_steps


def _assert_cursor(run: ClassRun):
    step = run.next_step()
    if isinstance(step, EstimationStep):
        assert run.phase == step.phase
    else:
        assert run.phase == 0
        pos = step.position
        assert (run.sub_len, run.sub_off) == (pos.length, pos.offset)


class _AuditedTracker(LeaderTracker):
    def __init__(self, owner):
        super().__init__()
        self.owner = owner

    def observe(self, local_round, role, obs):
        self.owner._check(self.owner._slot, local_round, role)
        super().observe(local_round, role, obs)


class _Audited(PunctualProtocol):
    """Checks each round and role the hooks pass on against the synchronizer.

    A hook hands the slot's round and role on to the tracker and the
    stage handlers, and dispatches ``on_act`` on the role: each handler
    reached, and each START or GUARD action, is audited.
    """

    audits = 0

    def __init__(self, ctx, params):
        super().__init__(ctx, params)
        self.tracker = _AuditedTracker(self)

    def _check(self, t, r=None, role=None):
        sync = self.sync
        assert sync.synced and self._origin == sync.origin
        assert r is None or r == sync.round_index(t)
        assert role is None or role is sync.role(t)
        type(self).audits += 1

    def on_act(self, slot):
        assert (self._origin is None) == (not self.sync.synced)
        self._slot = slot
        synced, live = self.sync.synced, slot < self.eff_end
        msg = super().on_act(slot)
        if synced and live:
            role = self.sync.role(slot)
            if role is SlotRole.START:
                self._check(slot, role=role)
                assert isinstance(msg, StartMessage)
            elif role is SlotRole.GUARD:
                self._check(slot, role=role)
                assert msg is None
        return msg

    def on_observe(self, slot, obs):
        assert (self._origin is None) == (not self.sync.synced)
        self._slot = slot
        super().on_observe(slot, obs)

    def _act_timekeeper(self, t, r):
        self._check(t, r, SlotRole.TIMEKEEPER)
        return super()._act_timekeeper(t, r)

    def _act_aligned(self, r):
        self._check(self._slot, r, SlotRole.ALIGNED)
        return super()._act_aligned(r)

    def _act_election(self, t):
        self._check(t, role=SlotRole.ELECTION)
        return super()._act_election(t)

    def _act_anarchist(self, t):
        self._check(t, role=SlotRole.ANARCHIST)
        return super()._act_anarchist(t)

    def _decide_after_timekeeper(self, t, r, *, halving):
        self._check(t, r, SlotRole.TIMEKEEPER)
        return super()._decide_after_timekeeper(t, r, halving=halving)

    def _observe_slingshot(self, t, r, obs):
        self._check(t, r)
        return super()._observe_slingshot(t, r, obs)

    def _observe_follow(self, t, r, role, obs):
        self._check(t, r, role)
        return super()._observe_follow(t, r, role, obs)

    def _observe_leader(self, t, r, role, obs):
        self._check(t, r, role)
        return super()._observe_leader(t, r, role, obs)

    def _try_build_machine(self, t, r):
        self._check(t, r)
        return super()._try_build_machine(t, r)


@given(
    n=st.integers(min_value=2, max_value=24),
    window=st.sampled_from([512, 1024, 1500]),
    jam=st.sampled_from([None, 0.25]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=12, deadline=None)
def test_punctual_rounds_and_roles_match_the_synchronizer(n, window, jam, seed):
    params = PunctualParams()
    instance = batch_instance(n, window)

    def make(job, rng):
        return _Audited(ProtocolContext.for_job(job, rng), params)

    _Audited.audits = 0
    jammer = None if jam is None else StochasticJammer(jam)
    simulate(instance, make, jammer=jammer, seed=seed)
    assert _Audited.audits > 0
