"""Unit tests for ClassRun and the pecking-order view (Lemma 7 machinery)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import (
    BroadcastStep,
    ClassRun,
    EstimationStep,
    PeckingOrderView,
)
from repro.errors import InvalidParameterError, ProtocolViolationError
from repro.params import AlignedParams


def params(lam=1, tau=4, min_level=2):
    return AlignedParams(lam=lam, tau=tau, min_level=min_level)


class TestClassRun:
    def test_estimation_then_broadcast(self):
        run = ClassRun(level=2, params=params(lam=1))
        # estimation: λℓ² = 4 steps (2 phases of 2)
        assert run.estimation_steps == 4
        assert run.total_steps is None
        for i in range(4):
            step = run.next_step()
            assert isinstance(step, EstimationStep)
            run.advance(success=(i == 0))  # one success in phase 1
        # raw estimate τ·2¹ = 8 is capped at the window size 2² = 4
        assert run.estimate == 4
        assert run.total_steps is not None
        step = run.next_step()
        assert isinstance(step, BroadcastStep)

    def test_empty_class_run(self):
        run = ClassRun(level=2, params=params(lam=1))
        for _ in range(4):
            run.advance(success=False)
        assert run.estimate == 0
        assert run.done
        assert run.total_steps == 4  # estimation only

    def test_level_zero_single_step(self):
        run = ClassRun(level=0, params=params())
        assert run.total_steps == 1
        step = run.next_step()
        assert isinstance(step, BroadcastStep)
        assert step.position.length == 1
        run.advance(success=True)
        assert run.done

    def test_advance_past_done_rejected(self):
        run = ClassRun(level=0, params=params())
        run.advance(True)
        with pytest.raises(ProtocolViolationError):
            run.advance(True)

    def test_next_step_on_done_rejected(self):
        run = ClassRun(level=0, params=params())
        run.advance(True)
        with pytest.raises(ProtocolViolationError):
            run.next_step()

    def test_full_run_length_matches_lemma6(self):
        run = ClassRun(level=3, params=params(lam=1))
        steps = 0
        while not run.done:
            run.next_step()
            # succeed every estimation slot of phase 1 to force estimate τ·2
            in_est = steps < run.estimation_steps
            run.advance(success=in_est and steps < 3)
            steps += 1
        assert run.estimate == 8  # τ=4 · 2¹, equals 2³ cap exactly
        assert steps == run.total_steps == 2 * 1 * (9 + 8 - 1)


class TestPeckingOrderView:
    def test_origin_must_align(self):
        with pytest.raises(InvalidParameterError):
            PeckingOrderView(params(min_level=2), max_level=3, origin=4)

    def test_max_below_min_rejected(self):
        with pytest.raises(InvalidParameterError):
            PeckingOrderView(params(min_level=4), max_level=3, origin=0)

    def test_slot_ordering_enforced(self):
        v = PeckingOrderView(params(min_level=2), max_level=2, origin=0)
        v.on_slot_start(0)
        with pytest.raises(ProtocolViolationError):
            v.on_slot_start(1)
        v.on_slot_end(0, False)
        with pytest.raises(ProtocolViolationError):
            v.on_slot_end(1, False)

    def test_smallest_unfinished_is_active(self):
        # classes 5 and 6 (λℓ² < 2^ℓ requires ℓ >= 5 at λ = 1)
        p = params(lam=1, min_level=5)
        v = PeckingOrderView(p, max_level=6, origin=0)
        # class 5 estimation (25 steps) holds the channel first
        for t in range(25):
            assert v.on_slot_start(t) == 5
            v.on_slot_end(t, False)  # silent → class-5 estimate 0 → done
        # now class 6 takes over until class 5's next critical time (t=32)
        for t in range(25, 32):
            assert v.on_slot_start(t) == 6
            v.on_slot_end(t, False)
        # t=32: class 5 resets and pre-empts again
        assert v.on_slot_start(32) == 5

    def test_critical_time_resets_class(self):
        p = params(lam=1, min_level=5)
        v = PeckingOrderView(p, max_level=6, origin=0)
        for t in range(32):
            v.on_slot_start(t)
            v.on_slot_end(t, False)
        assert v.on_slot_start(32) == 5
        v.on_slot_end(32, False)
        assert v.run_of(5).steps_taken == 1

    def test_none_when_all_done(self):
        p = params(lam=1, min_level=5)
        v = PeckingOrderView(p, max_level=5, origin=0)
        for t in range(25):  # class-5 estimation, silent → done
            v.on_slot_start(t)
            v.on_slot_end(t, False)
        # remaining slots of the window have no active tracked class
        for t in range(25, 32):
            assert v.on_slot_start(t) is None
            v.on_slot_end(t, False)
        # t=32 starts a fresh class-5 window
        assert v.on_slot_start(32) == 5

    def test_snapshot_shape(self):
        v = PeckingOrderView(params(min_level=2), max_level=4, origin=0)
        v.on_slot_start(0)
        snap = v.snapshot()
        assert len(snap) == 3
        assert snap[0][0] == 2 and snap[-1][0] == 4


class _RescanView:
    """The rule the view keeps incrementally, applied in full every slot:
    reset each class whose size divides ``t``, then make the smallest
    class with an unfinished run active."""

    def __init__(self, params, max_level):
        self.params = params
        self.levels = range(params.min_level, max_level + 1)
        self.runs = {lv: ClassRun(lv, params) for lv in self.levels}
        self.active = None

    def on_slot_start(self, t):
        for lv in self.levels:
            if t % (1 << lv) == 0:
                self.runs[lv] = ClassRun(lv, self.params)
        self.active = next(
            (lv for lv in self.levels if not self.runs[lv].done), None
        )
        return self.active

    def on_slot_end(self, t, success):
        if self.active is not None:
            self.runs[self.active].advance(success)

    def snapshot(self):
        runs = self.runs
        return tuple(
            (lv, runs[lv].steps_taken, runs[lv].estimate, runs[lv].done)
            for lv in self.levels
        )


@given(
    min_level=st.integers(min_value=1, max_value=7),
    extra=st.integers(min_value=0, max_value=3),
    lam=st.sampled_from([1, 2]),
    tau=st.sampled_from([2, 4]),
    windows=st.integers(min_value=0, max_value=3),
    p_success=st.sampled_from([0.0, 0.05, 0.3, 0.7, None]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_incremental_view_matches_a_full_rescan(
    min_level, extra, lam, tau, windows, p_success, seed
):
    """Slot for slot, the view's active class and snapshot equal those
    of a view that rescans every class every slot, over three top-class
    windows of random success bits.  With ``p_success`` None a slot
    succeeds only in its active run's first estimation phase, so the
    estimate is the smallest and broadcasts can run to completion."""
    p = params(lam=lam, tau=tau, min_level=min_level)
    max_level = min_level + extra
    origin = windows << max_level
    view = PeckingOrderView(p, max_level=max_level, origin=origin)
    ref = _RescanView(p, max_level)
    rnd = random.Random(seed)
    for t in range(origin, origin + (3 << max_level)):
        active = ref.on_slot_start(t)
        assert view.on_slot_start(t) == active
        assert view.snapshot() == ref.snapshot()
        if p_success is not None:
            success = rnd.random() < p_success
        else:
            success = (
                active is not None
                and ref.runs[active].steps_taken < lam * active
            )
        view.on_slot_end(t, success)
        ref.on_slot_end(t, success)
        assert view.snapshot() == ref.snapshot()
