"""Unit tests for the UNIFORM protocol."""

import numpy as np
import pytest

from repro.core.uniform import UniformProtocol, draw_offset, uniform_factory
from repro.params import UniformParams
from repro.sim.engine import simulate
from repro.sim.instance import Instance
from repro.sim.job import Job, JobStatus
from repro.sim.protocolbase import ProtocolContext


def proto(job_id=0, window=16, attempts=1, seed=0):
    return UniformProtocol(
        ProtocolContext(job_id, window, np.random.default_rng(seed)),
        UniformParams(attempts=attempts),
    )


class TestChoice:
    def test_chooses_attempts_distinct_slots(self):
        p = proto(window=16, attempts=4)
        p.begin(0)
        assert len(p.chosen) == 4
        assert all(0 <= a < 16 for a in p.chosen)

    def test_small_window_uses_all_slots(self):
        p = proto(window=2, attempts=5)
        p.begin(0)
        assert p.chosen == {0, 1}

    def test_transmits_exactly_at_chosen(self):
        p = proto(window=8, attempts=2)
        p.begin(10)
        tx_ages = []
        from repro.channel.feedback import Observation

        for t in range(10, 18):
            msg = p.act(t)
            if msg is not None:
                tx_ages.append(t - 10)
            if p.done:
                break
            p.observe(t, Observation.noise(transmitted=msg is not None))
        assert set(tx_ages) == p.chosen

    def test_gives_up_after_last_attempt(self):
        from repro.channel.feedback import Observation

        p = proto(window=8, attempts=1)
        p.begin(0)
        last = max(p.chosen)
        for t in range(last + 1):
            msg = p.act(t)
            p.observe(t, Observation.noise(transmitted=msg is not None))
        assert p.gave_up

    def test_marginal_probability_reported(self):
        from repro.channel.feedback import Observation

        p = proto(window=10, attempts=2)
        p.begin(0)
        p.act(0)
        assert p.last_p == pytest.approx(0.2)


class TestEndToEnd:
    def test_lone_job_always_succeeds(self):
        for seed in range(10):
            inst = Instance([Job(0, 0, 32)])
            res = simulate(inst, uniform_factory(), seed=seed)
            assert res.n_succeeded == 1

    def test_sparse_jobs_mostly_succeed(self):
        # 8 jobs in a window of 1024: collisions very unlikely
        inst = Instance([Job(i, 0, 1024) for i in range(8)])
        res = simulate(inst, uniform_factory(), seed=3)
        assert res.n_succeeded >= 7

    def test_saturated_jobs_mostly_fail(self):
        # 64 jobs, window 4: nearly everything collides
        inst = Instance([Job(i, 0, 4) for i in range(64)])
        res = simulate(inst, uniform_factory(), seed=3)
        assert res.n_succeeded <= 4

    def test_uniform_distribution_of_choice(self):
        """The chosen slot is uniform over the window."""
        counts = np.zeros(8)
        for seed in range(2000):
            p = proto(window=8, seed=seed)
            p.begin(0)
            counts[next(iter(p.chosen))] += 1
        # each slot expected 250; loose 4-sigma band
        assert np.all(counts > 150) and np.all(counts < 350)


class TestDrawOffset:
    """``draw_offset`` is numpy's one-element ``choice``, bit for bit.

    The engine's UNIFORM once drew ``choice(w, size=1, replace=False)``;
    the goldens, the engine reference pins and the kernel's bit-exact
    replay all rest on ``integers(w)`` returning the same value and
    leaving the stream in the same state.  A numpy release that changes
    either draw fails here.
    """

    WINDOWS = sorted(
        set(range(1, 4097))
        | {(1 << k) + d for k in range(13, 40) for d in (-1, 0, 1)}
    )

    @staticmethod
    def _streams(seed, buffered):
        # Two generators in one state; ``buffered`` leaves a 32-bit half
        # in the bit generator, which a 32-bit bounded draw consumes.
        a = np.random.default_rng(seed)
        if buffered:
            a.integers(3)
            assert a.bit_generator.state["has_uint32"] == 1
        b = np.random.Generator(np.random.PCG64())
        b.bit_generator.state = a.bit_generator.state
        return a, b

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
    def test_same_value_and_same_state_as_choice(self, buffered):
        for w in self.WINDOWS:
            a, b = self._streams(w, buffered)
            expected = b.choice(w, size=1, replace=False)[0]
            assert draw_offset(a, w) == expected, w
            assert a.bit_generator.state == b.bit_generator.state, w

    def test_protocol_draws_through_it(self):
        p = proto(window=1000, seed=11)
        p.begin(0)
        assert p.chosen == {int(np.random.default_rng(11).integers(1000))}
