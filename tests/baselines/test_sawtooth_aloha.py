"""Unit tests for sawtooth backoff and slotted ALOHA."""

import numpy as np
import pytest

from repro.baselines.aloha import (
    SlottedAloha,
    aloha_factory,
    window_scaled_aloha_factory,
)
from repro.baselines.sawtooth import SawtoothBackoff, sawtooth_factory
from repro.channel.feedback import Observation
from repro.errors import InvalidParameterError
from repro.sim.engine import simulate
from repro.sim.instance import Instance
from repro.sim.job import Job
from repro.sim.protocolbase import ProtocolContext


def ctx(seed=0, window=1024):
    return ProtocolContext(0, window, np.random.default_rng(seed))


class TestSawtoothStructure:
    def test_initial_run_validated(self):
        with pytest.raises(InvalidParameterError):
            SawtoothBackoff(ctx(), initial_run=1)

    def test_probability_sweeps_upward(self):
        p = SawtoothBackoff(ctx(), initial_run=4)
        p.begin(0)
        probs = []
        for t in range(4 + 2 + 1 + 1):  # rounds of sizes 4,2,1,1(next run)
            p.act(t)
            probs.append(p.last_p)
            p.observe(t, Observation.silence())
        # first four slots at 1/4, next two at 1/2, then 1
        assert probs[:4] == [0.25] * 4
        assert probs[4:6] == [0.5] * 2
        assert probs[6] == 1.0

    def test_run_doubles_after_exhaustion(self):
        p = SawtoothBackoff(ctx(), initial_run=2)
        p.begin(0)
        # run 1: rounds 2 (2 slots), 1 (1 slot) = 3 slots; then run 4
        for t in range(3):
            p.act(t)
            p.observe(t, Observation.silence())
        assert p.run_size == 4
        assert p.round_size == 4

    def test_end_to_end_batch(self):
        inst = Instance([Job(i, 0, 2048) for i in range(16)])
        res = simulate(inst, sawtooth_factory(), seed=0)
        assert res.success_rate >= 0.9


class TestAloha:
    def test_probability_validation(self):
        with pytest.raises(InvalidParameterError):
            SlottedAloha(ctx(), p=0.0)
        with pytest.raises(InvalidParameterError):
            SlottedAloha(ctx(), p=1.5)

    def test_transmission_rate_matches_p(self):
        p = SlottedAloha(ctx(seed=3), p=0.25)
        p.begin(0)
        n = 4000
        tx = 0
        for t in range(n):
            if p.act(t) is not None:
                tx += 1
            p.observe(t, Observation.noise(transmitted=False))
        assert 0.22 < tx / n < 0.28

    def test_a_send_draws_no_coin_ahead(self):
        """Coins are drawn up to the slot whose coin comes up, and the
        next ones only at the next act: a job whose send succeeds draws
        no more."""

        class Counting(ProtocolContext):
            __slots__ = ("drawn",)

            def random(self):
                self.drawn += 1
                return super().random()

        c = Counting(0, 1024, np.random.default_rng(3))
        c.drawn = 0
        p = SlottedAloha(c, p=0.25)
        p.begin(0)
        t = p.wake
        assert c.drawn == t + 1
        assert p.act(t) is not None
        assert c.drawn == t + 1

    def test_window_scaled_factory(self):
        make = window_scaled_aloha_factory(c=4.0)
        p = make(Job(0, 0, 100), np.random.default_rng(0))
        assert p.p == pytest.approx(0.04)

    def test_window_scaled_caps_at_half(self):
        make = window_scaled_aloha_factory(c=4.0)
        p = make(Job(0, 0, 2), np.random.default_rng(0))
        assert p.p == 0.5

    def test_window_scaled_validates_c(self):
        with pytest.raises(InvalidParameterError):
            window_scaled_aloha_factory(c=0)

    def test_lone_job_succeeds(self):
        inst = Instance([Job(0, 0, 256)])
        res = simulate(inst, aloha_factory(0.25), seed=1)
        assert res.n_succeeded == 1

    def test_overload_fails(self):
        # 64 jobs at p=0.5: constant collisions
        inst = Instance([Job(i, 0, 64) for i in range(64)])
        res = simulate(inst, aloha_factory(0.5), seed=1)
        assert res.success_rate < 0.1
