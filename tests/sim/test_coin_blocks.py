"""Coin flips drawn in blocks: :meth:`ProtocolContext.random`.

A context reads its job's stream :data:`COIN_BLOCK` values at a time and
hands them out in order, so a protocol that draws through
``ctx.random()`` alone sees exactly the values of successive
``rng.random()`` calls.  A protocol that mixed the two would not: its
direct ``rng`` draws would take values meant for later coins.  The
engine tests below run every protocol the registry offers with and
without the blocks and require identical results, which holds only if
no protocol mixes them.
"""

import pickle

import numpy as np
import pytest

from repro.channel.jamming import StochasticJammer
from repro.registry import KNOB_DEFAULTS, STREAM_PROTOCOLS, protocol_factories
from repro.sim.engine import simulate
from repro.sim.instance import Instance
from repro.sim.protocolbase import COIN_BLOCK, ProtocolContext
from repro.stream.arrivals import PoissonProcess
from repro.stream.engine import StreamBudget, stream_simulate
from repro.workloads import batch_instance

INSTANCE = batch_instance(12, window=512)
JAMMERS = [
    pytest.param(lambda: None, id="clean"),
    pytest.param(lambda: StochasticJammer(0.25), id="jammed"),
]


def _scalar_coins(monkeypatch):
    """Make every coin one scalar draw, as before blocks."""
    monkeypatch.setattr(ProtocolContext, "random", lambda self: self.rng.random())


class TestRandom:
    def test_matches_successive_scalar_draws(self):
        ctx = ProtocolContext(0, 64, np.random.default_rng(7))
        ref = np.random.default_rng(7)
        n = 3 * COIN_BLOCK + 5  # across three block boundaries
        assert [ctx.random() for _ in range(n)] == [ref.random() for _ in range(n)]

    def test_pickle_mid_block_resumes_the_sequence(self):
        ctx = ProtocolContext(0, 64, np.random.default_rng(11))
        ref = np.random.default_rng(11)
        head = [ctx.random() for _ in range(COIN_BLOCK + 9)]
        assert ctx._coins  # part of the second block is unread
        ctx = pickle.loads(pickle.dumps(ctx))
        tail = [ctx.random() for _ in range(2 * COIN_BLOCK)]
        assert head + tail == [ref.random() for _ in range(3 * COIN_BLOCK + 9)]

    def test_context_pickled_without_a_block_draws_from_its_generator(self):
        # The state a context pickled before blocks carries.
        rng = np.random.default_rng(3)
        rng.random(5)
        ctx = ProtocolContext.__new__(ProtocolContext)
        ctx.__setstate__((None, {"job_id": 4, "window": 64, "rng": rng}))
        ref = np.random.default_rng(3)
        ref.random(5)
        assert ctx._coins == []
        assert [ctx.random() for _ in range(70)] == [ref.random() for _ in range(70)]


def _outcomes(res):
    return res.slots_simulated, [
        (o.job.job_id, o.status, o.completion_slot, o.transmissions)
        for o in res.outcomes
    ]


@pytest.mark.parametrize("make_jammer", JAMMERS)
@pytest.mark.parametrize("name", sorted(protocol_factories(KNOB_DEFAULTS, INSTANCE)))
def test_engine_results_do_not_depend_on_blocks(monkeypatch, name, make_jammer):
    def run():
        factory = protocol_factories(KNOB_DEFAULTS, INSTANCE)[name]
        return _outcomes(simulate(INSTANCE, factory, seed=2, jammer=make_jammer()))

    blocked = run()
    _scalar_coins(monkeypatch)
    assert run() == blocked


@pytest.mark.parametrize("make_jammer", JAMMERS)
@pytest.mark.parametrize("name", STREAM_PROTOCOLS)
def test_stream_results_do_not_depend_on_blocks(monkeypatch, name, make_jammer):
    def run():
        factory = protocol_factories(KNOB_DEFAULTS, Instance(()))[name]
        res = stream_simulate(
            PoissonProcess(rate=0.2, window_sizes=(64, 256)),
            factory,
            seed=4,
            max_jobs=150,
            budget=StreamBudget(max_live=16, policy="shed-loosest-deadline"),
            jammer=make_jammer(),
            record_outcomes=True,
        )
        return res.to_dict(), res.outcomes

    blocked = run()
    _scalar_coins(monkeypatch)
    assert run() == blocked
