"""Block-derived job streams: equal to the SeedSequence path, bounded, picklable."""

import pickle

import numpy as np
import pytest

from repro.baselines.beb import beb_factory
from repro.baselines.sawtooth import sawtooth_factory
from repro.channel.jamming import StochasticJammer
from repro.faults import ClockFault, FaultPlan, JobFault
from repro.sim.engine import simulate
from repro.sim.rng import RngFactory
from repro.stream.arrivals import PoissonProcess, materialize
from repro.stream.engine import StreamBudget, stream_simulate


def seed_kind(rng):
    return type(rng.bit_generator.seed_seq).__name__


class TestPrepare:
    def test_words_are_consumed_once(self):
        f = RngFactory(1)
        f.prepare("job", [5])
        first, again = f.fresh("job", 5), f.fresh("job", 5)
        assert seed_kind(first) == "_DerivedSeed"
        assert seed_kind(again) == "SeedSequence"
        assert first.bit_generator.state == again.bit_generator.state

    def test_other_labels_take_the_reference_path(self):
        f = RngFactory(1)
        f.prepare("job", [0])
        assert seed_kind(f.fresh("fault-job", 0)) == "SeedSequence"

    def test_a_third_block_drops_the_oldest(self):
        f = RngFactory(0)
        for start in (0, 10, 20):
            f.prepare("job", range(start, start + 10))
        assert seed_kind(f.fresh("job", 5)) == "SeedSequence"
        assert seed_kind(f.fresh("job", 15)) == "_DerivedSeed"
        assert seed_kind(f.fresh("job", 25)) == "_DerivedSeed"

    def test_negative_seed_raises_the_seedsequence_error(self):
        with pytest.raises(ValueError) as ours:
            RngFactory(-1)
        with pytest.raises(ValueError) as numpy_error:
            np.random.SeedSequence(-1)
        assert str(ours.value) == str(numpy_error.value)

    def test_derived_seed_serves_only_pcg64s_request(self):
        f = RngFactory(0)
        f.prepare("job", [0])
        seq = f.fresh("job", 0).bit_generator.seed_seq
        with pytest.raises(ValueError):
            seq.generate_state(8)


class TestPickling:
    def test_block_derived_generator_resumes_mid_stream(self):
        f = RngFactory(11)
        f.prepare("job", range(4))
        g = f.fresh("job", 2)
        g.random(17)
        h = pickle.loads(pickle.dumps(g))
        assert seed_kind(h) == "_DerivedSeed"
        assert h.random(50).tolist() == g.random(50).tolist()
        assert h.integers(0, 1000, 20).tolist() == g.integers(0, 1000, 20).tolist()

    def test_pickled_factory_drops_held_words(self):
        f = RngFactory(9)
        chan = f.stream("channel")
        chan.random(3)
        f.prepare("job", range(8))
        g = pickle.loads(pickle.dumps(f))
        assert g.seed == 9
        assert g.stream("channel").random() == chan.random()
        assert seed_kind(g.fresh("job", 1)) == "SeedSequence"
        assert seed_kind(f.fresh("job", 1)) == "_DerivedSeed"

    def test_factory_pickled_before_prepare_existed_loads(self):
        old = RngFactory.__new__(RngFactory)
        chan = np.random.default_rng(7)
        old.__setstate__(
            {"seed": 4, "_root": np.random.SeedSequence(4), "_cache": {("c", 0): chan}}
        )
        assert not hasattr(old, "_root")
        assert old.stream("c") is chan
        old.prepare("job", [0])
        assert seed_kind(old.fresh("job", 0)) == "_DerivedSeed"


# -- both engines: prepared runs equal unprepared ones ---------------------


def spy(factory, kinds):
    def make(job, rng):
        kinds.append(seed_kind(rng))
        return factory(job, rng)

    return make


def unprepared(monkeypatch):
    monkeypatch.setattr(RngFactory, "prepare", lambda self, label, ids: None)


PROCESS = PoissonProcess(rate=0.4, window_sizes=(16, 64))


def test_simulate_with_job_and_clock_faults(monkeypatch):
    instance = materialize(PROCESS, RngFactory(8).stream("arrivals"), 1500)
    assert len(instance) > 2 * 256
    plan = FaultPlan(
        jobs=JobFault(p_late=0.3, max_delay=40, p_crash=0.1),
        clock=ClockFault(max_skew=3, drift=0.05),
    )

    def run(kinds):
        return simulate(
            instance, spy(beb_factory(), kinds), seed=8, faults=plan,
            jammer=StochasticJammer(0.2),
        )

    fast_kinds, ref_kinds = [], []
    fast = run(fast_kinds)
    unprepared(monkeypatch)
    ref = run(ref_kinds)
    assert fast == ref
    assert set(ref_kinds) == {"SeedSequence"}
    assert fast_kinds.count("_DerivedSeed") == len(fast_kinds) == len(instance)


def stream_run(policy, kinds):
    res = stream_simulate(
        PROCESS,
        spy(sawtooth_factory(), kinds),
        seed=21,
        max_jobs=1200,
        budget=StreamBudget(max_live=6, policy=policy, queue_capacity=400),
        jammer=StochasticJammer(0.25),
        record_outcomes=True,
    )
    return res.to_dict(), res.outcomes, res.latency_sample.values.tolist()


@pytest.mark.parametrize("policy", ["block", "shed-loosest-deadline"])
def test_stream_under_budget(monkeypatch, policy):
    fast_kinds, ref_kinds = [], []
    fast = stream_run(policy, fast_kinds)
    unprepared(monkeypatch)
    assert fast == stream_run(policy, ref_kinds)
    assert fast[0]["jobs_shed"] > 0
    assert set(ref_kinds) == {"SeedSequence"}
    assert fast_kinds.count("_DerivedSeed") > 0.9 * len(fast_kinds)


def test_shedding_stream_holds_at_most_two_blocks(monkeypatch):
    held = []
    prepare = RngFactory.prepare

    def record(self, label, ids):
        prepare(self, label, ids)
        held.append(sum(len(words) for _, words in self._held))

    monkeypatch.setattr(RngFactory, "prepare", record)
    res = stream_simulate(
        PoissonProcess(rate=0.5, window_sizes=(16, 64)),
        sawtooth_factory(),
        seed=2,
        max_jobs=5000,
        budget=StreamBudget(max_live=4, policy="shed-newest"),
    )
    assert res.jobs_shed > 0
    assert len(held) == 5000 // 256 + 1
    assert max(held) <= 512
