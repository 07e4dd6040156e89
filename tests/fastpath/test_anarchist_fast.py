"""Tests for PUNCTUAL's anarchist stage, as the full kernel plays it."""

import numpy as np

from repro.core.rounds import ROUND_LENGTH
from repro.fastpath.punctual_full import _run_anarchy
from repro.params import AlignedParams, PunctualParams


def pp():
    return PunctualParams(
        aligned=AlignedParams(lam=1, tau=2, min_level=10),
        lam=2,
        pullback_exp=1,
        slingshot_exp=2,
    )


def run(n_jobs, window, rng, *, p_jam=0.0):
    """A cohort of ``n_jobs`` anarchists over the anarchy slots of one
    window; returns the slots and the per-job success, completion and
    retirement arrays."""
    slots = np.arange(9, window, ROUND_LENGTH, dtype=np.int64)
    success = np.zeros(n_jobs, dtype=bool)
    completion = np.full(n_jobs, -1, dtype=np.int64)
    retire = np.full(n_jobs, window, dtype=np.int64)
    _run_anarchy(
        np.arange(n_jobs), slots, pp().anarchist_probability(window), rng,
        p_jam, success, completion, retire,
    )
    return slots, success, completion, retire


def rate(n_jobs, window, seeds, p_jam=0.0):
    ok = sum(
        int(run(n_jobs, window, np.random.default_rng(s), p_jam=p_jam)[1].sum())
        for s in seeds
    )
    return ok / (n_jobs * len(seeds))


class TestBasics:
    def test_empty_cohort(self):
        """No anarchist, no draw."""
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        _, success, _, _ = run(0, 4096, rng)
        assert success.size == 0
        assert rng.bit_generator.state == before

    def test_small_cohort_succeeds(self):
        assert rate(6, 4096, range(30)) >= 0.95

    def test_saturated_cohort_collapses(self):
        """Contention n·p ≫ 1 ⇒ almost nothing gets through — the regime
        boundary Lemma 18's anarchist bound exists to avoid."""
        assert rate(400, 4096, [1]) < 0.3

    def test_winners_complete_and_retire_in_distinct_anarchy_slots(self):
        for seed in range(10):
            slots, success, completion, retire = run(
                20, 2048, np.random.default_rng(seed), p_jam=0.3
            )
            won = completion[success]
            assert set(won.tolist()) <= set(slots.tolist())
            assert len(set(won.tolist())) == won.size
            assert (retire[success] == won).all()
            assert (completion[~success] == -1).all()
            assert (retire[~success] == 2048).all()

    def test_jamming_halves_success(self):
        assert rate(10, 2048, range(40), p_jam=0.9) < rate(10, 2048, range(40))


class TestMatchesEngine:
    def test_distribution_matches_punctual_small_batch(self):
        """The PUNCTUAL kernel, whose cohort goes anarchist on this shape
        (its trimmed window is below ``min_level``), must track the real
        protocol's success rate."""
        from repro.core.punctual import punctual_factory
        from repro.fastpath import simulate_punctual_full
        from repro.sim.engine import simulate
        from repro.workloads import batch_instance

        inst = batch_instance(6, window=3000)
        engine_ok = engine_tot = 0
        for s in range(6):
            res = simulate(inst, punctual_factory(pp()), seed=s)
            engine_ok += res.n_succeeded
            engine_tot += len(res)
        fast_ok = fast_tot = 0
        for s in range(40):
            r = simulate_punctual_full(inst, pp(), np.random.default_rng(s))
            fast_ok += r.n_succeeded
            fast_tot += r.success.size
        assert abs(engine_ok / engine_tot - fast_ok / fast_tot) < 0.15
