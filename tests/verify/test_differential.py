"""The differential runner: replay fidelity, parity, shrinking."""

import numpy as np
import pytest

from repro.core.uniform import uniform_factory
from repro.errors import InvalidParameterError
from repro.fastpath.uniform_fast import simulate_uniform_fast
from repro.sim.engine import simulate
from repro.sim.instance import Instance
from repro.sim.job import Job
from repro.verify import VerifyCase, corpus_case
from repro.verify.differential import (
    diff_aligned_kernel,
    diff_anarchist_kernel,
    diff_broadcast_kernel,
    diff_estimation_kernel,
    diff_streaming_equivalence,
    diff_uniform_dominance,
    diff_uniform_exact,
    diff_uniform_statistical,
    expected_uniform_slots,
    replay_uniform_picks,
    shrink_failing_instance,
)


class TestReplay:
    def test_replayed_offsets_reproduce_engine_outcomes(self):
        """The replayed picks, pushed through the kernel, match the engine."""
        case = corpus_case("uniform-batch")
        for seed in (0, 5, 9):
            instance = case.instance()
            picks = replay_uniform_picks(instance, seed)
            offsets = np.array([int(p[0]) for p in picks], dtype=np.int64)
            engine = simulate(instance, uniform_factory(), seed=seed)
            fast = simulate_uniform_fast(
                instance, np.random.default_rng(0), offsets=offsets
            )
            assert [o.succeeded for o in engine.outcomes] == [
                bool(b) for b in fast.success
            ]
            assert engine.n_succeeded == fast.n_succeeded

    def test_offsets_are_in_window(self):
        instance = corpus_case("uniform-sparse").instance()
        for p, job in zip(
            replay_uniform_picks(instance, 3), instance.by_release
        ):
            assert 0 <= int(p[0]) < job.window


class TestExpectedSlots:
    def test_single_job(self):
        inst = Instance([Job(0, 10, 20)])
        assert expected_uniform_slots(inst, [4]) == 5  # slots 10..14

    def test_disjoint_intervals(self):
        inst = Instance([Job(0, 0, 8), Job(1, 100, 108)])
        assert expected_uniform_slots(inst, [2, 3]) == 3 + 4

    def test_overlapping_intervals_merge(self):
        inst = Instance([Job(0, 0, 16), Job(1, 4, 20)])
        # [0, 9] and [4, 11] merge into [0, 11]
        assert expected_uniform_slots(inst, [9, 7]) == 12

    def test_adjacent_intervals_are_contiguous(self):
        inst = Instance([Job(0, 0, 8), Job(1, 3, 11)])
        # [0, 2] and [3, 5]: the engine never goes idle between them
        assert expected_uniform_slots(inst, [2, 2]) == 6

    def test_matches_engine_on_corpus(self):
        for name in ("uniform-batch", "uniform-sparse", "uniform-staggered"):
            case = corpus_case(name)
            for seed in case.seeds:
                instance = case.instance()
                offs = [
                    int(p[0]) for p in replay_uniform_picks(instance, seed)
                ]
                engine = simulate(instance, uniform_factory(), seed=seed)
                assert engine.slots_simulated == expected_uniform_slots(
                    instance, offs
                ), f"{name} seed {seed}"


class TestUniformExact:
    @pytest.mark.parametrize(
        "name", ["uniform-batch", "uniform-sparse", "uniform-staggered"]
    )
    def test_corpus_cases_agree(self, name):
        case = corpus_case(name)
        for seed in case.seeds:
            assert diff_uniform_exact(case, seed) == []

    def test_detects_a_planted_divergence(self):
        """A case whose kernel sees different offsets must be flagged."""
        base = corpus_case("uniform-batch")
        # Sabotage: a protocol whose jobs always pick offset 0 while the
        # replay still predicts the honest draws — guaranteed mismatch
        # (16 jobs colliding in slot 0 succeed nowhere).
        from repro.params import UniformParams
        from repro.core.uniform import UniformProtocol
        from repro.sim.protocolbase import ProtocolContext

        class PinnedUniform(UniformProtocol):
            def on_begin(self, slot):
                super().on_begin(slot)
                self.chosen = {0}

        def degenerate_factory():
            def make(job, rng):
                return PinnedUniform(
                    ProtocolContext.for_job(job, rng), UniformParams()
                )

            return make

        broken = VerifyCase(
            name="sabotaged",
            build=base.build,
            protocol=degenerate_factory,
            seeds=(0,),
            kind="uniform-exact",
        )
        found = diff_uniform_exact(broken, 0)
        assert found
        assert any("succeeded" in d.quantity for d in found)


class TestUniformDominance:
    def test_corpus_case_dominates(self):
        case = corpus_case("uniform-two-attempts")
        for seed in case.seeds:
            assert diff_uniform_dominance(case, seed) == []


class TestUniformStatistical:
    def test_jammed_rates_agree(self):
        assert diff_uniform_statistical(corpus_case("uniform-jammed")) == []


class TestKernelPairedDraws:
    @pytest.mark.parametrize(
        "check",
        [
            diff_estimation_kernel,
            diff_broadcast_kernel,
            diff_anarchist_kernel,
            diff_aligned_kernel,
        ],
    )
    def test_kernels_match_naive_references(self, check):
        for seed in (0, 1, 7):
            assert check(seed) == []


class TestOffsetsParameter:
    def test_rejects_multi_attempt_offsets(self):
        inst = Instance([Job(0, 0, 8)])
        with pytest.raises(InvalidParameterError):
            simulate_uniform_fast(
                inst, np.random.default_rng(0),
                attempts=2, offsets=np.array([1]),
            )

    def test_rejects_wrong_length(self):
        inst = Instance([Job(0, 0, 8), Job(1, 0, 8)])
        with pytest.raises(InvalidParameterError):
            simulate_uniform_fast(
                inst, np.random.default_rng(0), offsets=np.array([1])
            )

    def test_rejects_out_of_window(self):
        inst = Instance([Job(0, 0, 8)])
        with pytest.raises(InvalidParameterError):
            simulate_uniform_fast(
                inst, np.random.default_rng(0), offsets=np.array([8])
            )

    def test_offsets_bypass_the_rng(self):
        inst = Instance([Job(0, 0, 8), Job(1, 0, 8)])
        a = simulate_uniform_fast(
            inst, np.random.default_rng(1), offsets=np.array([2, 5])
        )
        b = simulate_uniform_fast(
            inst, np.random.default_rng(99), offsets=np.array([2, 5])
        )
        assert list(a.success) == list(b.success) == [True, True]


class TestShrink:
    def test_minimizes_to_the_colliding_pair(self):
        """Planted failure: two specific jobs collide; shrink keeps them."""
        jobs = [Job(i, 0, 64) for i in range(10)]
        inst = Instance(jobs)

        def fails(candidate, seed):
            ids = {j.job_id for j in candidate.jobs}
            return {3, 7} <= ids

        minimal = shrink_failing_instance(inst, 0, fails)
        assert sorted(j.job_id for j in minimal.jobs) == [3, 7]

    def test_keeps_single_job_floor(self):
        inst = Instance([Job(0, 0, 8), Job(1, 0, 8)])
        minimal = shrink_failing_instance(inst, 0, lambda c, s: True)
        assert len(minimal) == 1

    def test_preserves_job_ids(self):
        jobs = [Job(i * 10, 0, 64) for i in range(6)]

        def fails(candidate, seed):
            return any(j.job_id == 30 for j in candidate.jobs)

        minimal = shrink_failing_instance(Instance(jobs), 0, fails)
        assert [j.job_id for j in minimal.jobs] == [30]


class TestStreamingEquivalence:
    def test_agreeing_drivers_pass(self):
        assert diff_streaming_equivalence(corpus_case("stream-diurnal-jammed"), 0) == []

    def test_energy_and_telemetry_drift_is_reported(self, monkeypatch):
        """A streaming side that miscounts energy is caught even when every
        per-job outcome still agrees."""
        import repro.verify.differential as differential

        real = differential.stream_simulate

        def drifted(*args, **kwargs):
            res = real(*args, **kwargs)
            res.channel_attempts += 1
            res.jammed_transmissions += 1
            kwargs["telemetry"].metrics.counter("jobs.energy").inc()
            return res

        monkeypatch.setattr(differential, "stream_simulate", drifted)
        found = diff_streaming_equivalence(corpus_case("stream-diurnal-jammed"), 0)
        assert {d.quantity for d in found} == {
            "channel_attempts",
            "jammed_transmissions",
            "telemetry jobs.energy",
        }
