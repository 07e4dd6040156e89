"""The streaming driver on the shared slot core: hooks, energy, progress.

The closed-engine equivalence itself is pinned in ``test_engine.py``;
these tests cover what the stream gained from running on
:class:`~repro.sim.engine.SlotCore`: channel-access energy, the
invariant checker, telemetry, and checkpoints that never carry the
caller's hooks.
"""

from repro.baselines.sawtooth import sawtooth_factory
from repro.channel.jamming import StochasticJammer
from repro.core.uniform import uniform_factory
from repro.obs import Telemetry
from repro.sim.engine import simulate
from repro.sim.invariants import InvariantChecker
from repro.sim.rng import RngFactory
from repro.stream.arrivals import PoissonProcess, materialize
from repro.stream.checkpoint import CheckpointConfig, load_checkpoint
from repro.stream.engine import StreamBudget, stream_simulate

POISSON = PoissonProcess(rate=0.2, window_sizes=(16, 64))
JAM = 0.25

#: ``StreamResult.to_dict()`` is the report row format, and the
#: benchmark fingerprints its exact output: new fields stay out of it.
TO_DICT_KEYS = {
    "seed", "process", "offered_load", "budget", "jobs_released",
    "jobs_admitted", "jobs_succeeded", "jobs_missed", "jobs_gave_up",
    "jobs_shed", "shed", "transmissions", "slots_simulated", "final_slot",
    "silence_slots", "success_slots", "collision_slots", "jammed_slots",
    "peak_live", "checkpoints_written", "resumed_at_slot", "success_rate",
    "miss_rate", "loss_rate", "throughput", "latency_p50", "latency_p99",
    "latency_p999", "watchdog",
}


def test_to_dict_keys_are_pinned():
    res = stream_simulate(POISSON, sawtooth_factory(), seed=0, max_jobs=50)
    assert set(res.to_dict()) == TO_DICT_KEYS


class TestEnergy:
    def test_channel_attempts_conserved_with_evictions(self):
        res = stream_simulate(
            PoissonProcess(rate=0.5, window_sizes=(16, 64)),
            sawtooth_factory(),
            seed=1,
            max_jobs=1500,
            budget=StreamBudget(max_live=8, policy="shed-loosest-deadline"),
            jammer=StochasticJammer(JAM),
        )
        assert res.shed.get("evicted", 0) > 0
        assert res.channel_attempts == res.transmissions > 0
        assert 0 < res.jammed_transmissions <= res.transmissions

    def test_energy_matches_closed_engine(self):
        horizon = 1500
        instance = materialize(
            POISSON, RngFactory(3).stream("arrivals"), horizon
        )
        closed = simulate(
            instance, sawtooth_factory(), seed=3, jammer=StochasticJammer(JAM)
        )
        stream = stream_simulate(
            POISSON, sawtooth_factory(), seed=3, max_slots=horizon,
            jammer=StochasticJammer(JAM),
        )
        assert stream.channel_attempts == closed.channel_attempts
        assert stream.jammed_transmissions == closed.jammed_energy
        assert stream.transmissions == closed.total_energy

    def test_merge_sums_energy(self):
        a = stream_simulate(
            POISSON, sawtooth_factory(), seed=0, max_jobs=200,
            jammer=StochasticJammer(JAM),
        )
        b = stream_simulate(
            POISSON, sawtooth_factory(), seed=1, max_jobs=300,
            jammer=StochasticJammer(JAM),
        )
        m = a.merge(b)
        assert m.channel_attempts == a.channel_attempts + b.channel_attempts
        assert m.jammed_transmissions == (
            a.jammed_transmissions + b.jammed_transmissions
        )


class TestHooks:
    def test_invariants_and_telemetry_attach(self):
        tele = Telemetry()
        checker = InvariantChecker()
        res = stream_simulate(
            POISSON, sawtooth_factory(), seed=2, max_jobs=400,
            jammer=StochasticJammer(JAM), invariants=checker, telemetry=tele,
        )
        assert checker.slots_checked == res.slots_simulated
        counters = tele.metrics.snapshot()
        assert counters["engine.slots"] == res.slots_simulated
        assert counters["engine.transmissions"] == res.channel_attempts
        assert counters["jobs.total"] == res.jobs_released
        assert counters["jobs.succeeded"] == res.jobs_succeeded
        assert counters["jobs.gave_up"] == res.jobs_gave_up
        assert counters["jobs.energy"] == res.transmissions
        assert counters["jobs.energy_jammed"] == res.jammed_transmissions
        events = tele.events.counts
        assert events["job.activated"] == res.jobs_admitted
        assert events["run.started"] == events["run.finished"] == 1

    def test_hooks_never_change_results(self):
        plain = stream_simulate(
            POISSON, sawtooth_factory(), seed=4, max_jobs=400,
            jammer=StochasticJammer(JAM),
        )
        hooked = stream_simulate(
            POISSON, sawtooth_factory(), seed=4, max_jobs=400,
            jammer=StochasticJammer(JAM), invariants=True,
            telemetry=Telemetry(),
        )
        assert hooked.to_dict() == plain.to_dict()

    def test_checkpoint_holds_the_core_but_no_hooks(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        busy = PoissonProcess(rate=0.3, window_sizes=(16, 64))
        tele = Telemetry()
        full = stream_simulate(
            busy, sawtooth_factory(), seed=5, max_jobs=1200,
            checkpoint=CheckpointConfig(path, every_slots=500),
            telemetry=tele, invariants=True,
        )
        state, _ = load_checkpoint(path)
        core = state["core"]
        assert core.protos  # a live set was checkpointed mid-run
        for hook in ("factory", "checker", "tele", "recorder", "wd"):
            assert not hasattr(core, hook)
        assert core.sink.log is None  # protocols' event sink, emptied

        resumed_tele = Telemetry()
        resumed = stream_simulate(
            busy, sawtooth_factory(), seed=5, max_jobs=1200,
            checkpoint=CheckpointConfig(path, every_slots=500), resume=True,
            telemetry=resumed_tele, invariants=True,
        )
        comparable = lambda r: {  # noqa: E731
            k: v for k, v in r.to_dict().items()
            if k not in ("checkpoints_written", "resumed_at_slot")
        }
        assert comparable(resumed) == comparable(full)
        # the resumed run reports into its own telemetry only
        assert resumed_tele.events.counts["run.finished"] == 1
        assert len(tele.events) > len(resumed_tele.events) > 0


def test_progress_reaches_max_jobs_with_gave_up_jobs():
    calls = []
    res = stream_simulate(
        PoissonProcess(rate=0.3, window_sizes=(16, 64, 256)),
        uniform_factory(),
        seed=0,
        max_jobs=2000,
        progress=lambda done, total: calls.append((done, total)),
    )
    assert res.jobs_gave_up > 0  # UNIFORM gives up once its slot passed
    assert res.jobs_resolved == res.jobs_released == 2000
    assert calls[-1] == (2000, 2000)
    assert all(a <= b for (a, _), (b, _) in zip(calls, calls[1:]))
