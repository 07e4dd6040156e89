"""Kernel trials file misses under the engine's ``jobs.*`` counters."""

from repro.channel.jamming import StochasticJammer
from repro.experiments.parallel import run_seeds
from repro.obs.telemetry import Telemetry
from repro.registry import protocol_factory
from repro.workloads import batch_instance

SEEDS = [1, 2, 3, 4]


def build():
    return batch_instance(64, window=512)


def counters(name, fastpath):
    tele = Telemetry()
    digests = run_seeds(
        build,
        lambda instance: protocol_factory(name, {}, instance),
        SEEDS,
        jammer=StochasticJammer(0.25),
        telemetry=tele,
        fastpath=fastpath,
    )
    return tele.metrics.snapshot(), digests


def test_uniform_kernel_counters_equal_the_engine():
    engine, _ = counters("uniform", "off")
    kernel, _ = counters("uniform", "on")
    shared = set(engine) & set(kernel)
    assert {"jobs.gave_up", "jobs.deadline_missed", "jobs.succeeded"} <= shared
    assert {k: kernel[k] for k in shared} == {k: engine[k] for k in shared}
    assert kernel["jobs.gave_up"] > 0


def test_punctual_kernel_misses_are_deadline_misses():
    kernel, digests = counters("punctual", "on")
    missed = sum(d.n_jobs - d.n_succeeded for d in digests)
    assert missed > 0
    assert kernel["jobs.deadline_missed"] == missed
    assert kernel["jobs.gave_up"] == 0
