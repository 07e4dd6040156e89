"""The named corpus of verification cases.

Every verification activity in :mod:`repro.verify` — the differential
runner, the metamorphic checker, the determinism audit, and the golden
traces under ``tests/verify/golden/`` — operates on cases from this
registry.  Naming the cases (instead of constructing instances ad hoc)
buys two things:

* a **subprocess** can rebuild exactly the same case from its name, so
  the determinism audit can compare digests across interpreter
  boundaries without pickling anything;
* golden files can reference cases by name and stay meaningful across
  sessions.

Cases are plain frozen dataclasses built from module-level callables, so
they are picklable and independent of construction order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.adversary import fault_plan
from repro.baselines.nocd import nocd_factory
from repro.baselines.sawtooth import sawtooth_factory
from repro.baselines.slowfeedback import slowfeedback_factory
from repro.baselines.softened import softened_factory
from repro.channel.jamming import Jammer, StochasticJammer
from repro.core.aligned import aligned_factory
from repro.core.punctual import punctual_factory
from repro.core.uniform import uniform_factory
from repro.errors import InvalidParameterError
from repro.faults.plan import FaultPlan
from repro.params import AlignedParams, PunctualParams, UniformParams
from repro.sim.engine import ProtocolFactory
from repro.sim.instance import Instance
from repro.sim.rng import RngFactory
from repro.stream.arrivals import (
    ArrivalProcess,
    BurstyProcess,
    DiurnalProcess,
    PoissonProcess,
    materialize,
)
from repro.workloads import batch_instance, single_class_instance

__all__ = ["CORPUS", "VerifyCase", "corpus_case", "smoke_cases"]

_ALIGNED = AlignedParams(lam=1, tau=4, min_level=9)
_PUNCTUAL = PunctualParams(
    aligned=AlignedParams(lam=1, tau=2, min_level=10),
    lam=2,
    pullback_exp=1,
    slingshot_exp=2,
)
#: A low min_level so follower trimmed windows land *above* it and the
#: PUNCTUAL kernel's embedded pecking-region machine actually runs
#: (with the default min_level=10 most followers fall below it).
_PUNCTUAL_FOLLOW = PunctualParams(
    aligned=AlignedParams(lam=1, tau=2, min_level=5),
    lam=2,
    pullback_exp=1,
    slingshot_exp=2,
)


def _batch16() -> Instance:
    return batch_instance(16, window=64)


def _batch_sparse() -> Instance:
    return batch_instance(8, window=1024)


def _staggered() -> Instance:
    a = batch_instance(6, window=256)
    b = batch_instance(6, window=256).relabeled(start=50).shifted(96)
    return a.merged(b)


def _single_class() -> Instance:
    return single_class_instance(10, level=9)


def _punctual_batch() -> Instance:
    return batch_instance(8, window=4096)


def _punctual_follow_batch() -> Instance:
    return batch_instance(6, window=2048)


def _uniform() -> ProtocolFactory:
    return uniform_factory()


def _uniform_two_attempts() -> ProtocolFactory:
    return uniform_factory(UniformParams(attempts=2))


def _aligned() -> ProtocolFactory:
    return aligned_factory(_ALIGNED)


def _punctual() -> ProtocolFactory:
    return punctual_factory(_PUNCTUAL)


def _punctual_follow() -> ProtocolFactory:
    return punctual_factory(_PUNCTUAL_FOLLOW)


def _no_jammer() -> Optional[Jammer]:
    return None


# -- streaming-equivalence cases --------------------------------------------
#
# Each pins an arrival process and a finite horizon.  ``build`` freezes
# the stream's seed-0 prefix into a closed instance (what the metamorphic
# and determinism checks — and the golden fingerprints — run on), while
# the differential check re-materializes per seed and demands the open
# streaming engine agree with the closed engine job-for-job.

_STREAM_POISSON = PoissonProcess(rate=0.15, window_sizes=(16, 64))
_STREAM_BURSTY = BurstyProcess(
    calm_rate=0.05,
    burst_rate=0.8,
    p_enter=0.01,
    p_exit=0.08,
    window_sizes=(16, 64),
)
_STREAM_DIURNAL = DiurnalProcess(
    base_rate=0.12, amplitude=0.6, period=512, window_sizes=(32,)
)
_STREAM_POISSON_HORIZON = 2000
_STREAM_BURSTY_HORIZON = 3000
_STREAM_DIURNAL_HORIZON = 2000


def _stream_build(process: ArrivalProcess, horizon: int) -> Instance:
    return materialize(process, RngFactory(0).stream("arrivals"), horizon)


def _stream_poisson_build() -> Instance:
    return _stream_build(_STREAM_POISSON, _STREAM_POISSON_HORIZON)


def _stream_bursty_build() -> Instance:
    return _stream_build(_STREAM_BURSTY, _STREAM_BURSTY_HORIZON)


def _stream_diurnal_build() -> Instance:
    return _stream_build(_STREAM_DIURNAL, _STREAM_DIURNAL_HORIZON)


def _stream_poisson_process() -> Optional[ArrivalProcess]:
    return _STREAM_POISSON


def _stream_bursty_process() -> Optional[ArrivalProcess]:
    return _STREAM_BURSTY


def _stream_diurnal_process() -> Optional[ArrivalProcess]:
    return _STREAM_DIURNAL


def _sawtooth() -> ProtocolFactory:
    return sawtooth_factory()


def _soft() -> ProtocolFactory:
    return softened_factory()


def _slowfb() -> ProtocolFactory:
    return slowfeedback_factory()


def _nocd() -> ProtocolFactory:
    return nocd_factory()


def _no_process() -> Optional[ArrivalProcess]:
    return None


def _no_faults() -> Optional[FaultPlan]:
    return None


def _clock_faults() -> Optional[FaultPlan]:
    return fault_plan("clock", 0.3)


def _jam30() -> Optional[Jammer]:
    return StochasticJammer(0.3)


def _jam10() -> Optional[Jammer]:
    return StochasticJammer(0.1)


@dataclass(frozen=True)
class VerifyCase:
    """One named verification case: workload, protocol, adversary, seeds.

    ``kind`` routes the case through the differential runner:
    ``"uniform-exact"`` (engine ↔ uniform kernel, bit-exact offset
    replay), ``"uniform-dominance"`` (attempts > 1: kernel success must
    imply engine success), ``"statistical"`` (mean success rates must
    agree within Monte-Carlo tolerance), ``"fastpath-exact"`` (engine ↔
    the fastpath trial *and* the seed-major ``run_seeds(fastpath="on")``
    path, bit-exact digests, clean or jammed), ``"fastpath-statistical"``
    (engine ↔ ALIGNED/PUNCTUAL full-protocol kernel, mean success rates
    within Monte-Carlo tolerance), ``"streaming-equivalence"`` (closed
    engine on the materialized stream prefix ↔ open streaming engine on
    the live stream, bit-exact per-job outcomes), ``"engine-only"`` (no
    applicable kernel; metamorphic + determinism checks only).
    """

    name: str
    build: Callable[[], Instance]
    protocol: Callable[[], ProtocolFactory]
    make_jammer: Callable[[], Optional[Jammer]] = _no_jammer
    seeds: Tuple[int, ...] = (0, 1, 2)
    kind: str = "engine-only"
    attempts: int = 1
    smoke: bool = True
    #: streaming-equivalence only: the arrival process and the horizon
    #: (slots of releases) the differential re-materializes per seed.
    make_process: Callable[[], Optional[ArrivalProcess]] = _no_process
    make_faults: Callable[[], Optional[FaultPlan]] = _no_faults
    horizon: int = 0

    def instance(self) -> Instance:
        """Build a fresh instance for this case."""
        return self.build()

    def factory(self) -> ProtocolFactory:
        """Build a fresh protocol factory for this case."""
        return self.protocol()

    def jammer(self) -> Optional[Jammer]:
        """Build a fresh jammer for this case (None for a clean channel)."""
        return self.make_jammer()

    def process(self) -> Optional[ArrivalProcess]:
        """The case's arrival process (streaming-equivalence only)."""
        return self.make_process()

    def faults(self) -> Optional[FaultPlan]:
        """Build a fresh fault plan for this case (usually None)."""
        return self.make_faults()


_CASES = (
    VerifyCase(
        name="uniform-batch",
        build=_batch16,
        protocol=_uniform,
        seeds=(0, 1, 2, 3),
        kind="uniform-exact",
    ),
    VerifyCase(
        name="uniform-sparse",
        build=_batch_sparse,
        protocol=_uniform,
        seeds=(0, 1, 2),
        kind="uniform-exact",
    ),
    VerifyCase(
        name="uniform-staggered",
        build=_staggered,
        protocol=_uniform,
        seeds=(0, 1, 2),
        kind="uniform-exact",
    ),
    VerifyCase(
        name="uniform-two-attempts",
        build=_batch16,
        protocol=_uniform_two_attempts,
        seeds=(0, 1, 2),
        kind="uniform-dominance",
        attempts=2,
    ),
    VerifyCase(
        name="uniform-jammed",
        build=_batch16,
        protocol=_uniform,
        make_jammer=_jam30,
        seeds=tuple(range(40)),
        kind="statistical",
        smoke=False,
    ),
    VerifyCase(
        name="aligned-single-class",
        build=_single_class,
        protocol=_aligned,
        seeds=(0, 1),
        kind="engine-only",
    ),
    VerifyCase(
        name="punctual-batch",
        build=_punctual_batch,
        protocol=_punctual,
        seeds=(0, 1),
        kind="engine-only",
    ),
    VerifyCase(
        name="punctual-jammed",
        build=_punctual_batch,
        protocol=_punctual,
        make_jammer=_jam10,
        seeds=(0, 1),
        kind="engine-only",
        smoke=False,
    ),
    VerifyCase(
        name="fastpath-uniform-clean",
        build=_staggered,
        protocol=_uniform,
        seeds=(0, 1, 2, 3),
        kind="fastpath-exact",
    ),
    VerifyCase(
        name="fastpath-uniform-jammed",
        build=_batch16,
        protocol=_uniform,
        make_jammer=_jam30,
        seeds=(0, 1, 2, 3, 4, 5),
        kind="fastpath-exact",
    ),
    VerifyCase(
        name="fastpath-aligned-full",
        build=_single_class,
        protocol=_aligned,
        seeds=tuple(range(24)),
        kind="fastpath-statistical",
    ),
    VerifyCase(
        name="fastpath-punctual-full",
        build=_punctual_batch,
        protocol=_punctual,
        seeds=tuple(range(20)),
        kind="fastpath-statistical",
    ),
    VerifyCase(
        name="fastpath-punctual-follow",
        build=_punctual_follow_batch,
        protocol=_punctual_follow,
        seeds=tuple(range(20)),
        kind="fastpath-statistical",
        smoke=False,
    ),
    # -- the modern zoo (collision-softening / slow-feedback / no-CD) --
    #
    # No vectorized kernel exists for these, so the differential check
    # is the streaming engine: each protocol gets an engine-only
    # determinism + metamorphic case and a streaming-equivalence case
    # comparing the closed engine against the open streaming engine.
    VerifyCase(
        name="soft-batch",
        build=_batch16,
        protocol=_soft,
        seeds=(0, 1, 2),
        kind="engine-only",
    ),
    VerifyCase(
        name="slowfb-jammed",
        build=_batch_sparse,
        protocol=_slowfb,
        make_jammer=_jam30,
        seeds=(0, 1, 2),
        kind="engine-only",
        smoke=False,
    ),
    VerifyCase(
        name="nocd-batch",
        build=_batch16,
        protocol=_nocd,
        seeds=(0, 1, 2),
        kind="engine-only",
    ),
    VerifyCase(
        name="stream-poisson-soft",
        build=_stream_poisson_build,
        protocol=_soft,
        seeds=(0, 1),
        kind="streaming-equivalence",
        make_process=_stream_poisson_process,
        horizon=_STREAM_POISSON_HORIZON,
    ),
    VerifyCase(
        name="stream-poisson-slowfb",
        build=_stream_poisson_build,
        protocol=_slowfb,
        seeds=(0, 1),
        kind="streaming-equivalence",
        make_process=_stream_poisson_process,
        horizon=_STREAM_POISSON_HORIZON,
        smoke=False,
    ),
    VerifyCase(
        name="stream-diurnal-nocd",
        build=_stream_diurnal_build,
        protocol=_nocd,
        make_jammer=_jam10,
        seeds=(0, 1),
        kind="streaming-equivalence",
        make_process=_stream_diurnal_process,
        horizon=_STREAM_DIURNAL_HORIZON,
        smoke=False,
    ),
    VerifyCase(
        name="stream-poisson-uniform",
        build=_stream_poisson_build,
        protocol=_uniform,
        seeds=(0, 1, 2),
        kind="streaming-equivalence",
        make_process=_stream_poisson_process,
        horizon=_STREAM_POISSON_HORIZON,
    ),
    VerifyCase(
        name="stream-bursty-faulted",
        build=_stream_bursty_build,
        protocol=_sawtooth,
        seeds=(0, 1),
        kind="streaming-equivalence",
        make_process=_stream_bursty_process,
        make_faults=_clock_faults,
        horizon=_STREAM_BURSTY_HORIZON,
        smoke=False,
    ),
    VerifyCase(
        name="stream-diurnal-jammed",
        build=_stream_diurnal_build,
        protocol=_sawtooth,
        make_jammer=_jam10,
        seeds=(0, 1),
        kind="streaming-equivalence",
        make_process=_stream_diurnal_process,
        horizon=_STREAM_DIURNAL_HORIZON,
    ),
)

#: Every registered verification case, by name.
CORPUS: Dict[str, VerifyCase] = {c.name: c for c in _CASES}


def corpus_case(name: str) -> VerifyCase:
    """The registered case called ``name`` (raises on unknown names)."""
    try:
        return CORPUS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown verify case {name!r} (choices: {sorted(CORPUS)})"
        ) from None


def smoke_cases() -> Tuple[VerifyCase, ...]:
    """The CI-speed subset of the corpus (``repro verify --smoke``)."""
    return tuple(c for c in _CASES if c.smoke)
