"""Pinned kernel-trial digests beyond the benchmark's batch instances.

Each case plays ``simulate_fastpath`` over 60 seeds, clean and at
p_jam 0.25, and compares a fingerprint of the digests with the value
recorded when the kernels were last changed on purpose.  A kernel
change that moves any drawn bit or any digest field fails here; a
deliberate one bumps ``KERNEL_VERSION`` and re-records these values.

The ALIGNED instances cover regions whose lowest occupied class differs
from block to block (what the empty-class prefix of
``run_pecking_region`` depends on); the PUNCTUAL batches cover the
anarchist stage alone and, with a low ``min_level``, the followers'
embedded pecking region too.
"""

import hashlib

import numpy as np
import pytest

from repro.channel.jamming import StochasticJammer
from repro.core.aligned import aligned_factory
from repro.core.punctual import punctual_factory
from repro.core.uniform import uniform_factory
from repro.fastpath import (
    digest_for,
    plan_fastpath,
    simulate_aligned_full,
    simulate_fastpath,
    simulate_punctual_full,
)
from repro.params import AlignedParams, PunctualParams
from repro.sim.instance import Instance
from repro.sim.job import Job
from repro.sim.rng import RngFactory
from repro.workloads import (
    aligned_random_instance,
    batch_instance,
    nested_stack_instance,
)

_ALIGNED = AlignedParams(lam=1, tau=4, min_level=9)
_ALIGNED_LAM2 = AlignedParams(lam=2, tau=4, min_level=8)
_PUNCTUAL = PunctualParams(
    aligned=AlignedParams(lam=1, tau=2, min_level=9),
    lam=2,
    pullback_exp=1,
    slingshot_exp=2,
)
#: Low min_level: about a third of these trials reach the embedded
#: pecking region, the rest fall back to the anarchist stage.
_FOLLOW = PunctualParams(
    aligned=AlignedParams(lam=1, tau=2, min_level=5),
    lam=2,
    pullback_exp=1,
    slingshot_exp=2,
)
_SEEDS = range(60)


def _aligned_jobs(spec):
    """An instance from ``(start, level, count)`` triples."""
    jobs, jid = [], 0
    for start, level, count in spec:
        for _ in range(count):
            jobs.append(Job(jid, start, start + (1 << level)))
            jid += 1
    return Instance(jobs)


def _three_blocks():
    # Three 4096-slot blocks; each lacks different classes, so each has
    # its own lowest occupied class (10, 9 and 11).
    return _aligned_jobs([
        (0, 10, 5), (1024, 10, 3), (0, 12, 7),
        (4096, 9, 4), (4096 + 2048, 11, 6), (4096 + 3584, 9, 2),
        (8192, 11, 5), (8192 + 2048, 11, 3),
    ])


def _random(k):
    return aligned_random_instance(
        np.random.default_rng(k), 13, [9, 10, 11, 12], 0.3, fill=0.6
    )


_INSTANCES = {
    "nested": lambda: nested_stack_instance([9, 10, 11, 12], 6),
    "random0": lambda: _random(0),
    "random1": lambda: _random(1),
    "blocks": _three_blocks,
}

_CASES = {
    **{f"aligned-{name}": (build, aligned_factory(_ALIGNED))
       for name, build in _INSTANCES.items()},
    "aligned-blocks-lam2": (_three_blocks, aligned_factory(_ALIGNED_LAM2)),
    **{f"uniform-{name}": (build, uniform_factory())
       for name, build in _INSTANCES.items()},
    "punctual-anarchy": (
        lambda: batch_instance(64, 4096), punctual_factory(_PUNCTUAL)
    ),
    "punctual-follow": (
        lambda: batch_instance(40, 3000), punctual_factory(_FOLLOW)
    ),
    "punctual-short": (
        lambda: batch_instance(5, 24), punctual_factory(_PUNCTUAL)
    ),
}

#: sha256 of the digests' reprs, first 16 hex digits, (clean, p_jam 0.25).
_PINNED = {
    "aligned-nested": ("67cda9b36fd46d03", "a962c4670b2fc1b8"),
    "aligned-random0": ("d666dbcaaaac5b36", "ecd2e4ce1235ca04"),
    "aligned-random1": ("914c21fcda96d206", "a1497f8a466a3e61"),
    "aligned-blocks": ("814e47a8c39c0580", "fdefa43f0996351c"),
    "aligned-blocks-lam2": ("fa05d6671d4ddfe4", "f78e5852c0eb5cda"),
    "uniform-nested": ("658dbc4a3fb71781", "9332dd69d9bdcedb"),
    "uniform-random0": ("360bd72a8d6a2ad9", "e96384d5baea979f"),
    "uniform-random1": ("240891c156a1f62e", "19ab48cc1931d97a"),
    "uniform-blocks": ("ff99b118985d8cfc", "aceec80f4b68e4e9"),
    "punctual-anarchy": ("36e69cee7cc659fa", "44015f6c0e53adaa"),
    "punctual-follow": ("384a2d8e92fda0d5", "8911349812955ee8"),
    "punctual-short": ("c4287361847ec7ad", "c4287361847ec7ad"),
}


def _fingerprint(name, p_jam):
    build, factory = _CASES[name]
    jammer = StochasticJammer(p_jam) if p_jam > 0 else None
    plan, reason = plan_fastpath(build(), factory, jammer=jammer)
    assert plan is not None, reason
    digests = [simulate_fastpath(plan, s) for s in _SEEDS]
    return hashlib.sha256(repr(digests).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(_CASES))
@pytest.mark.parametrize("p_jam", [0.0, 0.25], ids=["clean", "jam0.25"])
def test_trial_digests_are_pinned(name, p_jam):
    assert _fingerprint(name, p_jam) == _PINNED[name][p_jam > 0]


@pytest.mark.parametrize(
    "kernel, build, params, factory",
    [
        (simulate_aligned_full, _three_blocks, _ALIGNED, aligned_factory),
        (simulate_aligned_full, _INSTANCES["random0"], _ALIGNED_LAM2,
         aligned_factory),
        (simulate_punctual_full, lambda: batch_instance(40, 3000), _FOLLOW,
         punctual_factory),
    ],
    ids=["aligned-blocks", "aligned-random0-lam2", "punctual-follow"],
)
def test_public_kernels_match_the_planned_trial(kernel, build, params, factory):
    # The public kernels derive the plan's data from their arguments and
    # run the same trial code, so their digests equal the plan's.
    inst = build()
    plan, _ = plan_fastpath(
        inst, factory(params), jammer=StochasticJammer(0.25)
    )
    for seed in range(8):
        result = kernel(
            inst, params, RngFactory(seed).fresh("fastpath"), p_jam=0.25
        )
        assert digest_for(seed, inst, result) == simulate_fastpath(plan, seed)
