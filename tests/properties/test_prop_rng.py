"""Property: ``prepare`` + ``fresh`` give the reference ``SeedSequence`` streams."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngFactory, _label_key

seeds = st.one_of(
    st.just(0),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**128 - 1),
    st.integers(2**128, 2**200),
)
ids = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**40]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64),
)


@given(
    seeds, st.text(max_size=12), st.lists(ids, min_size=1, max_size=8, unique=True)
)
@settings(max_examples=150, deadline=None)
def test_prepared_streams_equal_the_reference(seed, label, block):
    factory = RngFactory(seed)
    factory.prepare(label, block)
    for index in block:
        fast = factory.fresh(label, index)
        derived = type(fast.bit_generator.seed_seq).__name__ == "_DerivedSeed"
        assert derived == (index < 2**32)  # longer ids fall back
        ref = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=_label_key(label) + (index,))
        )
        assert fast.bit_generator.state == ref.bit_generator.state
        assert fast.random(4).tolist() == ref.random(4).tolist()
