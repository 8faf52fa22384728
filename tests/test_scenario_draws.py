"""The scenario streams' access-point draws against ``Generator.choice``.

:func:`draw_uniform` and :class:`WeightedDraw` replace per-round
``rng.choice`` calls, so each must give ``choice``'s values and dtype and
leave the generator in the same state, for empty draws, a single access
point and zero weights alike.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.base import WeightedDraw, draw_uniform

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.one_of(st.none(), st.integers(min_value=0, max_value=40))
access_points = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=1, max_size=30
).map(lambda xs: np.asarray(xs, dtype=np.int64))


def assert_same_draws(ours, theirs, rng_ours, rng_theirs):
    assert np.asarray(ours).dtype == np.asarray(theirs).dtype
    assert np.array_equal(ours, theirs)
    assert np.shape(ours) == np.shape(theirs)
    assert rng_ours.bit_generator.state == rng_theirs.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(aps=access_points, seed=seeds, draws=st.lists(sizes, min_size=1, max_size=4))
def test_uniform_draw_equals_choice(aps, seed, draws):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in draws:
        assert_same_draws(
            draw_uniform(ours, aps, size), theirs.choice(aps, size=size), ours, theirs
        )


@st.composite
def weighted(draw):
    aps = draw(access_points)
    weights = np.asarray(
        draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
                min_size=aps.size,
                max_size=aps.size,
            )
        )
    )
    if not weights.any():
        weights[draw(st.integers(min_value=0, max_value=aps.size - 1))] = 1.0
    return aps, weights / weights.sum()


@settings(max_examples=300, deadline=None)
@given(case=weighted(), seed=seeds, draws=st.lists(sizes, min_size=1, max_size=4))
def test_weighted_draw_equals_choice(case, seed, draws):
    aps, p = case
    sampler = WeightedDraw(aps, p)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in draws:
        assert_same_draws(
            sampler(ours, size), theirs.choice(aps, size=size, p=p), ours, theirs
        )


def test_single_access_point_and_empty_draws():
    aps = np.array([7], dtype=np.int64)
    for draw in (
        lambda rng, k: draw_uniform(rng, aps, k),
        lambda rng, k: WeightedDraw(aps, np.ones(1))(rng, k),
    ):
        rng = np.random.default_rng(3)
        assert draw(rng, 0).shape == (0,)
        assert np.array_equal(draw(rng, 5), np.full(5, 7))
        assert int(draw(rng, None)) == 7


def test_zero_weights_are_never_drawn():
    aps = np.arange(6, dtype=np.int64)
    p = np.array([0.0, 0.5, 0.0, 0.0, 0.5, 0.0])
    drawn = WeightedDraw(aps, p)(np.random.default_rng(0), 2000)
    assert set(drawn.tolist()) == {1, 4}
