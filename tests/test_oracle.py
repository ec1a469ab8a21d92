"""Literal-enumeration references against the fast implementations."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gibbslab import (
    ChannelParams,
    EnumerationCapError,
    FiniteVolumeMeasure,
    InteractionParams,
    block_distribution,
    block_entropy,
    brute_block_entropy,
    brute_channel_cylinder,
    brute_channel_distribution,
    brute_gibbs_conditional,
    cylinder_prob,
)


def test_channel_cylinder_agreement_on_all_short_words(std_channel):
    for n in (1, 2):
        for word in itertools.product(std_channel.output_symbols, repeat=n):
            assert brute_channel_cylinder(std_channel, word) == \
                cylinder_prob(std_channel, word)


def test_channel_cylinder_agreement_on_spot_checks(std_channel):
    for word in [(0, 2, 2), (2, 2, 2, 2), (4, 1, 3), (1, 1, 1)]:
        assert brute_channel_cylinder(std_channel, word) == \
            cylinder_prob(std_channel, word)


def test_channel_cylinder_quiet_channel_is_the_input_product():
    quiet = ChannelParams(2, 3, (Fraction(1, 4), Fraction(3, 4)), Fraction(0))
    assert brute_channel_cylinder(quiet, (3, 2, 3)) == Fraction(9, 64)
    assert brute_channel_cylinder(quiet, (0, 2)) == 0


def test_channel_cylinder_caps(std_channel):
    with pytest.raises(ValueError):
        brute_channel_cylinder(std_channel, ())
    with pytest.raises(EnumerationCapError):
        brute_channel_cylinder(std_channel, (2,) * 7)


def test_channel_distribution_matches_the_pruned_walk(std_channel):
    dist = brute_channel_distribution(std_channel, 3)
    assert sum(dist.values()) == 1
    fast = block_distribution(std_channel, 3)
    positive = {w: p for w, p in fast.items() if p > 0}
    assert dist == positive
    with pytest.raises(EnumerationCapError):
        brute_channel_distribution(std_channel, 7)


def test_gibbs_conditional_agrees_with_the_forward_pass():
    params = InteractionParams(Fraction(1, 2), 10)
    mu = FiniteVolumeMeasure(params, "rational")
    events = [
        {0: 1},
        {0: 0, 5: 1},
        {0: 1, 4: 1, 7: 0},
        {i: (i * 5 + 1) % 2 for i in range(11)},  # one fully pinned word
    ]
    for fixed in events:
        assert brute_gibbs_conditional(params, fixed, 10) == mu.event_prob(fixed)


def test_gibbs_conditional_float_mode_tracks_rational_mode():
    exact = brute_gibbs_conditional(InteractionParams(Fraction(1, 2), 8), {0: 1, 3: 0}, 8)
    rough = brute_gibbs_conditional(InteractionParams(0.5, 8), {0: 1, 3: 0}, 8)
    assert abs(float(exact) - rough) < 1e-12


def test_gibbs_conditional_validation():
    params = InteractionParams(Fraction(1, 2), 8)
    with pytest.raises(ValueError):
        brute_gibbs_conditional(params, {0: 1}, 7)
    with pytest.raises(ValueError):
        brute_gibbs_conditional(params, {9: 1}, 8)
    with pytest.raises(ValueError):
        brute_gibbs_conditional(params, {0: 2}, 8)
    with pytest.raises(EnumerationCapError):
        brute_gibbs_conditional(params, {0: 1}, 16)


def test_block_entropy_agreement(std_channel):
    for n in (1, 2, 3, 4):
        assert abs(brute_block_entropy(std_channel, n)
                   - block_entropy(std_channel, n)) < 1e-12
    with pytest.raises(EnumerationCapError):
        brute_block_entropy(std_channel, 6)


# ------------------------------------------- integer-scaled exact backend

@st.composite
def exact_channels(draw):
    """d = 2, k in {3, 4}, input weights with denominator <= 12, eps in [0, 1/2)."""
    k = draw(st.sampled_from((3, 4)))
    parts = draw(st.lists(st.integers(0, 4), min_size=k - 1, max_size=k - 1).filter(any))
    b = draw(st.integers(1, 8))
    eps = Fraction(draw(st.integers(0, (b - 1) // 2)), b)
    return ChannelParams(2, k, tuple(Fraction(c, sum(parts)) for c in parts), eps)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(params=exact_channels(), data=st.data())
def test_integer_backend_matches_the_channel_oracle(params, data):
    symbols = st.sampled_from(params.output_symbols)
    words = data.draw(st.lists(st.lists(symbols, min_size=1, max_size=4),
                               min_size=1, max_size=3))
    for word in words:
        fast = cylinder_prob(params, word)
        assert type(fast) is Fraction
        assert fast == brute_channel_cylinder(params, word)
    n = data.draw(st.integers(1, 3))
    brute = brute_channel_distribution(params, n)
    assert block_distribution(params, n) == {w: v for w, v in brute.items() if v != 0}


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    num=st.integers(1, 8),
    extra=st.integers(1, 8),
    m=st.sampled_from((0, 2, 4, 6, 8)),
    sites=st.dictionaries(st.integers(0, 8), st.integers(0, 1), max_size=4),
)
def test_integer_backend_matches_the_gibbs_oracle(num, extra, m, sites):
    params = InteractionParams(Fraction(num, num + extra), m)
    fixed = {i: v for i, v in sites.items() if i <= m}
    fast = FiniteVolumeMeasure(params, mode="rational").event_prob(fixed)
    assert type(fast) is Fraction
    assert fast == brute_gibbs_conditional(params, fixed, m)
