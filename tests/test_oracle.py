"""Literal-enumeration references against the fast implementations."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gibbslab import (
    BINARY,
    ChannelParams,
    EnumerationCapError,
    FiniteVolumeMeasure,
    InteractionParams,
    Window,
    block_distribution,
    block_entropy,
    brute_block_entropy,
    brute_channel_cylinder,
    brute_channel_distribution,
    brute_gibbs_conditional,
    config,
    cylinder_prob,
    regularity_probe,
)
from gibbslab.oracle import ORACLE_VOLUME_CAP, _brute_weight


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


# ------------------------------------- finite volume: prefix and suffix tables

def _volume_queries(m, rnd, count):
    """count (window, word on it, event) triples."""
    for _ in range(count):
        lo = rnd.randint(0, m)
        hi = rnd.randint(lo, m)
        word = tuple(rnd.getrandbits(1) for _ in range(hi - lo + 1))
        sites = rnd.sample(range(m + 1), rnd.randint(1, min(3, m + 1)))
        yield Window(lo, hi), word, {i: rnd.getrandbits(1) for i in sites}


@pytest.mark.parametrize("m, count", [(0, 4), (2, 12), (12, 2)])
def test_volume_sums_match_the_gibbs_oracle(m, count):
    """prob, event_prob and distribution, each stepped from a stored prefix
    state and closed by a suffix row, against full enumeration."""
    params = InteractionParams(Fraction(1, 3), m)
    mu = FiniteVolumeMeasure(params, "rational")
    for window, word, fixed in _volume_queries(m, random.Random(m), count):
        got = mu.prob(config(BINARY, window.lo, word))
        assert type(got) is Fraction
        assert got == brute_gibbs_conditional(params, dict(zip(window.indices(), word)), m)
        assert mu.event_prob(fixed) == brute_gibbs_conditional(params, fixed, m)
    for w, p in mu.distribution(Window(m, m)).items():
        assert p == brute_gibbs_conditional(params, {m: w[0]}, m)
    if m <= 2:
        for w, p in mu.distribution(Window(0, m)).items():
            assert p == brute_gibbs_conditional(params, dict(enumerate(w)), m)


def test_volume_twenty_sums_match_the_oracle_weights():
    """m = 20 is past the oracle's enumeration cap, so its literal weights
    check the sums up to the partition function Z: sigma_0 = 0 words weigh
    1 each, so P(sigma_0 = 0) = 2^20 / Z, and a sum over free sites must be
    the sum of their oracle weights times P(sigma_0 = 0) / 2^20."""
    m = 20
    assert m > ORACLE_VOLUME_CAP
    params = InteractionParams(Fraction(1, 2), m)
    mu = FiniteVolumeMeasure(params, "rational")
    per_weight = mu.event_prob({0: 0}) / 2 ** m
    rnd = random.Random(20)
    for _ in range(20):
        word = (1,) + tuple(rnd.getrandbits(1) for _ in range(m))
        assert mu.prob(config(BINARY, 0, word)) == _brute_weight(params, word) * per_weight
    head = (1, 1, 0, 1, 1, 1, 0, 1, 1, 1)  # sites 0..9; 2^11 free tails close it
    tails = itertools.product((0, 1), repeat=m + 1 - len(head))
    assert mu.prob(config(BINARY, 0, head)) == \
        sum(_brute_weight(params, head + t) for t in tails) * per_weight
    # an event with free sites before and between its fixed ones
    fixed = {6: 0, 12: 1, 13: 1, 16: 1, 17: 1, 18: 1, 19: 1, 20: 1}
    free = [i for i in range(m + 1) if i not in fixed]

    def weight(bits):
        sigma = fixed | dict(zip(free, bits))
        return _brute_weight(params, tuple(sigma[i] for i in range(m + 1)))

    total = sum(weight(bits) for bits in itertools.product((0, 1), repeat=len(free)))
    assert mu.event_prob(fixed) == total * per_weight
    assert sum(mu.distribution(Window(0, 3)).values()) == 1


@pytest.mark.parametrize("m", [0, 2, 12, 20])
@pytest.mark.parametrize("mode", ["rational", "float"])
def test_volume_empty_event_is_certain_in_the_modes_type(m, mode):
    rho = Fraction(1, 2) if mode == "rational" else 0.5
    got = FiniteVolumeMeasure(InteractionParams(rho, m), mode).event_prob({})
    assert got == 1 and type(got) is (Fraction if mode == "rational" else float)


def _immutable(x):
    if isinstance(x, tuple):
        return all(_immutable(v) for v in x)
    return x is None or type(x) in (int, float)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_volume_tables_are_immutable_and_queries_leave_them_alone(mode):
    params = InteractionParams(Fraction(1, 3) if mode == "rational" else 1 / 3, 10)
    mu, fresh = FiniteVolumeMeasure(params, mode), FiniteVolumeMeasure(params, mode)
    assert _immutable(mu._prefix) and _immutable(mu._suffix)
    for window, word, fixed in _volume_queries(10, random.Random(5), 30):
        mu.prob(config(BINARY, window.lo, word))
        mu.event_prob(fixed)
        mu.distribution(window)
    regularity_probe(mu, config(BINARY, 0, (1,)), config(BINARY, 1, (1, 0) * 5), range(1, 11))
    assert (mu._prefix, mu._suffix, mu._total) == (fresh._prefix, fresh._suffix, fresh._total)


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
