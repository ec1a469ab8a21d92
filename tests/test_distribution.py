"""Every provider's `distribution` against its own per-word `prob`.

`distribution` walks all words of a window at once, sharing each prefix's
work; `prob` answers one cylinder.  They must agree entry by entry: `==` and
the same type in rational mode, the same bits in float mode, with every word
listed in lexicographic order, zero entries included.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gibbslab import (
    Alphabet,
    BernoulliMeasure,
    BitShiftMeasure,
    ChannelParams,
    Configuration,
    FiniteVolumeMeasure,
    InteractionParams,
    Rng,
    Window,
    cylinder_prob,
    simulate,
)
from gibbslab.core import TableMeasure


def assert_matches_prob(measure, window, exact):
    dist = measure.distribution(window)
    words = list(measure.words(window))
    assert list(dist) == words
    for w in words:
        got, want = dist[w], measure.prob(Configuration(measure.alphabet, window, w))
        assert type(got) is type(want) is (Fraction if exact else float)
        assert got == want if exact else got.hex() == want.hex()
    return dist


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("lo_at_0", [True, False])
@pytest.mark.parametrize("hi_at_m", [True, False])
@settings(derandomize=True, max_examples=8, deadline=None)
@given(half=st.integers(min_value=1, max_value=5),
       rho=st.tuples(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8)),
       data=st.data())
def test_finite_volume_distribution_matches_prob(mode, lo_at_0, hi_at_m, half, rho, data):
    m = 2 * half
    num, extra = rho
    rho = Fraction(num, num + extra)
    if mode == "float" and data.draw(st.booleans()):
        rho = float(rho)
    measure = FiniteVolumeMeasure(InteractionParams(rho, m), mode)
    lo = 0 if lo_at_0 else data.draw(st.integers(min_value=1, max_value=m - 1))
    hi = m if hi_at_m else data.draw(st.integers(min_value=lo, max_value=m - 1))
    assert_matches_prob(measure, Window(lo, hi), mode == "rational")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(raw=st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=3)
       .filter(any),
       exact=st.booleans(),
       lo=st.integers(min_value=-3, max_value=3),
       size=st.integers(min_value=1, max_value=6))
@example(raw=[1, 0], exact=True, lo=0, size=4)
@example(raw=[0, 3, 1], exact=False, lo=-2, size=3)
def test_bernoulli_distribution_matches_prob(raw, exact, lo, size):
    total = sum(raw)
    weights = [Fraction(k, total) if exact else k / total for k in raw]
    measure = BernoulliMeasure(Alphabet(tuple(range(len(raw)))), weights)
    dist = assert_matches_prob(measure, Window(lo, lo + size - 1), exact)
    if 0 in raw:
        assert any(v == 0 for v in dist.values())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n_sym=st.integers(min_value=2, max_value=3),
       size=st.integers(min_value=1, max_value=4),
       seed_weights=st.lists(st.integers(min_value=0, max_value=9), min_size=81, max_size=81),
       exact=st.booleans(),
       data=st.data())
def test_table_sub_window_distribution_matches_prob(n_sym, size, seed_weights, exact, data):
    alphabet = Alphabet(tuple(range(n_sym)))
    support = Window(-1, size - 2)
    words = list(itertools.product(alphabet.symbols, repeat=size))
    weights = [Fraction(k) if exact else k / 7 for k in seed_weights[:len(words)]]
    if not any(weights):
        weights[0] = Fraction(1) if exact else 1.0
    measure = TableMeasure(alphabet, support, dict(zip(words, weights)))
    lo = data.draw(st.integers(min_value=support.lo, max_value=support.hi))
    hi = data.draw(st.integers(min_value=lo, max_value=support.hi))
    assert_matches_prob(measure, Window(lo, hi), exact)


CHANNELS = [
    ChannelParams(2, 3, (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 4)),
    ChannelParams(2, 3, (0.5, 0.5), 0.25),
    ChannelParams(2, 4, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)), Fraction(1, 8)),
    ChannelParams(2, 4, (0.2, 0.3, 0.5), 0.1),
    ChannelParams(2, 3, (Fraction(1, 2), Fraction(1, 2)), 0),
]


@pytest.mark.parametrize("params", CHANNELS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bitshift_distribution_matches_prob(params, n):
    dist = assert_matches_prob(BitShiftMeasure(params), Window(5, 4 + n), params.exact)
    if n > 1:
        assert dist[(0, 0) + (2,) * (n - 2)] == 0  # adjacent zeros are inadmissible


@pytest.mark.parametrize("params", CHANNELS)
def test_bitshift_prob_is_cylinder_prob(params):
    # BitShiftMeasure inherits MeasureProvider.prob, a fold of the channel's
    # walker; it must give cylinder_prob's type and value (bits in float mode)
    measure = BitShiftMeasure(params)
    rnd = random.Random(7)
    for n in range(1, 61):
        sampled = tuple(int(v) for v in simulate(params, n, Rng(n)))
        assert cylinder_prob(params, sampled) > 0
        words = [sampled, tuple(rnd.choice(params.output_symbols) for _ in range(n))]
        if n > 1:
            cut = rnd.randrange(n - 1)
            words.append(sampled[:cut] + (0, 0) + sampled[cut + 2:])
            assert cylinder_prob(params, words[-1]) == 0
        for w in words:
            got = measure.prob(Configuration(measure.alphabet, Window(3, 2 + n), w))
            want = cylinder_prob(params, w)
            assert type(got) is type(want) is (Fraction if params.exact else float)
            assert got == want if params.exact else got.hex() == want.hex()



NEGATIVE_ZERO_MEASURES = [
    (BernoulliMeasure(Alphabet((0, 1)), [-0.0, 1.0]), Window(0, 2)),
    (BitShiftMeasure(ChannelParams(2, 3, (-0.0, 1.0), 0.25)), Window(0, 3)),
    (BitShiftMeasure(ChannelParams(2, 3, (0.5, 0.5), -0.0)), Window(0, 3)),
    (TableMeasure(Alphabet((0, 1)), Window(0, 1),
                  {(0, 0): -0.0, (0, 1): 0.5, (1, 0): 0.25, (1, 1): 0.25}), Window(0, 1)),
]


@pytest.mark.parametrize("measure, window", NEGATIVE_ZERO_MEASURES)
def test_negative_zero_weights_are_stored_as_zero(measure, window):
    # the walk merges states that compare equal, and -0.0 == 0.0: a -0.0
    # weight kept as given would give a merged word a zero of the wrong sign
    dist = assert_matches_prob(measure, window, False)
    assert 0.0 in dist.values()
    assert all(math.copysign(1.0, v) == 1.0 for v in dist.values())
