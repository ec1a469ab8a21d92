"""Every provider's `log_prob` against its rational twin's exact probability.

`log_prob` folds the provider's walker once, rescaling a float state after
each step, so it must track log(num) - log(den) of the exact cylinder
probability num / den to 1e-12 relative, on words of up to 800 symbols for
the stationary providers, also where the float `prob` underflows to 0.0,
and raise ZeroProbabilityError exactly when that probability is 0.
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
    ZeroProbabilityError,
    cylinder_prob,
    simulate,
)
from gibbslab.core import TableMeasure

TERNARY = Alphabet((0, 1, 2))
TINY = Fraction(5e-324)  # 2^-1074, the least positive float


def _case(kind: str, a: int, q: int, pick: int, n: int, seed: int):
    """(exact provider, its float twin, a configuration, the configuration's
    exact probability as (num, den)).  pick chooses the third Bernoulli
    weight (0, 2^-1074 or 1/2q), the channel's eps, the volume's depth and the
    table's window; the word is drawn from seed, one symbol at a time or, on
    the channel, from its own law when pick is even."""
    rng = random.Random(seed)
    if kind == "bernoulli":
        third = (Fraction(0), TINY, Fraction(1, 2 * q))[pick % 3]
        ws = (Fraction(a, q + 1), 1 - Fraction(a, q + 1) - third, third)
        exact = BernoulliMeasure(TERNARY, ws)
        word = tuple(rng.randrange(3) for _ in range(n))
        return (exact, BernoulliMeasure(TERNARY, [float(w) for w in ws]),
                Configuration(TERNARY, Window(-seed, n - 1 - seed), word),
                (math.prod(ws[v].numerator for v in word),
                 math.prod(ws[v].denominator for v in word)))
    if kind == "channel":
        ws, eps = (Fraction(a, q + 1), 1 - Fraction(a, q + 1)), Fraction(1 + pick % 4, 10)
        params = ChannelParams(2, 3, ws, eps)
        if pick % 2 == 0:
            word = tuple(int(v) for v in simulate(params, n, Rng(seed)))
        else:
            word = tuple(rng.choice((0, 2, 2, 3, 3, 4, 5)) for _ in range(n))
        prob = cylinder_prob(params, word)
        twin = ChannelParams(2, 3, [float(w) for w in ws], float(eps))
        return (BitShiftMeasure(params), BitShiftMeasure(twin),
                Configuration(Alphabet(params.output_symbols), Window(seed, seed + n - 1), word),
                (prob.numerator, prob.denominator))
    if kind == "volume":
        params = InteractionParams(Fraction(a, q + 1), 2 * (1 + pick % 6))
        exact = FiniteVolumeMeasure(params, "rational")
        lo = rng.randrange(params.m + 1)
        hi = rng.randrange(lo, params.m + 1)
        word = tuple(rng.randrange(2) for _ in range(lo, hi + 1))
        cfg = Configuration(exact.alphabet, Window(lo, hi), word)
        p = exact.prob(cfg)
        return exact, FiniteVolumeMeasure(params, "float"), cfg, (p.numerator, p.denominator)
    window = Window(-seed, pick % 4 - seed)
    table = {w: Fraction(rng.randrange(10), rng.randrange(1, 4))
             for w in itertools.product(TERNARY.symbols, repeat=window.size)}
    table[(0,) * window.size] += 1  # not every weight is 0
    exact = TableMeasure(TERNARY, window, table)
    lo = rng.randrange(window.lo, window.hi + 1)
    hi = rng.randrange(lo, window.hi + 1)
    cfg = Configuration(TERNARY, Window(lo, hi), tuple(rng.randrange(3) for _ in range(lo, hi + 1)))
    p = exact.prob(cfg)
    return (exact, TableMeasure(TERNARY, window, {w: float(v) for w, v in table.items()}),
            cfg, (p.numerator, p.denominator))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kind=st.sampled_from(["bernoulli", "channel", "volume", "table"]),
       a=st.integers(min_value=1, max_value=8), q=st.integers(min_value=8, max_value=12),
       pick=st.integers(min_value=0, max_value=11), n=st.integers(min_value=1, max_value=800),
       seed=st.integers(min_value=0, max_value=1000))
@example(kind="bernoulli", a=1, q=8, pick=0, n=800, seed=3)  # a zero weight
def test_log_prob_tracks_the_exact_probability(kind, a, q, pick, n, seed):
    exact, twin, cfg, (num, den) = _case(kind, a, q, pick, n, seed)
    for provider in (exact, twin):
        if num == 0:
            with pytest.raises(ZeroProbabilityError):
                provider.log_prob(cfg)
            continue
        want = math.log(num) - math.log(den)
        got = provider.log_prob(cfg)
        assert math.isfinite(got) and abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("kind, pick", [("bernoulli", 1), ("channel", 0)])
def test_long_words_keep_a_log_prob_where_their_float_prob_underflows(kind, pick):
    exact, twin, cfg, (num, den) = _case(kind, 1, 8, pick, 800, 3)
    assert num > 0 and twin.prob(cfg) == 0.0
    assert twin.log_prob(cfg) == pytest.approx(math.log(num) - math.log(den), rel=1e-12)
