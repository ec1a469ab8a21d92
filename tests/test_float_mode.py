"""Float mode tracks rational mode to 1e-12 relative.

Each float-mode quantity runs the same recursion as its exact twin on the
doubles of the same parameters, in an order of its own (the finite volume
closes its sums with a suffix table, the channel rescales its log-space
pass), so each probability is a few ulp off.  These properties bound that
drift over random exact channels and random rho.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gibbslab import (
    BINARY,
    Alphabet,
    BernoulliMeasure,
    BitShiftMeasure,
    ChannelParams,
    FiniteVolumeMeasure,
    InteractionParams,
    Rng,
    Tail,
    ZeroProbabilityError,
    bad_config_table,
    block_distribution,
    conditional_prob,
    config,
    cylinder_log_prob,
    cylinder_prob,
    regularity_probe,
    simulate,
    single_site_kernel,
)

REL = 1e-12
TINY = 2.0 ** -1022  # the smallest normal double


def assert_close(got, want, floor=0.0):
    """|got - want| <= REL * max(|want|, floor); want is exact or a float."""
    assert type(got) is float
    want = float(want)
    assert abs(got - want) <= REL * max(abs(want), floor), (got, want)


@st.composite
def channel_twins(draw):
    """An exact channel (d = 2, k in {3, 4}, input weights with denominator
    <= 12 and a positive weight on 2, eps in [0, 1/2)) and its float twin."""
    k = draw(st.sampled_from((3, 4)))
    parts = [draw(st.integers(1, 4))] + draw(st.lists(st.integers(0, 4), min_size=k - 2,
                                                      max_size=k - 2))
    b = draw(st.integers(1, 9))
    eps = Fraction(draw(st.integers(0, (b - 1) // 2)), b)
    p = tuple(Fraction(c, sum(parts)) for c in parts)
    return ChannelParams(2, k, p, eps), ChannelParams(2, k, tuple(map(float, p)), float(eps))


# rho = a / b for 1 <= a < b <= 12
rhos = st.lists(st.integers(1, 12), min_size=2, max_size=2, unique=True) \
    .map(lambda ab: Fraction(*sorted(ab)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(twins=channel_twins(), data=st.data())
def test_channel_float_mode_tracks_rational_mode(twins, data):
    exact, rough = twins
    words = st.lists(st.sampled_from(exact.output_symbols), min_size=1, max_size=8)
    for word in data.draw(st.lists(words, min_size=1, max_size=6)):
        want = cylinder_prob(exact, word)
        assert_close(cylinder_prob(rough, word), want)
        if want:
            # a relative error d on a probability is an absolute error d on
            # its log, so below |log p| = 1 the bound is absolute
            assert_close(cylinder_log_prob(rough, word), cylinder_log_prob(exact, word), 1.0)
        if len(word) > 1:
            cut, left = data.draw(st.integers(1, len(word) - 1)), data.draw(st.booleans())
            for params in twins:
                _assert_conditional_is_the_quotient(BitShiftMeasure(params), word, cut, left)
    n = data.draw(st.integers(1, 4))
    want = block_distribution(exact, n)
    got = block_distribution(rough, n)
    assert list(got) == list(want)
    for w, p in want.items():
        assert_close(got[w], p)
    for got, want in zip(bad_config_table(rough, 12), bad_config_table(exact, 12), strict=True):
        assert got.n == want.n
        for field in ("p_joint", "p_run", "conditional", "scaled"):
            assert_close(getattr(got, field), getattr(want, field))
    target = config(BitShiftMeasure(exact).alphabet, 0, word[:1])
    omega = config(target.alphabet, 1, tuple(word[1:]) + (2, 3), Tail.UNSPECIFIED)
    _assert_probes_close(BitShiftMeasure(rough), BitShiftMeasure(exact), target, omega)


def _assert_conditional_is_the_quotient(nu, word, cut, left):
    """conditional_prob of one side of word cut at cut, given the other,
    against P(word) / P(given): == in rational mode, and the same bits in
    float mode wherever neither cylinder is subnormal."""
    head, rest = config(nu.alphabet, 0, word[:cut]), config(nu.alphabet, cut, word[cut:])
    target, given = (head, rest) if left else (rest, head)
    p_given, p_joint = nu.prob(given), nu.prob(config(nu.alphabet, 0, word))
    if not p_given:
        with pytest.raises(ZeroProbabilityError):
            conditional_prob(nu, target, given)
        return
    got, want = conditional_prob(nu, target, given), p_joint / p_given
    assert type(got) is type(want)
    if isinstance(want, Fraction):
        assert got == want
    elif p_given >= TINY and (p_joint == 0 or p_joint >= TINY):
        assert got.hex() == want.hex()


def _assert_probes_close(rough, exact, target, omega):
    ns = range(target.window.hi + 1, omega.window.hi + 1)
    got = regularity_probe(rough, target, omega, ns)
    want = regularity_probe(exact, target, omega, ns)
    assert (got.ns, got.failed_at) == (want.ns, want.failed_at)
    for g, w in zip(got.values, want.values, strict=True):
        assert_close(g, w)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rho=rhos, half=st.integers(0, 6), data=st.data())
def test_volume_and_kernel_float_mode_tracks_rational_mode(rho, half, data):
    m = 2 * half
    exact, rough = InteractionParams(rho, m), InteractionParams(float(rho), m)
    mu, fmu = FiniteVolumeMeasure(exact, "rational"), FiniteVolumeMeasure(rough, "float")
    bits = st.integers(0, 1)
    for _ in range(4):
        lo = data.draw(st.integers(0, m))
        word = data.draw(st.lists(bits, min_size=1, max_size=m + 1 - lo))
        cfg = config(BINARY, lo, word)
        assert_close(fmu.prob(cfg), mu.prob(cfg))
        fixed = data.draw(st.dictionaries(st.integers(0, m), bits, max_size=4))
        assert_close(fmu.event_prob(fixed), mu.event_prob(fixed))
    tail = data.draw(st.lists(bits, min_size=1, max_size=m + 4))
    kind = data.draw(st.sampled_from(list(Tail)))
    for symbol in (0, 1):
        want = single_site_kernel(exact, symbol, config(BINARY, 1, tail, kind))
        got = single_site_kernel(rough, symbol, config(BINARY, 1, tail, kind))
        assert_close(got.value, want.value)
        # the radius is half the gap between two kernel values, so it
        # carries their absolute error, however small it is
        assert abs(got.radius - want.radius) <= REL
    if m:
        omega = config(BINARY, 1, data.draw(st.lists(bits, min_size=m, max_size=m)))
        _assert_probes_close(fmu, mu, config(BINARY, 0, (data.draw(bits),)), omega)


# the benchmark's two cylinder channels: dyadic weights, so the float model
# holds the exact model's numbers
DYADIC_CHANNELS = (
    ChannelParams(2, 3, (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 4)),
    ChannelParams(2, 4, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)), Fraction(1, 8)),
)


def _plain_products(weights, word):
    """Per prefix length 1..n: (the product of its weights, multiplied in
    site order, and whether every product so far is 0 or normal)."""
    acc, normal, out = 1.0, True, []
    for v in word:
        acc *= weights[v]
        normal = normal and (acc == 0 or acc >= TINY)
        out.append((acc, normal))
    return out


def _plain_forward(params, word):
    """Per prefix length 1..n: (a literal forward loop's mass on the float
    model, whose dens are 1.0, and whether every product and sum the loop
    formed for it, its closing sum included, is 0 or normal)."""
    init, mats, _, _ = params._forward_model
    a, normal, out = list(init), True, []
    for v in word:
        m = mats[v]
        terms = [m[j] * a[j % 3] for j in range(9)]
        heads = [terms[3 * t] + terms[3 * t + 1] for t in range(3)]
        a = [heads[t] + terms[3 * t + 2] for t in range(3)]
        head = a[0] + a[1]
        total = head + a[2]
        normal = normal and all(x == 0 or x >= TINY for x in terms + heads + a)
        out.append((total, normal and all(x == 0 or x >= TINY for x in (head, total))))
    return out


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kind=st.sampled_from(["bernoulli", "channel"]), a=st.integers(1, 8),
       q=st.integers(8, 12), n=st.integers(1, 800), seed=st.integers(0, 1000))
@example(kind="bernoulli", a=1, q=8, n=800, seed=3)
@example(kind="channel", a=1, q=8, n=800, seed=3)
def test_float_prob_keeps_the_plain_loops_bits_while_it_stays_normal(kind, a, q, n, seed):
    """A float prob closes a rescaled fold.  Where every product and sum of
    the plain loop stays 0 or normal, it has that loop's bits; elsewhere it
    lies within 2^-1074 + n 2^-53 exact of the exact twin's value, exact,
    on the same numbers.  Each 800-symbol word is checked at n, at the last
    prefix whose plain loop stays normal, and at a few prefixes from there
    to the first whose plain loop reaches 0."""
    rng = random.Random(seed)
    if kind == "bernoulli":
        alphabet = Alphabet((0, 1, 2))
        small = Fraction(1, 2 * q)
        ws = [float(w) for w in (Fraction(a, q + 1), 1 - Fraction(a, q + 1) - small, small)]
        nu, word = BernoulliMeasure(alphabet, ws), tuple(rng.randrange(3) for _ in range(800))
        plain = _plain_products(ws, word)

        def exact(k):
            ratios = [ws[v].as_integer_ratio() for v in word[:k]]
            return Fraction(math.prod(r[0] for r in ratios), math.prod(r[1] for r in ratios))
    else:
        twin = DYADIC_CHANNELS[a % 2]
        params = ChannelParams(twin.d, twin.k, tuple(map(float, twin.p)), float(twin.eps))
        nu, word = BitShiftMeasure(params), tuple(simulate(twin, 800, Rng(seed)).tolist())
        alphabet, plain = nu.alphabet, _plain_forward(params, word)

        def exact(k):
            return cylinder_prob(twin, word[:k])
    last = max((k for k, (_, ok) in enumerate(plain, 1) if ok), default=0)
    zero = next((k for k, (v, _) in enumerate(plain, 1) if k > last and v == 0), 800)
    for k in sorted({n, last, *range(last + 1, zero + 1, 1 + (zero - last) // 4)} - {0}):
        got = nu.prob(config(alphabet, seed - k, word[:k]))
        value, normal = plain[k - 1]
        if normal:
            assert got.hex() == value.hex(), k
        else:
            want = exact(k)
            assert abs(Fraction(got) - want) <= Fraction(2) ** -1074 + k * want / 2 ** 53, k
