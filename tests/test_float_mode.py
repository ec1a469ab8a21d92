"""Float mode tracks rational mode to 1e-12 relative.

Each float-mode quantity runs the same recursion as its exact twin on the
doubles of the same parameters, in an order of its own (the finite volume
closes its sums with a suffix table, the channel rescales its log-space
pass), so each probability is a few ulp off.  These properties bound that
drift over random exact channels and random rho.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gibbslab import (
    BINARY,
    BitShiftMeasure,
    ChannelParams,
    FiniteVolumeMeasure,
    InteractionParams,
    Tail,
    ZeroProbabilityError,
    bad_config_table,
    block_distribution,
    conditional_prob,
    config,
    cylinder_log_prob,
    cylinder_prob,
    regularity_probe,
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
