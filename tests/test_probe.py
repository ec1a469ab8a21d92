"""`regularity_probe` against a literal per-n `conditional_prob` loop.

The probe folds each provider's step function once along target + omega
and once along omega, and closes every requested n from those folds.  The
loop below is the definition it must reproduce: the same `ProbeResult`
(values `==` and of the same type, so float values carry the same bits),
or the same exception with the same message.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gibbslab import (
    BINARY,
    Alphabet,
    BernoulliMeasure,
    BitShiftMeasure,
    ChannelParams,
    FiniteVolumeMeasure,
    InteractionParams,
    ProbeResult,
    Tail,
    Window,
    ZeroProbabilityError,
    conditional_prob,
    config,
    regularity_probe,
)
from gibbslab.core import TableMeasure, _fold_quotient


def literal_probe(provider, target, omega, n_range, tol=1e-6, stability_window=4):
    lo = target.window.hi + 1
    ns, values, failed_at = [], [], None
    for n in sorted(n_range):
        if n < lo:
            raise ValueError(f"probe index {n} precedes conditioning window start {lo}")
        try:
            values.append(conditional_prob(provider, target, omega.restrict(lo, n)))
        except ZeroProbabilityError:
            failed_at = n
            break
        ns.append(n)
    tail = values[-(stability_window + 1):]
    converged = (failed_at is None and len(tail) >= 2
                 and all(abs(float(a) - float(b)) <= tol for a, b in zip(tail, tail[1:])))
    return ProbeResult(tuple(ns), tuple(values), converged,
                       values[-1] if converged else None, failed_at)


def outcome(probe, *args):
    try:
        res = probe(*args)
    except Exception as e:  # the probe must raise what the loop raises
        return type(e), str(e)
    return res, [type(v) for v in res.values]


def assert_same(provider, target, omega, n_range):
    want = outcome(literal_probe, provider, target, omega, n_range)
    assert outcome(regularity_probe, provider, target, omega, n_range) == want
    return want[0]


def _table(exact):
    # weights on [0, 5]; every word with 1s at sites 1 and 2 has weight 0
    weights = {w: 0 if w[1] == w[2] == 1 else 1 + sum(w) + 3 * w[0]
               for w in itertools.product((0, 1), repeat=6)}
    if not exact:
        weights = {w: v / 7 for w, v in weights.items()}
    return TableMeasure(BINARY, Window(0, 5), weights)


def _channel(exact):
    half, eps = (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 4)
    return BitShiftMeasure(ChannelParams(2, 3, half if exact else (0.5, 0.5),
                                         eps if exact else float(eps)))


def _volume(exact):
    return FiniteVolumeMeasure(InteractionParams(Fraction(1, 3) if exact else 1 / 3, 8),
                               "rational" if exact else "float")


def _bernoulli(exact):
    w = (Fraction(1, 3), Fraction(2, 3))
    return BernoulliMeasure(BINARY, w if exact else tuple(map(float, w)))


PROVIDERS = {"bernoulli": _bernoulli, "table": _table, "channel": _channel,
             "volume": _volume}


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("family", sorted(PROVIDERS))
@pytest.mark.parametrize("n_range", [range(1, 6), [5, 2, 2, 3], [4, 1, 4, 5, 1], [3], []])
def test_probe_matches_the_literal_loop_on_unsorted_gapped_and_repeated_ranges(
        family, exact, n_range):
    provider = PROVIDERS[family](exact)
    symbols = provider.alphabet.symbols
    for target_values, omega_values in [((symbols[1],), symbols[2:] + symbols[:2]),
                                        ((symbols[0], symbols[1]), (symbols[-1],) * 5)]:
        lo = len(target_values)
        target = config(provider.alphabet, 0, target_values)
        omega = config(provider.alphabet, lo, (omega_values * 3)[:6 - lo], Tail.UNSPECIFIED)
        ns = [n for n in n_range if n >= lo]
        res = assert_same(provider, target, omega, ns)
        assert isinstance(res, ProbeResult)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("family", sorted(PROVIDERS))
def test_probe_rejects_an_index_before_the_conditioning_window(family, exact):
    provider = PROVIDERS[family](exact)
    target = config(provider.alphabet, 0, provider.alphabet.symbols[:2])
    omega = config(provider.alphabet, 2, provider.alphabet.symbols[:3])
    assert assert_same(provider, target, omega, [3, 1, 2]) is ValueError


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("family", sorted(PROVIDERS))
def test_probe_raises_where_an_unspecified_tail_ends(family, exact):
    provider = PROVIDERS[family](exact)
    target = config(provider.alphabet, 0, provider.alphabet.symbols[:1])
    omega = config(provider.alphabet, 1, provider.alphabet.symbols[1:3], Tail.UNSPECIFIED)
    assert assert_same(provider, target, omega, [1, 2, 4]) is KeyError
    # a zero-fill tail reads 0 past the window instead
    filled = config(provider.alphabet, 1, provider.alphabet.symbols[1:3], Tail.ZERO_FILL)
    assert isinstance(assert_same(provider, target, filled, [1, 2, 4]), ProbeResult)


@pytest.mark.parametrize("exact", [True, False])
def test_probe_stops_at_a_zero_mass_word_before_passing_a_tables_support(exact):
    table = _table(exact)
    target = config(BINARY, 0, (1,))
    blocked = config(BINARY, 1, (1, 1) + (0,) * 7, Tail.UNSPECIFIED)
    res = assert_same(table, target, blocked, [1, 2, 9, 3])
    assert res.failed_at == 2 and res.ns == (1,)
    # without the zero-mass word the index past the support is an error
    open_ = config(BINARY, 1, (1,) + (0,) * 8, Tail.UNSPECIFIED)
    assert assert_same(table, target, open_, [1, 2, 9, 3]) is ValueError


@pytest.mark.parametrize("exact", [True, False])
def test_probe_on_channel_words_with_forbidden_zero_pairs(exact):
    channel = _channel(exact)
    out = channel.alphabet
    # "00" inside omega: the conditioning cylinder has no mass from n = 3 on
    res = assert_same(channel, config(out, 0, (2,)), config(out, 1, (3, 0, 0, 2, 2)),
                      range(1, 6))
    assert res.failed_at == 3 and len(res.values) == 2
    # "00" across target and omega: the joint cylinder has none, the value is 0
    res = assert_same(channel, config(out, 0, (0,)), config(out, 1, (0, 2, 2)), range(1, 4))
    assert res.failed_at is None and all(v == 0 for v in res.values)


def test_probe_rejects_mismatched_alphabets():
    ternary = Alphabet((0, 1, 2))
    coin = _bernoulli(True)
    assert assert_same(coin, config(BINARY, 0, (1,)), config(ternary, 1, (2, 0)),
                       [1, 2]) is ValueError
    assert assert_same(coin, config(ternary, 0, (1,)), config(ternary, 1, (2, 0)),
                       [1, 2]) is ValueError


@pytest.mark.parametrize("exact", [True, False])
def test_probe_on_a_volume_checks_the_support_of_both_cylinders(exact):
    volume = _volume(exact)
    target = config(BINARY, 0, (1,))
    omega = config(BINARY, 1, (0, 1) * 6, Tail.UNSPECIFIED)
    assert assert_same(volume, target, omega, [2, 8, 9]) is ValueError
    shifted = config(BINARY, -1, (0, 1))
    assert assert_same(volume, shifted, omega, [1, 2]) is ValueError


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("n_range", [[], [11, 12]])
def test_probe_past_a_volumes_support_raises_what_the_loop_raises(exact, n_range):
    # a walker is fetched only for a window inside the support, so a probe
    # that starts past site m = 8 raises the support's ValueError, or nothing
    res = assert_same(_volume(exact), config(BINARY, 10, (1,)), config(BINARY, 11, (0, 1)),
                      n_range)
    assert res is ValueError if n_range else res.ns == ()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(PROVIDERS)), exact=st.booleans(), data=st.data())
def test_probe_matches_the_literal_loop_on_random_inputs(family, exact, data):
    provider = PROVIDERS[family](exact)
    symbols = st.sampled_from(provider.alphabet.symbols)
    target = data.draw(st.lists(symbols, min_size=1, max_size=2))
    lo = len(target)
    omega = data.draw(st.lists(symbols, min_size=1, max_size=8))
    tail = data.draw(st.sampled_from(list(Tail)))
    n_range = data.draw(st.lists(st.integers(lo - 1, lo + 9), max_size=6))
    assert_same(provider, config(provider.alphabet, 0, target),
                config(provider.alphabet, lo, omega, tail), n_range)


def test_float_probe_survives_underflow():
    # nu([0, 2^n]) = eps (p2 eps)^(n + 1) underflows a double at each n, and
    # nu([2^n]) from n = 600 on; the exact value at n = 400 is 6.05e-123
    ns = [400, 600, 800]
    got, want = (regularity_probe(nu, config(nu.alphabet, 0, (0,)),
                                  config(nu.alphabet, 1, (2,) * 800), ns)
                 for nu in (_channel(False), _channel(True)))
    assert got.failed_at is None and got.ns == want.ns == tuple(ns)
    assert f"{got.values[0]:.3g}" == "6.05e-123"
    for g, w in zip(got.values, want.values, strict=True):
        assert type(g) is float and abs(Fraction(g) - w) <= Fraction(1, 10**12) * w


@pytest.mark.parametrize("n_range", [[], [0, 1], [1, 3], [3]])
def test_probe_checks_alphabets_where_the_literal_loop_does(n_range):
    # no n, no check; an index before the window and an unspecified tail's
    # end are raised before the mismatch, which the first n that passes them raises
    ternary = Alphabet((0, 1, 2))
    coin = _bernoulli(True)
    for target in (config(BINARY, 0, (1,)), config(ternary, 0, (1,))):
        res = assert_same(coin, target, config(ternary, 1, (2, 0)), n_range)
        assert isinstance(res, ProbeResult) if not n_range else res in (ValueError, KeyError)


@pytest.mark.parametrize("setting", [
    {"stability_window": 0}, {"stability_window": -1}, {"stability_window": -3},
    {"tol": float("nan")}, {"tol": float("inf")}, {"tol": -1e-9}])
def test_probe_rejects_settings_that_decide_nothing(setting):
    # a window below 1 checked every gap or sliced from the front, a NaN tol
    # never converged and an infinite one always did, all silently
    coin = _bernoulli(True)
    args = (coin, config(BINARY, 0, (1,)), config(BINARY, 1, (0, 1, 0)), [1, 2, 3])
    with pytest.raises(ValueError, match=next(iter(setting))):
        regularity_probe(*args, **setting)
    assert regularity_probe(*args, tol=0.0, stability_window=1).converged


# ------------------------------------------------- the walker contract

def _counted(provider):
    calls = []
    walker = provider._walker
    provider._walker = lambda lo: calls.append(lo) or walker(lo)
    return calls


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("family", ["bernoulli", "channel", "volume12"])
def test_probe_fetches_each_walker_once_per_fold(family, exact):
    if family == "volume12":
        provider = FiniteVolumeMeasure(InteractionParams(Fraction(1, 2) if exact else 0.5, 12),
                                       "rational" if exact else "float")
    else:
        provider = PROVIDERS[family](exact)
    pattern = (1, 0, 1) if provider.alphabet == BINARY else (2, 3, 3)
    calls = _counted(provider)
    res = regularity_probe(provider, config(provider.alphabet, 0, (0,)),
                           config(provider.alphabet, 1, pattern * 4), range(1, 13))
    assert res.ns == tuple(range(1, 13)) and sorted(calls) == [0, 1]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(family=st.sampled_from(sorted(PROVIDERS)), exact=st.booleans(), data=st.data())
def test_every_close_of_one_walker_is_prob_on_its_window(family, exact, data):
    provider = PROVIDERS[family](exact)
    support = provider.support_window or Window(-3, 8)
    lo = data.draw(st.integers(support.lo, support.hi))
    word = data.draw(st.lists(st.sampled_from(provider.alphabet.symbols), min_size=1,
                              max_size=support.hi - lo + 1))
    state, step, close = provider._walker(lo)
    for i, s in enumerate(word):
        state = None if state is None else step(state, s)
        leaf, den = close(lo + i)
        got = _fold_quotient((0 if state is None else leaf(state), den, 0))
        want = provider.prob(config(provider.alphabet, lo, word[:i + 1]))
        assert type(got) is type(want) is (Fraction if exact else float)
        assert got == want if exact else got.hex() == want.hex()


@pytest.mark.parametrize("exact", [True, False])
def test_volume_walker_hands_out_its_step_and_close_themselves(exact):
    # the state carries its site, so no walker wraps _step or _close
    provider = _volume(exact)
    for lo in provider.support_window.indices():
        start, step, close = provider._walker(lo)
        assert start is provider._prefix[lo] and step == provider._step
        for hi in range(lo, provider.support_window.hi + 1):
            leaf, den = close(hi)
            assert leaf == provider._close and den is provider._total
