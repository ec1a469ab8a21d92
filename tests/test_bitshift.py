"""Jitter channel: forward recursion, admissibility, entropy machinery."""

import itertools
import math
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gibbslab import (
    BitShiftMeasure,
    ChannelParams,
    EnumerationCapError,
    Rng,
    Window,
    ZeroProbabilityError,
    apply_channel,
    bad_config_table,
    block_distribution,
    block_entropy,
    capacity_search,
    conditional_prob,
    cylinder_log_prob,
    cylinder_prob,
    entropy_bound_table,
    entropy_bounds,
    entropy_levels,
    is_admissible,
    simulate,
    smb_estimate,
)
from gibbslab import bitshift
from gibbslab.bitshift import (
    BLOCK_ENTROPY_CAP, BLOCK_ROWS, CAPACITY_EVAL_CAP, JITTER, _entropy_sweeps, _simulate,
    _sweep_model, _sweep_sums, transition_matrices)
from gibbslab.core import (
    DRAW_CAP, Configuration, Alphabet, binary_config, config, is_exact)
from gibbslab.oracle import ORACLE_ENTROPY_CAP, brute_block_entropy

HALF = (Fraction(1, 2), Fraction(1, 2))

STD_FLOAT = ChannelParams(2, 3, (0.5, 0.5), 0.25)  # float twin of std_channel

# the two channels of the benchmark's entropy ops, and one without jitter
SWEEP_CHANNELS = (
    STD_FLOAT,
    ChannelParams(2, 4, (0.25, 0.5, 0.25), 0.125),
    ChannelParams(2, 3, (0.5, 0.5), 0.0),
)

# the benchmark's two cylinder channels, in both modes
BENCH_CHANNELS = (
    ChannelParams(2, 3, HALF, Fraction(1, 4)),
    STD_FLOAT,
    ChannelParams(2, 4, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)), Fraction(1, 8)),
    ChannelParams(2, 4, (0.25, 0.5, 0.25), 0.125),
)

# one channel per kind of zero pattern, each exact one then its float twin:
# no jitter, an inner zero input weight, a wide alphabet (mostly dense
# symbols), a high d (most symbols all zero) and a jitter near 2^-498
PATTERN_CHANNELS = tuple(
    twin
    for d, k, p, eps in ((2, 3, HALF, Fraction(0)),
                         (2, 4, (Fraction(1, 2), Fraction(0), Fraction(1, 2)), Fraction(1, 4)),
                         (2, 40, (Fraction(1, 39),) * 39, Fraction(1, 4)),
                         (40, 41, HALF, Fraction(1, 4)),
                         (2, 3, HALF, Fraction(1e-150)))
    for twin in (ChannelParams(d, k, p, eps),
                 ChannelParams(d, k, tuple(map(float, p)), float(eps))))

# a word on the k = 4 float channel whose plain forward loop ends subnormal
# (exact probability 9.5141770462e-313)
SUBNORMAL_WORD = tuple(simulate(BENCH_CHANNELS[2], 800, Rng(0)).tolist()[:533])


def quiet_channel() -> ChannelParams:
    return ChannelParams(2, 3, HALF, Fraction(0))


# ------------------------------------------------------------------ params

def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(1, 3, HALF, Fraction(1, 4))  # d too small
    with pytest.raises(ValueError):
        ChannelParams(2, 2, HALF, Fraction(1, 4))  # k must exceed d
    with pytest.raises(ValueError):
        ChannelParams(2, 4, HALF, Fraction(1, 4))  # needs three weights
    with pytest.raises(ValueError):
        ChannelParams(2, 3, (Fraction(1, 2), Fraction(1, 3)), Fraction(1, 4))
    with pytest.raises(ValueError):
        ChannelParams(2, 3, (Fraction(3, 2), Fraction(-1, 2)), Fraction(1, 4))
    with pytest.raises(ValueError):
        ChannelParams(2, 3, HALF, Fraction(1, 2))  # eps must stay below 1/2
    with pytest.raises(ValueError):
        ChannelParams(2, 3, HALF, Fraction(-1, 4))


@pytest.mark.parametrize("d, k", [(2.0, 3), (2, 3.0)])
def test_params_read_integral_float_bounds_as_ints(d, k):
    # 2.0 and 3.0 used to be kept, and indexing the model with them failed
    params = ChannelParams(d, k, HALF, Fraction(1, 4))
    assert (params.d, params.k) == (2, 3) and type(params.d) is type(params.k) is int
    assert cylinder_prob(params, (0, 2, 2)) == Fraction(1, 2048)


@pytest.mark.parametrize("field", ["d", "k"])
@pytest.mark.parametrize("bad", [True, "3", 2.5])
def test_params_reject_bounds_that_are_not_integers(field, bad):
    # ChannelParams(True, 3, ...) used to fail as "d must be >= 2"
    bounds = {"d": 2, "k": 3, field: bad}
    with pytest.raises(TypeError, match=rf"^{field} {re.escape(repr(bad))} is not an integer"):
        ChannelParams(bounds["d"], bounds["k"], HALF, Fraction(1, 4))


def test_params_alphabets_and_weights(std_channel):
    assert std_channel.input_symbols == (2, 3)
    assert std_channel.output_symbols == (0, 1, 2, 3, 4, 5)
    assert std_channel.p_of(2) == Fraction(1, 2)
    assert std_channel.p_of(7) == 0
    assert sum(std_channel.stationary_vector()) == 1
    assert std_channel.jitter_weight(0) == Fraction(1, 2)
    with pytest.raises(ValueError):
        std_channel.jitter_weight(2)
    assert std_channel.exact
    assert not ChannelParams(2, 3, (0.5, 0.5), 0.25).exact


def test_exact_is_computed_once_per_instance(monkeypatch):
    import gibbslab.bitshift as bs
    calls = []

    def counting(v):
        calls.append(v)
        return is_exact(v)

    exact = ChannelParams(2, 3, HALF, Fraction(1, 4))
    twin = ChannelParams(2, 3, (0.5, 0.5), 0.25)
    assert exact == twin and hash(exact) == hash(twin)
    monkeypatch.setattr(bs, "is_exact", counting)
    transition_matrices(exact)
    first = len(calls)
    transition_matrices(exact)
    assert first > 0 and len(calls) == first
    # equal twins keep their own flag
    assert not twin.exact and exact.exact


# ----------------------------------------------------------------- channel

def test_apply_channel_moves_bits_by_jitter_differences():
    assert apply_channel((3, 2, 3), (0, 1, 0, 0)) == (4, 1, 3)
    assert apply_channel((2, 3, 2), (0, 0, 0, 0)) == (2, 3, 2)
    assert apply_channel((2, 2), (1, -1, -1)) == (0, 2)


def test_apply_channel_validation():
    with pytest.raises(ValueError):
        apply_channel((2, 3), (0, 0))  # omega must carry one extra entry
    with pytest.raises(ValueError):
        apply_channel((2,), (0, 2))


def test_transition_matrices_entries(std_channel):
    mats = transition_matrices(std_channel)
    # y=2, jitter t=0, previous state s=0: P(w=0) * P(x=2) = 1/2 * 1/2
    assert mats[2][1][1] == Fraction(1, 4)


# ------------------------------------------------------------- cylinders

def test_cylinder_hand_anchors(std_channel):
    assert cylinder_prob(std_channel, (0,)) == Fraction(1, 32)
    assert cylinder_prob(std_channel, (2,)) == Fraction(5, 16)
    assert cylinder_prob(std_channel, (0, 2)) == Fraction(1, 256)
    assert cylinder_prob(std_channel, (0, 2, 2)) == Fraction(1, 2048)


def test_cylinder_zero_then_run_is_a_pure_power(std_channel):
    eps, p2 = std_channel.eps, std_channel.p_of(2)
    for n in range(0, 9):
        got = cylinder_prob(std_channel, (0,) + (2,) * n)
        assert got == eps * (p2 * eps) ** (n + 1)


def test_cylinder_adjacent_zeros_are_forbidden(std_channel):
    assert cylinder_prob(std_channel, (0, 0)) == 0
    assert cylinder_prob(std_channel, (0, 1)) == 0
    assert cylinder_prob(std_channel, (1, 1)) > 0


def test_cylinder_stationary_consistency(std_channel):
    for word in [(2,), (0, 2), (3, 1), (2, 2, 4)]:
        p = cylinder_prob(std_channel, word)
        right = sum(cylinder_prob(std_channel, word + (s,))
                    for s in std_channel.output_symbols)
        left = sum(cylinder_prob(std_channel, (s,) + word)
                   for s in std_channel.output_symbols)
        assert right == p
        assert left == p


def test_cylinder_normalizes(std_channel):
    assert sum(cylinder_prob(std_channel, (s,))
               for s in std_channel.output_symbols) == 1


def test_cylinder_quiet_channel_is_the_input_law():
    ch = quiet_channel()
    assert cylinder_prob(ch, (2, 3, 2)) == Fraction(1, 8)
    assert cylinder_prob(ch, (2, 4)) == 0  # 4 needs jitter
    assert cylinder_prob(ch, (0,)) == 0


def test_cylinder_word_validation(std_channel):
    with pytest.raises(ValueError):
        cylinder_prob(std_channel, ())
    with pytest.raises(ValueError):
        cylinder_prob(std_channel, (6,))  # outputs stop at k+2 = 5
    with pytest.raises(ValueError, match="symbol 7 outside"):
        cylinder_prob(std_channel, (2, 7, -1))  # the first bad symbol is named


@pytest.mark.parametrize("fn", [cylinder_prob, cylinder_log_prob, is_admissible])
@pytest.mark.parametrize("bad", [2.7, True, "2", np.True_, np.float64(2.5), None])
def test_non_integer_symbols_are_rejected(std_channel, fn, bad):
    # 2.7 used to be read as 2, True as 1, and "2" as 2
    named = re.escape(f"output symbol {bad!r} is not an integer")
    with pytest.raises(TypeError, match=named):
        fn(std_channel, [bad, 3])
    with pytest.raises(TypeError, match=named):
        fn(STD_FLOAT, (2, 3, bad))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(params=st.sampled_from(BENCH_CHANNELS),
       word=st.lists(st.integers(0, 4), min_size=1, max_size=30))
def test_numpy_and_integral_float_words_read_as_int_words(params, word):
    for fn in (cylinder_prob, is_admissible, _log_prob_or_none):
        want = fn(params, word)
        assert fn(params, np.array(word, dtype=np.int64)) == want
        assert fn(params, [float(v) for v in word]) == want


def _log_prob_or_none(params, word):
    try:
        return cylinder_log_prob(params, word)
    except ZeroProbabilityError:
        return None


def _literal_cylinder(params, word):
    """(prob, log prob) by a literal forward loop on the numbers of
    _forward_model, which divides a float vector whose sum falls below
    bitshift.TINY by the power of two that brings its sum into [1, 2) and
    counts the exponents in e; log prob is None where the word's mass dies."""
    init, mats, den0, den = params._forward_model
    n = len(word)
    a, e = list(init), 0
    for v in word:
        m = mats[v]
        a = [m[3 * t] * a[0] + m[3 * t + 1] * a[1] + m[3 * t + 2] * a[2] for t in range(3)]
        z = a[0] + a[1] + a[2]
        if not params.exact and 0 < z < bitshift.TINY:
            k = math.frexp(z)[1] - 1
            a, e = [math.ldexp(x, -k) for x in a], e + k
    total, scale = a[0] + a[1] + a[2], den0 * den ** n
    prob = Fraction(total, scale) if params.exact else math.ldexp(total / scale, e)
    if total == 0:
        return prob, None
    return prob, math.log(total) - math.log(scale) + e * math.log(2)


@st.composite
def channel_words(draw, channels=BENCH_CHANNELS):
    """A channel (a bench one in either mode by default) and a word of
    length up to 800: a sampled one, the same with a forbidden 00 written
    in, or a raw one."""
    params = draw(st.sampled_from(channels))
    n = draw(st.integers(1, 800))
    kind = draw(st.sampled_from(("sampled", "forbidden", "raw")))
    if kind == "raw":
        return params, tuple(draw(st.lists(st.integers(0, params.k + 2),
                                           min_size=1, max_size=n)))
    word = simulate(params, n, Rng(draw(st.integers(0, 2**32 - 1)))).tolist()
    if kind == "forbidden":
        i = draw(st.integers(0, n - 1))
        word[i:i + 2] = [0, 0]
    return params, tuple(word)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=channel_words())
@example(case=(STD_FLOAT, (2,) * 800))  # prob underflows a double, its log does not
@example(case=(STD_FLOAT, (2, 0, 0)))   # the mass dies after the first step
@example(case=(BENCH_CHANNELS[3], SUBNORMAL_WORD))  # the plain loop ends subnormal
def test_cylinders_keep_the_literal_forward_loops_bits(case):
    params, word = case
    prob, log = _literal_cylinder(params, word)
    got = cylinder_prob(params, word)
    assert type(got) is type(prob)
    if params.exact:
        assert got == prob
    else:
        assert got.hex() == prob.hex()
    if log is None:
        assert prob == 0
        with pytest.raises(ZeroProbabilityError):
            cylinder_log_prob(params, word)
    else:
        assert math.isfinite(log)
        assert cylinder_log_prob(params, word).hex() == log.hex()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=channel_words(PATTERN_CHANNELS))
@example(case=(PATTERN_CHANNELS[7], (38, 39, 40, 41, 42, 43)))  # one symbol per nonzero pattern
@example(case=(PATTERN_CHANNELS[7], (40, 0, 41)))  # an all-zero symbol kills the mass
def test_every_zero_pattern_keeps_the_literal_forward_loops_bits(case):
    # cylinder_prob, cylinder_log_prob, prob, log_prob and a conditional,
    # each with the literal loop's type and bits
    params, word = case
    nu = BitShiftMeasure(params)
    prob, log = _literal_cylinder(params, word)
    cfg = config(nu.alphabet, 1, word)
    for got in (cylinder_prob(params, word), nu.prob(cfg)):
        assert type(got) is type(prob)
        assert got == prob if params.exact else got.hex() == prob.hex()
    for log_of in (lambda: cylinder_log_prob(params, word), lambda: nu.log_prob(cfg)):
        if log is None:
            with pytest.raises(ZeroProbabilityError):
                log_of()
        else:
            assert log_of().hex() == log.hex()
    cut = len(word) // 2
    if not cut:
        return
    given = config(nu.alphabet, 1, word[:cut])
    target = config(nu.alphabet, 1 + cut, word[cut:])
    p_given = _literal_cylinder(params, word[:cut])[0]
    if not p_given:
        with pytest.raises(ZeroProbabilityError):
            conditional_prob(nu, target, given)
        return
    got, want = conditional_prob(nu, target, given), prob / p_given
    assert type(got) is type(want)
    if params.exact:
        assert got == want
    elif p_given >= 2.0 ** -1022 and (prob == 0 or prob >= 2.0 ** -1022):
        assert got.hex() == want.hex()


@pytest.mark.parametrize("params", PATTERN_CHANNELS)
def test_every_zero_pattern_keeps_the_literal_distributions(params):
    # distribution lists every word, the dropped ones as zeros of the
    # mode's type; block_distribution lists the live ones
    nu, kind = BitShiftMeasure(params), Fraction if params.exact else float
    for n in range(1, 3 if params.k > 4 else 5):
        want = _literal_block_distribution(params, n)
        got = nu.distribution(Window(1, n))
        assert all(type(v) is kind for v in got.values())
        assert all(v == 0 for w, v in got.items() if w not in want)
        for dist in ({w: got[w] for w in want}, block_distribution(params, n)):
            assert list(dist) == list(want)
            assert [type(v) for v in dist.values()] == [kind] * len(want)
            if params.exact:
                assert list(dist.values()) == list(want.values())
            else:
                assert [v.hex() for v in dist.values()] == [v.hex() for v in want.values()]


@pytest.mark.parametrize("params", PATTERN_CHANNELS + BENCH_CHANNELS)
def test_kernel_steps_every_symbol_as_the_dense_loop_does(params):
    # entry for entry, with the mode's type: an int 0 in a float state
    # would compare and hash equal to 0.0 but is not interchangeable with it
    init, mats, _, _ = params._forward_model
    fold, step = params._kernel
    one = init[1] ** 0  # 1 or 1.0
    for a in (init, (one, 2 * one, 3 * one)):
        for y, m in enumerate(mats):
            want = tuple(m[3 * t] * a[0] + m[3 * t + 1] * a[1] + m[3 * t + 2] * a[2]
                         for t in range(3))
            alpha, e = fold(a, (y,))  # a float fold may rescale, by an exact power of two
            got = tuple(math.ldexp(v, e) for v in alpha) if e else alpha
            assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want]
            got = step(a, y)
            if any(want):
                assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want]
            else:
                assert got is None


def test_channels_sharing_a_pattern_set_share_one_compiled_kernel():
    bitshift._kernel_maker.cache_clear()
    first = ChannelParams(2, 3, (Fraction(1, 3), Fraction(2, 3)), Fraction(1, 5))
    BitShiftMeasure(first)
    assert "_kernel" not in vars(first)  # built on first use, not with the channel
    cylinder_prob(first, (2, 3))
    info = bitshift._kernel_maker.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    second = ChannelParams(2, 3, HALF, Fraction(1, 4))  # the same zero patterns
    cylinder_prob(second, (2, 3))
    info = bitshift._kernel_maker.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert second._kernel[0].__code__ is first._kernel[0].__code__
    # the float twin is another mode, the quiet channel another pattern set
    for other in (ChannelParams(2, 3, (0.5, 0.5), 0.25), quiet_channel()):
        cylinder_prob(other, (2, 3))
        assert other._kernel[0].__code__ is not first._kernel[0].__code__
    info = bitshift._kernel_maker.cache_info()
    assert (info.hits, info.misses) == (1, 3)


def test_cylinder_prob_has_probs_bits_where_the_plain_loop_ends_subnormal():
    params, twin = BENCH_CHANNELS[3], BENCH_CHANNELS[2]
    nu = BitShiftMeasure(params)
    got = cylinder_prob(params, SUBNORMAL_WORD)
    assert got.hex() == nu.prob(config(nu.alphabet, 0, SUBNORMAL_WORD)).hex()
    assert got.hex() == float(cylinder_prob(twin, SUBNORMAL_WORD)).hex()
    assert got.hex() == "0x0.0002cd6031514p-1022"


@settings(derandomize=True, max_examples=40, deadline=None)
@given(params=st.sampled_from(BENCH_CHANNELS[1::2]), n=st.integers(20, 800),
       seed=st.integers(0, 2**32 - 1))
def test_float_log_prob_has_cylinder_log_probs_bits(params, n, seed):
    word = tuple(simulate(params, n, Rng(seed)).tolist())
    nu = BitShiftMeasure(params)
    cfg = config(nu.alphabet, 1, word)
    assert nu.log_prob(cfg).hex() == cylinder_log_prob(params, word).hex()
    assert nu.prob(cfg).hex() == cylinder_prob(params, word).hex()


def test_log_prob_of_a_word_that_rescales_many_times_tracks_the_exact_log():
    params, twin = BENCH_CHANNELS[3], BENCH_CHANNELS[2]
    word = tuple(simulate(twin, 4000, Rng(1)).tolist())
    assert bitshift._close(params, word)[2] < -3000  # rescaled dozens of times
    r = cylinder_prob(twin, word)
    want = math.log(r.numerator) - math.log(r.denominator)
    assert abs(cylinder_log_prob(params, word) - want) <= 1e-12 * abs(want)


def test_a_tiny_eps_step_after_a_long_prefix_keeps_its_mass():
    # after 590 symbols the vector's sum is near 2^-590, and a final 4 (input
    # 3, jitter -1 -> 0) multiplies it by about 2 eps p3 = 1e-150, near 2^-498:
    # the fold must rescale long before the product leaves the normal range
    params = ChannelParams(2, 3, (0.5, 0.5), 1e-150)
    twin = ChannelParams(2, 3, HALF, Fraction(1e-150))
    prefix = tuple(simulate(twin, 590, Rng(3)).tolist())
    nu, exact = BitShiftMeasure(params), BitShiftMeasure(twin)
    target, given = config(nu.alphabet, 590, (4,)), config(nu.alphabet, 0, prefix)
    want = float(conditional_prob(exact, target, given))
    assert abs(conditional_prob(nu, target, given) - want) <= 1e-12 * want
    word = config(nu.alphabet, 0, prefix + (4,))
    want = exact.log_prob(word)
    assert abs(nu.log_prob(word) - want) <= 1e-12 * abs(want)
    assert abs(cylinder_log_prob(params, prefix + (4,)) - want) <= 1e-12 * abs(want)


def test_log_prob_of_long_words_tracks_rational_mode(std_channel):
    # the probabilities underflow a double; their logs do not
    for word in [(2,) * 800, (0,) + (2,) * 500, (2, 3, 4, 1) * 150]:
        r = cylinder_prob(std_channel, word)
        assert float(r) == 0.0
        want = math.log(r.numerator) - math.log(r.denominator)
        for params in (std_channel, STD_FLOAT):
            assert abs(cylinder_log_prob(params, word) - want) <= 1e-12 * abs(want)


def test_log_prob_matches_exact_values(std_channel):
    for word in [(2, 3, 2, 4), (0, 2, 2), (5, 2)]:
        exact = cylinder_prob(std_channel, word)
        assert abs(cylinder_log_prob(std_channel, word)
                   - math.log(float(exact))) < 1e-12
    # also when the mass dies a step after the first, and on float weights:
    # the loop's math.log(0) must surface as ZeroProbabilityError
    for params in (std_channel, STD_FLOAT):
        for word in [(0, 0), (2, 0, 0)]:
            with pytest.raises(ZeroProbabilityError):
                cylinder_log_prob(params, word)


# ------------------------------------------------------------ admissibility

def test_admissibility_witness_for_the_anchor_word(std_channel):
    res = is_admissible(std_channel, (0, 2, 2))
    assert res.admissible
    assert res.x == (2, 2, 2)
    assert res.omega == (1, -1, -1, -1)
    assert apply_channel(res.x, res.omega) == (0, 2, 2)


def test_admissibility_rejects_forbidden_words(std_channel):
    res = is_admissible(std_channel, (0, 0))
    assert not res.admissible
    assert res.x is None and res.omega is None


def test_admissibility_witnesses_reconstruct_all_short_words(std_channel):
    dist = block_distribution(std_channel, 3)
    for word, p in dist.items():
        res = is_admissible(std_channel, word)
        assert res.admissible and p > 0
        assert apply_channel(res.x, res.omega) == word
        assert all(std_channel.d <= v <= std_channel.k for v in res.x)


def _brute_preimages(params, n):
    """{word: (x, omega)} over every input word and jitter chain of length n,
    keeping for each output word the chain least read from its last entry."""
    best = {}
    for omega in itertools.product(JITTER, repeat=n + 1):
        for x in itertools.product(params.input_symbols, repeat=n):
            y = apply_channel(x, omega)
            if y not in best or omega[::-1] < best[y][1][::-1]:
                best[y] = (x, omega)
    return best


@pytest.mark.parametrize("params", [BENCH_CHANNELS[0], BENCH_CHANNELS[2],
                                    ChannelParams(2, 3, HALF, 0)],
                         ids=["a", "b", "eps0"])
def test_admissibility_is_the_brute_enumeration_of_every_chain(params):
    # structural: every weight counts as positive, eps = 0 included
    for n in range(1, 6):
        best = _brute_preimages(params, n)
        for word in itertools.product(params.output_symbols, repeat=n):
            res = is_admissible(params, word)
            if word in best:
                assert (res.admissible, res.x, res.omega) == (True, *best[word])
            else:
                assert res == type(res)(False, None, None)


# ------------------------------------------------------------ distributions

def test_block_distribution_matches_cylinders_and_normalizes(std_channel):
    dist = block_distribution(std_channel, 3)
    assert sum(dist.values()) == 1
    for word, p in dist.items():
        assert p == cylinder_prob(std_channel, word)
    assert all((0, 0) != w[i:i + 2] for w in dist for i in range(2))


def test_block_distribution_caps(std_channel):
    with pytest.raises(EnumerationCapError):
        block_distribution(std_channel, 9)
    with pytest.raises(ValueError):
        block_distribution(std_channel, 0)


def _literal_block_distribution(params, n):
    """{word: p} over the length-n words whose forward vector never vanishes,
    lexicographic, each vector stepped from its prefix's as BitShiftMeasure's
    walker steps it: an exact vector's sum over den0 den^n, or a float one's
    summed left to right over 1.0."""
    init, mats, den0, den = params._forward_model
    total, out = den0 * den ** n, {}

    def visit(word, a):
        if len(word) == n:
            out[word] = Fraction(sum(a), total) if params.exact else (a[0] + a[1] + a[2]) / total
            return
        for y in params.output_symbols:
            m = mats[y]
            b = (m[0] * a[0] + m[1] * a[1] + m[2] * a[2],
                 m[3] * a[0] + m[4] * a[1] + m[5] * a[2],
                 m[6] * a[0] + m[7] * a[1] + m[8] * a[2])
            if b != (0, 0, 0):
                visit(word + (y,), b)

    visit((), init)
    return out


@pytest.mark.parametrize("params", BENCH_CHANNELS, ids=["a", "a-float", "b", "b-float"])
def test_block_distribution_is_the_literal_forward_loop(params):
    # keys and order, exact values with one Fraction per distinct value, and
    # float values to the bit (the exact walk's last site is column sums)
    for n in range(1, 7):
        got, want = block_distribution(params, n), _literal_block_distribution(params, n)
        assert list(got) == list(want)
        if params.exact:
            assert list(got.values()) == list(want.values())
            assert {type(v) for v in got.values()} == {Fraction}
            assert len({id(v) for v in got.values()}) == len(set(got.values()))
        else:
            assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]


@pytest.mark.parametrize("params", [BENCH_CHANNELS[0], BENCH_CHANNELS[2], PATTERN_CHANNELS[2]],
                         ids=["a", "b", "zero-input"])
def test_exact_block_distribution_steps_one_site_short(params):
    # the exact walk closes its last site by column sums, so it steps the
    # states of a distribution one site shorter, and none at all at n = 1
    def step_calls(run):
        fresh = ChannelParams(params.d, params.k, params.p, params.eps)
        fold, step = fresh._kernel
        calls = []

        def counted(alpha, y):
            calls.append(y)
            return step(alpha, y)

        fresh.__dict__["_kernel"] = fold, counted
        run(fresh)
        return len(calls)

    assert step_calls(lambda fresh: block_distribution(fresh, 1)) == 0
    for n in range(2, 7):
        shorter = step_calls(lambda fresh: BitShiftMeasure(fresh).distribution(Window(1, n - 1)))
        assert step_calls(lambda fresh: block_distribution(fresh, n)) == shorter > 0


def test_check_word_is_the_literal_rule(std_channel):
    """_check_word's fast path for int words keeps every result, error type
    and message of the rule it replaced: a type test per symbol, then the
    empty word, then the first symbol outside 0..k+2."""
    def literal(y):
        word = tuple(y)
        for v in word:
            if not (isinstance(v, float) and v.is_integer() or (
                    isinstance(v, (int, np.integer)) and not isinstance(v, (bool, np.bool_)))):
                raise TypeError(f"output symbol {v!r} is not an integer")
        word = tuple(map(int, word))
        if not word:
            raise ValueError("empty output word")
        if min(word) < 0 or max(word) > 5:
            bad = next(v for v in word if not 0 <= v <= 5)
            raise ValueError(f"output symbol {bad} outside 0..5")
        return word

    symbols = [-1, 0, 2, 5, 6, 9, 3.0, -2.0, 2.5, True, np.int64(4), np.int64(7)]
    words = [()] + [w for n in (1, 2, 3) for w in itertools.product(symbols, repeat=n)]
    for word in words:
        try:
            want = literal(word)
        except (TypeError, ValueError) as e:
            with pytest.raises(type(e)) as err:
                bitshift._check_word(std_channel, word)
            assert str(err.value) == str(e)
        else:
            got = bitshift._check_word(std_channel, list(word))
            assert got == want and {type(v) for v in got} <= {int}


def test_draws_stop_at_the_byte_cap(std_channel):
    Rng.check_draws(1, DRAW_CAP // 8)  # exactly at the cap
    with pytest.raises(EnumerationCapError, match=f"over the cap of {DRAW_CAP}$"):
        Rng.check_draws(1, DRAW_CAP // 8 + 1)
    with pytest.raises(EnumerationCapError, match="^1 x 33554433 random draws"):
        simulate(std_channel, DRAW_CAP // 8, Rng(0))  # one word of n + 1 jitters


def test_measure_provider_wraps_the_channel(std_channel):
    nu = BitShiftMeasure(std_channel)
    cfg = Configuration(nu.alphabet, Window(3, 5), (0, 2, 2))
    assert nu.prob(cfg) == Fraction(1, 2048)  # stationary: location free
    assert nu.support_window is None
    with pytest.raises(ValueError):
        nu.prob(binary_config("01"))
    dist = nu.distribution(Window(0, 1))
    assert len(dist) == 36
    assert sum(dist.values()) == 1


# ---------------------------------------------------------------- entropy

def test_entropy_quiet_channel_is_coin_flips():
    levels = entropy_levels(quiet_channel(), 6)
    want = np.arange(1, 7) * math.log(2)
    assert np.allclose(levels, want, atol=1e-12)


def test_entropy_levels_monotone_and_subadditive(std_channel):
    h = entropy_levels(std_channel, 8)
    assert all(h[i] < h[i + 1] for i in range(7))
    for a in range(1, 4):
        for b in range(1, 4):
            assert h[a + b - 1] <= h[a - 1] + h[b - 1] + 1e-12


def test_entropy_started_from_a_fixed_jitter_state(std_channel):
    with pytest.raises(ValueError):
        entropy_levels(std_channel, 0)
    with pytest.raises(EnumerationCapError):
        entropy_levels(std_channel, 13)


@pytest.mark.parametrize("params", SWEEP_CHANNELS)
def test_entropy_levels_match_the_oracle(params):
    want = [brute_block_entropy(params, n) for n in range(1, ORACLE_ENTROPY_CAP + 1)]
    # n = 1 and n = 2 run only the column-sum tail, straight from the start vector
    for n in (1, 2, ORACLE_ENTROPY_CAP):
        assert np.allclose(entropy_levels(params, n), want[:n], rtol=0, atol=1e-12)


def _pinned_entropy(params, n, start):
    """H_n with the pre-window jitter fixed at start, by pushing forward every
    input word and every jitter word after it."""
    dist = {}
    for x in itertools.product(params.input_symbols, repeat=n):
        px = math.prod(float(params.p_of(v)) for v in x)
        for omega in itertools.product(JITTER, repeat=n):
            w = px * math.prod(float(params.jitter_weight(v)) for v in omega)
            word = apply_channel(x, (start,) + omega)
            dist[word] = dist.get(word, 0.0) + w
    return -sum(w * math.log(w) for w in dist.values() if w > 0.0)


@pytest.mark.parametrize("params", SWEEP_CHANNELS)
def test_lower_bounds_sum_to_the_entropy_from_every_start_state(params):
    # the table sweeps from state 0 only; every start state must give its sums
    for n in (1, 2, 4):
        got = sum(r.lower for r in entropy_bound_table(params, n))
        for start in JITTER:
            assert abs(got - _pinned_entropy(params, n, start)) <= 1e-12


@pytest.mark.parametrize("params", SWEEP_CHANNELS[:2])
def test_entropy_sweep_in_tiny_blocks_gives_the_default_levels(params):
    init, mats = params._float_model
    want = _entropy_sweeps(mats, init, 6)[0]
    for block_rows in (1, 7, 50):
        got = _entropy_sweeps(mats, init, 6, block_rows=block_rows)[0]
        assert np.allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("params", [
    *SWEEP_CHANNELS, ChannelParams(3, 6, (0.1, 0.2, 0.3, 0.4), 0.3)])
def test_entropy_sweep_levels_hardly_depend_on_the_block_size(params):
    # each level sums its chunks' sums exactly (fsum), so chunk boundaries move
    # a level by a few ulps, not by a rounding per chunk
    init, mats = params._float_model
    want = _entropy_sweeps(mats, init, 7)
    for block_rows in (1, 7, 50):
        got = _entropy_sweeps(mats, init, 7, block_rows=block_rows)
        for g, w in zip(got, want):
            assert (np.abs(g - w) <= 4 * np.spacing(w)).all()


def _per_chunk_neg_entropy_sum(w):
    """_neg_entropy_sum as it was before the scratch pair: a fresh array of terms."""
    terms = np.maximum(w, np.finfo(float).smallest_subnormal)
    np.log(terms, out=terms)
    terms *= w
    return -float(terms.sum())


def _per_chunk_sweep_sums(model, init, n, block_rows):
    """_sweep_sums as it was before the scratch pair: every chunk's products
    in fresh arrays, freed before the level recurses."""
    h, c, c_log_c = ([[] for _ in range(n)] for _ in range(3))
    step, c1, c2 = model
    n_sym = c1.shape[1]
    step_chunk = max(1, block_rows // n_sym)
    tail_chunk = max(1, 3 * block_rows // (n_sym * n_sym))

    def sweep(rows, level):
        if level >= n - 2:
            for start in range(0, rows.shape[0], tail_chunk):
                part = rows[start:start + tail_chunk]
                h[level].append(_per_chunk_neg_entropy_sum(part @ c1))
                if level + 1 < n:
                    h[level + 1].append(_per_chunk_neg_entropy_sum(part @ c2))
            return
        for start in range(0, rows.shape[0], step_chunk):
            children = (rows[start:start + step_chunk] @ step).reshape(-1, 3)
            a0, a1, a2 = children.T
            w = a0 + a1 + a2
            h[level].append(_per_chunk_neg_entropy_sum(w))
            live = np.add(a0 > 0.0, a1 > 0.0, dtype=np.int8) + (a2 > 0.0)
            closed = w[live == 1]
            c[level + 1].append(float(closed.sum()))
            c_log_c[level + 1].append(float(closed @ np.log(closed)))
            expand = children[live > 1]
            del children, a0, a1, a2, w, live, closed
            sweep(expand, level + 1)

    sweep(init.reshape(1, 3), 0)
    return tuple(np.array([math.fsum(v) for v in sums]) for sums in (h, c, c_log_c))


def _sweep_bytes(params, n, block_rows=BLOCK_ROWS):
    init, mats = params._float_model
    return [s.tobytes() for s in _sweep_sums(_sweep_model(mats), init, n, block_rows)]


# (2, 40): 43 symbols, so one row's tail products are 1,849 doubles
WIDE_FLOAT = PATTERN_CHANNELS[5]


@pytest.mark.parametrize("params", [*SWEEP_CHANNELS, *PATTERN_CHANNELS[1::2]])
def test_scratch_sweep_keeps_the_per_chunk_sweeps_bits(params):
    # the wide channel's rows grow ~40x a level; past n = 4 a sweep takes seconds
    depths = (1, 2, 3, 4) if params is WIDE_FLOAT else (1, 2, 3, 5, 8)
    init, mats = params._float_model
    model = _sweep_model(mats)
    pair = bitshift._scratch(3 * BLOCK_ROWS)  # as large as any of these sweeps asks for
    for n in depths:
        for block_rows in (1, 7, 50, BLOCK_ROWS):
            want = _per_chunk_sweep_sums(model, init, n, block_rows)
            for buf in pair:  # a sum that reads a stale entry turns NaN
                buf.fill(np.nan)
            got = _sweep_sums(model, init, n, block_rows)
            assert bitshift._scratch(1) is pair
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], (n, block_rows)


def _in_threads(*jobs):
    """Run each job in a thread of its own, all started at once; their results."""
    results, errors = [None] * len(jobs), []
    barrier = threading.Barrier(len(jobs))

    def run(i):
        try:
            barrier.wait(timeout=30)
            results[i] = jobs[i]()
        except Exception as exc:  # handed to the test thread, which fails on it
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    return results


def test_a_fresh_threads_scratch_pair_grows_and_keeps_every_sweeps_bits():
    # block_rows 1 asks for max(3, 3 * 43, 43^2) doubles, the k = 3 sweep
    # then for 3 * BLOCK_ROWS, and the wide sweep after it reads a larger pair
    runs = [(WIDE_FLOAT, 4, 1), (STD_FLOAT, 8, BLOCK_ROWS), (WIDE_FLOAT, 4, BLOCK_ROWS),
            (STD_FLOAT, 8, BLOCK_ROWS)]
    want = [_sweep_bytes(*run) for run in runs]
    got, = _in_threads(lambda: [_sweep_bytes(*run) for run in runs])
    assert got == want


def test_threads_sweeping_at_once_each_keep_their_serial_sums():
    # more threads than cores, each on its own channel and so its own row counts
    runs = [(STD_FLOAT, 8), (SWEEP_CHANNELS[1], 7), (PATTERN_CHANNELS[7], 8),
            (PATTERN_CHANNELS[3], 8)]
    want = [_sweep_bytes(*run) for run in runs]
    got = _in_threads(*(lambda run=run: [_sweep_bytes(*run) for _ in range(3)] for run in runs))
    assert got == [[w] * 3 for w in want]


def test_a_warm_entropy_sweep_allocates_little():
    # the products go into the thread's scratch pair; per-chunk arrays peaked at 1.0 MB
    entropy_levels(STD_FLOAT, 9)  # the float model and the scratch pair are built here
    tracemalloc.start()
    try:
        entropy_levels(STD_FLOAT, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 19


def test_block_entropy_is_the_last_level(std_channel):
    assert block_entropy(std_channel, 5) == float(entropy_levels(std_channel, 5)[4])


def test_entropy_bounds_bracket_and_tighten(channel_eps10):
    rows = entropy_bound_table(channel_eps10, 6)
    for r in rows:
        assert r.lower <= r.upper
    for a, b in zip(rows, rows[1:]):
        assert b.lower >= a.lower - 1e-12
        assert b.upper <= a.upper + 1e-12
    lo, hi = entropy_bounds(channel_eps10, 6)
    assert (lo, hi) == (rows[-1].lower, rows[-1].upper)


def test_entropy_bounds_collapse_without_jitter():
    rows = entropy_bound_table(quiet_channel(), 5)
    for r in rows:
        assert abs(r.lower - math.log(2)) < 1e-12
        assert abs(r.upper - math.log(2)) < 1e-12


# ------------------------------------------------------------- simulation

def test_simulate_produces_admissible_words(std_channel):
    y = simulate(std_channel, 400, Rng(4))
    assert y.shape == (400,)
    assert y.min() >= 0 and y.max() <= 5
    pairs = np.stack([y[:-1], y[1:]])
    assert not ((pairs[0] == 0) & (pairs[1] == 0)).any()
    again = simulate(std_channel, 400, Rng(4))
    assert (y == again).all()


def _one_shot_simulate(params, n, count, gen):
    """The sampler as it drew before it drew in blocks: every input draw at
    once, then every jitter draw, each symbol a sum of cdf comparisons."""
    pf = np.array([float(w) for w in params.p])
    x_cdf = np.cumsum(pf)
    jf = np.array([float(params.jitter_weight(w)) for w in JITTER])
    w_cdf = np.cumsum(jf)
    u = gen.random((count, n))
    x = params.d + sum(u >= c for c in x_cdf[:-1])
    u = gen.random((count, n + 1))
    w = sum(u >= c for c in w_cdf[:-1]) - 1
    return x + w[:, 1:] - w[:, :-1]


@pytest.mark.parametrize("params", [
    ChannelParams(2, 3, HALF, Fraction(1, 4)),
    ChannelParams(2, 4, (0.25, 0.5, 0.25), 0.125),
    ChannelParams(3, 6, (0.1, 0.2, 0.3, 0.4), 0.3),
    ChannelParams(2, 3, (0.5, 0.5), 0.0),
], ids=["2-inputs", "3-inputs", "4-inputs", "quiet"])
@pytest.mark.parametrize("n", [1, 7, 200, 2000])
def test_blocked_sampler_draws_the_one_shot_samplers_words(params, n):
    block = 3 * BLOCK_ROWS  # doubles per block of draws
    rows = -(-block // n)  # the first count whose input draws fill a block
    counts = [1, rows - 1, rows, rows + 1] + ([2060] if n <= 200 else [])
    for seed, count in enumerate(counts):
        got = _simulate(params, n, count, Rng(seed).generator())
        want = _one_shot_simulate(params, n, count, Rng(seed).generator())
        assert got.shape == want.shape and (got == want).all()


def test_simulate_returns_int64(std_channel):
    assert simulate(std_channel, 50, Rng(3)).dtype == np.int64


def test_float_numpy_paths_hold_a_few_megabytes():
    # the bound table at the cap and the bench's smb estimate once took
    # 26.8 and 12.3 MB; numpy.random allocates as it loads, so it loads first
    import numpy.random  # noqa: F401
    params = ChannelParams(2, 3, HALF, Fraction(1, 4))
    for p in (params, STD_FLOAT):
        assert p._float_model  # the cached float models are built before tracing
    for run in (lambda: entropy_bound_table(params, BLOCK_ENTROPY_CAP),
                lambda: smb_estimate(STD_FLOAT, 200, 2000, Rng(1, 7))):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def test_smb_estimate_is_deterministic(std_channel):
    a = smb_estimate(std_channel, 50, 300, Rng(1))
    b = smb_estimate(std_channel, 50, 300, Rng(1))
    assert a == b
    assert a.stderr > 0
    assert a.samples == 300 and a.word_length == 50


def test_smb_estimate_quiet_channel_hits_the_rate_exactly():
    est = smb_estimate(quiet_channel(), 64, 128, Rng(2))
    assert abs(est.mean - math.log(2)) < 1e-12
    assert est.stderr < 1e-13


@pytest.mark.parametrize("params", [
    STD_FLOAT,
    ChannelParams(2, 4, (0.25, 0.5, 0.25), 0.125),
    ChannelParams(3, 6, (0.1, 0.2, 0.3, 0.4), 0.3),  # p not dyadic
])
def test_smb_estimate_is_cylinder_log_prob_on_the_simulated_words(params):
    # 2060 samples: one full batch of 2048 and one of 12
    n, rng = 30, Rng(5)
    got = smb_estimate(params, n, 2060, rng)
    words = np.concatenate([_simulate(params, n, count, rng.task_generator(task))
                            for task, count in enumerate((2048, 12))])
    v = np.array([-cylinder_log_prob(params, w) / n for w in words])
    mean, stderr = float(v.mean()), float(v.std(ddof=1) / math.sqrt(len(v)))
    assert abs(got.mean - mean) <= 1e-15 * abs(mean)
    assert abs(got.stderr - stderr) <= 1e-15 * abs(stderr)


def test_smb_estimate_keeps_its_bits():
    # the float-kernel bench op's estimate, at seed 1
    est = smb_estimate(STD_FLOAT, 200, 2000, Rng(1, 7))
    assert est.mean.hex() == "0x1.67e21ea8360efp+0"
    assert est.stderr.hex() == "0x1.a30a47bca096bp-11"


def test_smb_estimate_validation(std_channel):
    with pytest.raises(ValueError):
        smb_estimate(std_channel, 0, 10, Rng(0))
    with pytest.raises(ValueError):
        smb_estimate(std_channel, 5, 1, Rng(0))


# ---------------------------------------------------------- decay table

def test_bad_config_table_columns_and_closed_form(std_channel):
    rows = bad_config_table(std_channel, 6)
    eps, p2 = std_channel.eps, std_channel.p_of(2)
    for r in rows:
        assert r.p_joint == eps * (p2 * eps) ** (r.n + 1)
        assert r.conditional == r.p_joint / r.p_run
        assert r.scaled == r.n * r.conditional
    assert rows[0].conditional == Fraction(1, 80)


def test_bad_config_table_float_tracks_rational_mode(std_channel):
    exact = bad_config_table(std_channel, 60)
    floats = bad_config_table(STD_FLOAT, 60)
    for e, f in zip(exact, floats):
        for name in ("p_joint", "p_run", "conditional", "scaled"):
            want = float(getattr(e, name))
            got = getattr(f, name)
            assert type(got) is float
            assert abs(got - want) <= 1e-12 * want


def test_bad_config_conditional_decays_exponentially_only_below_eps_one_third():
    # eps = 1/4: each row multiplies nu(0 | 2^n) by about eps / (1 - 2 eps) = 1/2
    rows = bad_config_table(ChannelParams(2, 3, HALF, Fraction(1, 4)), 41)
    for a, b in zip(rows[19:], rows[20:]):  # a.n = 20 .. 40
        assert 0.49 <= b.conditional / a.conditional <= 0.51
    # eps = 2/5: n * nu(0 | 2^n) levels off, so the conditional decays like 1/n
    rows = bad_config_table(ChannelParams(2, 3, HALF, Fraction(2, 5)), 41)
    for a, b in zip(rows[19:], rows[20:]):
        assert 0.15 <= a.scaled <= 0.25
        assert b.conditional / a.conditional > 0.9


def test_bad_config_table_needs_small_symbols():
    wide = ChannelParams(4, 6, (Fraction(1, 3),) * 3, Fraction(1, 4))
    with pytest.raises(ValueError):
        bad_config_table(wide, 4)


# ------------------------------------------------------------- capacity

def test_capacity_quiet_channel_prefers_uniform_inputs():
    res = capacity_search(2, 3, Fraction(0), grid=4, refine=2, n_eval=4)
    assert res.p == (Fraction(1, 2), Fraction(1, 2))
    assert abs(res.midpoint - math.log(2)) < 1e-12
    assert abs(res.upper - res.lower) < 1e-12
    assert "exploratory" in res.note


def test_capacity_brackets_and_is_deterministic():
    a = capacity_search(2, 3, Fraction(1, 4), grid=4, refine=1, n_eval=3)
    b = capacity_search(2, 3, Fraction(1, 4), grid=4, refine=1, n_eval=3)
    assert a == b
    assert a.lower <= a.midpoint <= a.upper
    assert sum(a.p) == 1


def test_capacity_validation():
    with pytest.raises(EnumerationCapError):
        capacity_search(2, 6, Fraction(1, 4))
    with pytest.raises(ValueError):
        capacity_search(2, 3, Fraction(1, 4), grid=1)


def test_capacity_evaluations_are_capped_before_any_is_made(monkeypatch):
    evaluated = []
    monkeypatch.setattr(bitshift, "entropy_bounds",
                        lambda params, n: evaluated.append(params.p) or (0.0, 0.0))
    # two inputs: grid - 1 interior points, then 2 moves per refine round
    capacity_search(2, 3, Fraction(1, 4), grid=CAPACITY_EVAL_CAP + 1, refine=0)
    assert len(evaluated) == CAPACITY_EVAL_CAP
    evaluated.clear()
    for k, grid, refine in ((3, CAPACITY_EVAL_CAP + 2, 0), (3, 8, CAPACITY_EVAL_CAP // 2),
                            (5, 1000, 0), (5, 8, 10**6)):
        with pytest.raises(EnumerationCapError, match="over cap"):
            capacity_search(2, k, Fraction(1, 4), grid=grid, refine=refine)
    assert evaluated == []


# ------------------------------------------------- exact and float twins

def _twin_results(params):
    cyl = {w: cylinder_prob(params, w) for w in ((0, 2), (0, 2, 2), (2, 2), (0, 0))}
    return cyl, block_distribution(params, 1)


def test_exact_and_float_twins_keep_their_own_arithmetic():
    # the twins compare and hash equal, so nothing may be cached under that key
    want_cyl = {(0, 2): Fraction(1, 256), (0, 2, 2): Fraction(1, 2048),
                (2, 2): Fraction(3, 32), (0, 0): Fraction(0)}
    want_block = {(0,): Fraction(1, 32), (1,): Fraction(5, 32), (2,): Fraction(5, 16),
                  (3,): Fraction(5, 16), (4,): Fraction(5, 32), (5,): Fraction(1, 32)}
    for order in ((True, False), (False, True)):
        exact = ChannelParams(2, 3, HALF, Fraction(1, 4))
        twin = ChannelParams(2, 3, (0.5, 0.5), 0.25)
        assert exact == twin and hash(exact) == hash(twin)
        for is_exact in order:
            cyl, block = _twin_results(exact if is_exact else twin)
            kind = Fraction if is_exact else float
            assert all(type(v) is kind for v in (*cyl.values(), *block.values()))
            assert cyl == want_cyl and block == want_block


def test_float_matrices_are_built_once_per_instance(monkeypatch):
    import gibbslab.bitshift as bs
    builds = []

    def counting(params):
        builds.append(params)
        return transition_matrices(params)

    monkeypatch.setattr(bs, "transition_matrices", counting)
    params = ChannelParams(2, 3, HALF, Fraction(1, 4))
    for _ in range(2):
        cylinder_prob(params, (0, 2, 2))
        cylinder_log_prob(params, (0, 2, 2))
        entropy_levels(params, 2)
        entropy_bound_table(params, 3)
        smb_estimate(params, 3, 4, Rng(1))
    # the float model is derived from the forward model, not built again
    assert builds == [params]


@pytest.mark.parametrize("params", SWEEP_CHANNELS + (
    ChannelParams(2, 3, HALF, Fraction(1, 4)),
    # numerators past 2**53, where float(num) / den would round twice
    ChannelParams(2, 3, (Fraction(258793550909, 2111381949380),
                         Fraction(1852588398471, 2111381949380)),
                  Fraction(835351532924, 3000000000057)),
    ChannelParams(3, 6, (0.1, 0.2, 0.3, 0.4), 0.3),
))
def test_float_model_is_read_only_and_rounds_each_entry_once(params):
    init, mats = params._float_model
    assert not init.flags.writeable and not mats.flags.writeable
    want_init = np.array([float(v) for v in params.stationary_vector()])
    entries = transition_matrices(params)
    want_mats = np.array([[[float(v) for v in row] for row in entries[y]]
                          for y in params.output_symbols])
    assert init.tobytes() == want_init.tobytes()
    assert mats.shape == want_mats.shape
    assert mats.tobytes() == want_mats.tobytes()


def test_params_reject_non_finite_weights():
    with pytest.raises(ValueError, match="finite"):
        ChannelParams(2, 3, (math.nan, 0.5), 0.25)
    with pytest.raises(ValueError, match="finite"):
        ChannelParams(2, 4, (math.inf, 0.5, -math.inf), 0.25)
    with pytest.raises(ValueError, match="finite"):
        ChannelParams(2, 3, (0.5, 0.5), math.nan)
