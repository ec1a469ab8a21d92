"""Configuration plumbing, base measures, and the shared probe."""

import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from gibbslab import (
    BINARY,
    Alphabet,
    BernoulliMeasure,
    BitShiftMeasure,
    ChannelParams,
    Configuration,
    Rng,
    Tail,
    Window,
    ZeroProbabilityError,
    as_prob,
    binary_config,
    conditional_prob,
    config,
    fair_coin,
    format_prob,
    glue,
    parse_prob,
    regularity_probe,
)
from gibbslab.core import TableMeasure, prefix_walk, scaled_quotients


# ---------------------------------------------------------------- numbers

def test_as_prob_accepts_fractions_floats_and_strings():
    assert as_prob(Fraction(1, 3)) == Fraction(1, 3)
    assert as_prob("2/7") == Fraction(2, 7)
    assert as_prob(0.25) == 0.25
    assert isinstance(as_prob(0.25), float)
    assert as_prob(1) == Fraction(1)


def test_as_prob_rejects_bool_and_out_of_range_is_not_checked_here():
    # range checks live with the consumers; bool is rejected outright
    with pytest.raises(TypeError):
        as_prob(True)


def test_as_prob_rejects_a_non_number():
    with pytest.raises(TypeError, match=r"cannot interpret None as a probability"):
        as_prob(None)


def test_parse_prob_falls_back_to_float_for_inf():
    # Fraction("inf") is a ValueError; the float reading takes over
    assert parse_prob("inf") == math.inf
    assert isinstance(parse_prob("inf"), float)


def test_rational_round_trip_through_text():
    for p in (Fraction(3, 8), Fraction(0), Fraction(1)):
        assert parse_prob(format_prob(p)) == p


def test_decimal_strings_parse_exactly():
    assert parse_prob("0.25") == Fraction(1, 4)
    assert isinstance(parse_prob("3/4"), Fraction)


# ---------------------------------------------------------------- windows

def test_window_size_indices_membership():
    w = Window(2, 5)
    assert w.size == 4
    assert list(w.indices()) == [2, 3, 4, 5]
    assert 3 in w and 6 not in w
    assert Window(0, 9).contains_window(w)


def test_window_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Window(4, 2)


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet((1, 1))


# ---------------------------------------------------------- configurations

def test_zero_fill_extends_with_zeros():
    om = binary_config("101")
    assert om.value_at(2) == 1
    assert om.value_at(100) == 0


def test_unspecified_tail_raises_outside_window():
    om = binary_config("11", tail=Tail.UNSPECIFIED)
    assert om.value_at(1) == 1
    with pytest.raises(KeyError):
        om.value_at(2)


def test_config_rejects_symbols_outside_alphabet():
    with pytest.raises(ValueError):
        binary_config([2])


def test_config_reads_symbols_by_the_channels_integer_rule():
    # a bool is no symbol, even where it equals one; 2.0 is read as the int 2
    nu = BitShiftMeasure(ChannelParams(2, 3, (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 4)))
    with pytest.raises(TypeError, match="symbol True is not an integer"):
        config(nu.alphabet, 0, (True, 3))
    with pytest.raises(TypeError, match="symbol 2.5 is not an integer"):
        config(nu.alphabet, 0, (2, 2.5))
    as_float = config(nu.alphabet, 0, (2.0, 3))
    assert as_float.values == (2, 3) and all(type(v) is int for v in as_float.values)
    want = nu.prob(config(nu.alphabet, 0, (2, 3)))
    assert nu.prob(as_float) == want and type(nu.prob(as_float)) is Fraction
    assert nu.log_prob(as_float) == pytest.approx(math.log(want), rel=1e-12)
    out = nu.alphabet
    assert conditional_prob(nu, config(out, 0, (0.0,)), config(out, 1, (2.0,))) \
        == conditional_prob(nu, config(out, 0, (0,)), config(out, 1, (2,)))


def test_zero_fill_requires_zero_in_alphabet():
    with pytest.raises(ValueError):
        config(Alphabet((2, 3)), 0, [2, 3], tail=Tail.ZERO_FILL)


def test_config_rejects_a_value_count_other_than_the_window_size():
    with pytest.raises(ValueError, match=r"^2 values for window of size 3$"):
        Configuration(BINARY, Window(0, 2), (0, 1))


def test_restrict_interior_drops_the_tail():
    om = binary_config("010101")
    sub = om.restrict(2, 4)
    assert sub.window == Window(2, 4)
    assert sub.values == (0, 1, 0)
    with pytest.raises(KeyError):
        sub.value_at(9)


def test_restrict_past_the_edge_keeps_zero_fill():
    om = binary_config("010101")
    sub = om.restrict(2, 7)
    assert sub.values == (0, 1, 0, 1, 0, 0)
    assert sub.value_at(9) == 0


def test_glue_concatenates_adjacent_pieces():
    left = binary_config("10")
    right = config(BINARY, 2, (1, 1), tail=Tail.UNSPECIFIED)
    out = glue(left, right)
    assert out.values == (1, 0, 1, 1)
    assert out.tail is Tail.UNSPECIFIED  # rightmost piece decides the tail


def test_glue_rejects_overlap_and_gap():
    a = binary_config("11")
    with pytest.raises(ValueError):
        glue(a, binary_config("00", lo=1))
    with pytest.raises(ValueError):
        glue(a, binary_config("0", lo=4))


def test_glue_rejects_alphabet_mismatch():
    a = binary_config("1")
    b = config(Alphabet((0, 1, 2)), 1, [2])
    with pytest.raises(ValueError):
        glue(a, b)


# ----------------------------------------------------------- Bernoulli

def test_fair_coin_cylinder():
    nu = fair_coin()
    assert nu.prob(binary_config("011", tail=Tail.UNSPECIFIED)) == Fraction(1, 8)


def test_bernoulli_weighted_cylinder():
    abc = Alphabet((2, 3, 4))
    nu = BernoulliMeasure(abc, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    om = config(abc, 0, (2, 4))
    assert nu.prob(om) == Fraction(1, 8)


def test_bernoulli_rejects_bad_weight_vectors():
    with pytest.raises(ValueError):
        BernoulliMeasure(BINARY, (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        BernoulliMeasure(BINARY, (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError):
        BernoulliMeasure(BINARY, (Fraction(1, 2),))


def test_weight_vector_check_is_shared_and_names_the_callers_weights():
    bad = {"must be finite": (math.nan, 0.5), "sum to": (0.5, 0.5 + 1e-11),
           "must be non-negative": (Fraction(3, 2), Fraction(-1, 2))}
    for words, ws in bad.items():
        with pytest.raises(ValueError, match=f"^weights {words}"):
            BernoulliMeasure(BINARY, ws)
        with pytest.raises(ValueError, match=f"^input weights {words}"):
            ChannelParams(2, 3, ws, 0.25)
    for ok in ((Fraction(1, 3), Fraction(2, 3)), (0.1 + 0.2, 0.7)):
        BernoulliMeasure(BINARY, ok)
        ChannelParams(2, 3, ok, Fraction(1, 4))


def test_bernoulli_allows_zero_weight_but_log_raises():
    nu = BernoulliMeasure(BINARY, (Fraction(1), Fraction(0)))
    hit = binary_config("1", tail=Tail.UNSPECIFIED)
    assert nu.prob(hit) == 0
    with pytest.raises(ZeroProbabilityError):
        nu.log_prob(hit)


def test_bernoulli_long_float_products_stay_finite():
    nu = BernoulliMeasure(BINARY, (0.5, 0.5))
    om = binary_config([0] * 200, tail=Tail.UNSPECIFIED)
    p = nu.prob(om)
    assert p > 0
    assert math.isclose(math.log(p), -200 * math.log(2), rel_tol=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(weights=st.sampled_from([(0.3, 0.7), (0.1, 0.9), (1 / 3, 2 / 3), (0.2, 0.5, 0.3)]),
       n=st.integers(min_value=65, max_value=1000),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_bernoulli_long_float_words_are_the_plain_product(weights, n, seed):
    # the first of the n factors multiplies 1.0 exactly, so the product rounds
    # n - 1 times: within gamma = (n - 1) u / (1 - (n - 1) u), u = 2^-53, of the
    # exact product of the weights' dyadic values while that stays normal
    symbols = tuple(range(len(weights)))
    nu = BernoulliMeasure(Alphabet(symbols), weights)
    rnd = random.Random(seed)
    word = rnd.choices(symbols, weights, k=n)
    exact = math.prod(Fraction(weights[s]) for s in word)
    assume(exact >= Fraction(2) ** -1022)
    p = nu.prob(config(nu.alphabet, 0, word))
    assert type(p) is float
    gamma = Fraction(n - 1, 2**53 - (n - 1))
    assert abs(Fraction(p) - exact) <= gamma * exact


def test_bernoulli_long_float_word_with_a_zero_weight_symbol_is_zero():
    nu = BernoulliMeasure(Alphabet((0, 1, 2)), (0.0, 0.4, 0.6))
    rnd = random.Random(5)
    for n in (65, 300, 1000):
        word = rnd.choices((1, 2), k=n)
        word[rnd.randrange(n)] = 0
        p = nu.prob(config(nu.alphabet, 3, word))
        assert p == 0.0 and type(p) is float


def test_bernoulli_rejects_alphabet_mismatch():
    nu = fair_coin()
    with pytest.raises(ValueError):
        nu.prob(config(Alphabet((0, 1, 2)), 0, [2]))


@settings(derandomize=True, max_examples=50)
@given(
    num=st.integers(min_value=0, max_value=8),
    word=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=6),
)
def test_bernoulli_marginal_consistency(num, word):
    # summing over one extra site on the right reproduces the cylinder mass
    nu = BernoulliMeasure(BINARY, (Fraction(num, 8), Fraction(8 - num, 8)))
    base = config(BINARY, 0, word)
    extended = sum(nu.prob(config(BINARY, 0, list(word) + [s])) for s in (0, 1))
    assert extended == nu.prob(base)


# ---------------------------------------------------------- table measures

def _two_site_table():
    weights = {
        (0, 0): Fraction(1, 8), (0, 1): Fraction(3, 8),
        (1, 0): Fraction(2, 8), (1, 1): Fraction(2, 8),
    }
    return TableMeasure(BINARY, Window(0, 1), weights)


def test_table_measure_marginalizes_partial_windows():
    mu = _two_site_table()
    assert mu.prob(config(BINARY, 0, [0])) == Fraction(1, 2)
    assert mu.prob(config(BINARY, 1, [0])) == Fraction(3, 8)


def test_table_measure_normalizes_raw_weights():
    mu = TableMeasure(BINARY, Window(0, 0), {(0,): Fraction(3), (1,): Fraction(1)})
    assert mu.prob(config(BINARY, 0, [0])) == Fraction(3, 4)


def test_table_measure_requires_full_coverage_and_some_mass():
    with pytest.raises(ValueError):
        TableMeasure(BINARY, Window(0, 1), {(0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        TableMeasure(BINARY, Window(0, 0), {(0,): Fraction(0), (1,): Fraction(0)})


def test_table_measure_rejects_a_negative_weight():
    with pytest.raises(ValueError, match=r"^negative weight$"):
        TableMeasure(BINARY, Window(0, 0), {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})


def test_table_measure_rejects_window_outside_support():
    mu = _two_site_table()
    with pytest.raises(ValueError):
        mu.prob(config(BINARY, 0, [0, 1, 1]))


@pytest.mark.parametrize("exact", (True, False))
def test_table_measure_prob_is_the_literal_filter_and_sum_on_every_cylinder(exact):
    rnd = random.Random(7)
    abc = Alphabet((0, 1, 2))
    support = Window(2, 6)
    words = list(itertools.product(abc.symbols, repeat=support.size))
    weights = {w: Fraction(rnd.randint(0, 9), 7) if exact else rnd.random() for w in words}
    # sums left to right from 0, as sum() adds up to Python 3.11 (from 3.12
    # sum() compensates float additions)
    total = reduce(operator.add, weights.values(), 0)
    mu = TableMeasure(abc, support, weights)
    for _ in range(2):  # the second pass reads the marginals the first one kept
        for lo in range(support.lo, support.hi + 1):
            for hi in range(lo, support.hi + 1):
                cut = slice(lo - support.lo, hi - support.lo + 1)
                for word in itertools.product(abc.symbols, repeat=hi - lo + 1):
                    want = reduce(operator.add, (v for w, v in weights.items()
                                                 if w[cut] == word), 0) / total
                    got = mu.prob(config(abc, lo, word))
                    assert got == want and type(got) is type(want)


def test_table_distribution_matches_generic_enumeration():
    mu = _two_site_table()
    w = Window(0, 1)
    fast = mu.distribution(w)
    slow = {word: mu.prob(config(BINARY, w.lo, word)) for word in mu.words(w)}
    assert fast == slow
    assert sum(fast.values()) == 1


# ------------------------------------------------------------ conditionals

def test_conditional_prob_on_product_measure_is_marginal():
    nu = BernoulliMeasure(BINARY, (Fraction(1, 4), Fraction(3, 4)))
    target = config(BINARY, 0, [1])
    given = config(BINARY, 1, [0, 1])
    assert conditional_prob(nu, target, given) == Fraction(3, 4)


def test_conditional_prob_is_side_agnostic():
    nu = fair_coin()
    left = config(BINARY, 0, [1])
    right = config(BINARY, 1, [0])
    assert conditional_prob(nu, left, right) == conditional_prob(nu, right, left)


def test_conditional_prob_zero_conditioning_event_raises():
    nu = BernoulliMeasure(BINARY, (Fraction(1), Fraction(0)))
    with pytest.raises(ZeroProbabilityError):
        conditional_prob(nu, config(BINARY, 0, [0]), config(BINARY, 1, [1]))


@pytest.mark.parametrize("n", [429, 600])
def test_float_channel_conditional_survives_underflow(n):
    # nu([0, 2^n]) underflows a double at both n, and nu([2^n]) at 600
    rough = BitShiftMeasure(ChannelParams(2, 3, (0.5, 0.5), 0.25))
    exact = BitShiftMeasure(ChannelParams(2, 3, (Fraction(1, 2),) * 2, Fraction(1, 4)))
    target, given = config(rough.alphabet, 0, [0]), config(rough.alphabet, 1, [2] * n)
    want = conditional_prob(exact, target, given)
    got = conditional_prob(rough, target, given)
    assert type(got) is float and want > 0
    assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * want


def test_float_coin_conditional_survives_underflow():
    # 0.5^1100 underflows a double; each cylinder's rescaled fold does not
    coin = BernoulliMeasure(BINARY, (0.5, 0.5))
    assert conditional_prob(coin, config(BINARY, 0, [0]), config(BINARY, 1, [1] * 1100)) == 0.5


def test_float_conditional_keeps_a_subnormal_weight():
    # 2^-1074 times a rescaled state of 1 must not round to 0, or the
    # conditioning cylinder would lose the mass prob gives it
    nu = BernoulliMeasure(BINARY, (5e-324, 1.0))
    assert nu.prob(config(BINARY, 1, [1, 1, 0])) == 5e-324
    assert conditional_prob(nu, config(BINARY, 0, [1]), config(BINARY, 1, [1, 1, 0])) == 1.0
    assert conditional_prob(nu, config(BINARY, 0, [0]), config(BINARY, 1, [1, 0, 1])) == 5e-324


# ----------------------------------------------------------- prefix walk

def test_prefix_walk_steps_each_distinct_state_once_per_symbol():
    symbols, n = (0, 1, 2), 6
    steps, leaves = Counter(), Counter()

    def fold(i, state, s):  # a five-state machine that drops state 4
        nxt = (2 * state + s + i) % 5
        return None if nxt == 4 else nxt

    def step(state, s):  # the state carries its site, as step is not told it
        i, x = state
        steps[i, x, s] += 1
        nxt = fold(i, x, s)
        return None if nxt is None else (i + 1, nxt)

    def leaf(state):
        leaves[state] += 1
        return 10 * state[1]

    # the literal fold of every word, keeping the live words and states at each site
    live, reached = [{} for _ in range(n + 1)], [set() for _ in range(n + 1)]
    for word in itertools.product(symbols, repeat=n):
        state = 0
        for i, s in enumerate(word):
            reached[i].add(state)
            if (state := fold(i, state, s)) is None:
                break
            live[i + 1][word[:i + 1]] = 10 * state
        else:
            reached[n].add(state)

    levels = [2, 3, n]
    got = list(prefix_walk(symbols, n, (0, 0), step, dict.fromkeys(levels, leaf)))
    # each level lexicographic, dead words absent
    assert [list(d.items()) for d in got] == [list(live[l].items()) for l in levels]
    assert len(reached[n]) < len(got[-1]) < len(symbols) ** n  # states merge, words drop
    assert set(steps.values()) == {1}
    for i in range(n):
        assert {(j, state) for j, state, _ in steps if j == i} == {(i, x) for x in reached[i]}
    assert sum(steps.values()) == len(symbols) * sum(map(len, reached[:n]))
    assert leaves == Counter((l, x) for l in levels for x in reached[l])



def test_scaled_quotients_build_one_fraction_per_distinct_numerator():
    nums = {(0,): 2, (1,): 6, (2,): 2, (3,): 0, (4,): 6}
    got = scaled_quotients(nums, 8)
    assert got == {k: Fraction(v, 8) for k, v in nums.items()} and list(got) == list(nums)
    assert len({id(f) for f in got.values()}) == 3
    floats = scaled_quotients({(0,): 1.0, (1,): 3.0}, 4.0)
    assert floats == {(0,): 0.25, (1,): 0.75}


# ---------------------------------------------------------------- probe

def test_probe_on_product_measure_converges_immediately():
    res = regularity_probe(
        fair_coin(),
        target=config(BINARY, 0, [1]),
        omega=binary_config([1] * 30),
        n_range=range(1, 12),
        tol=1e-9,
        stability_window=4,
    )
    assert res.converged
    assert res.limit == Fraction(1, 2)
    assert res.failed_at is None
    assert res.values == (Fraction(1, 2),) * 11


def test_probe_reports_zero_probability_truncation():
    deficient = BernoulliMeasure(BINARY, (Fraction(1), Fraction(0)))
    res = regularity_probe(
        deficient,
        target=config(BINARY, 0, [0]),
        omega=binary_config([1] * 10),
        n_range=range(1, 8),
    )
    assert res.failed_at == 1
    assert not res.converged
    assert res.values == ()


def test_probe_rejects_indices_before_the_conditioning_start():
    with pytest.raises(ValueError):
        regularity_probe(fair_coin(), config(BINARY, 0, [1]),
                         binary_config("0000"), n_range=[0, 1, 2])


# ------------------------------------------------------------------ rng

def test_rng_streams_are_reproducible_and_distinct():
    a = Rng(12, stream=3).generator().integers(0, 1 << 30, size=8)
    b = Rng(12, stream=3).generator().integers(0, 1 << 30, size=8)
    c = Rng(12, stream=4).generator().integers(0, 1 << 30, size=8)
    assert list(a) == list(b)
    assert list(a) != list(c)


def test_rng_task_generators_are_reproducible():
    one = Rng(5).task_generator(7).random(4)
    two = Rng(5).task_generator(7).random(4)
    assert list(one) == list(two)


def test_containers_reject_non_finite_weights():
    with pytest.raises(ValueError, match="finite"):
        BernoulliMeasure(BINARY, (math.nan, 0.5))
    with pytest.raises(ValueError, match="finite"):
        BernoulliMeasure(BINARY, (math.inf, -math.inf))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            TableMeasure(BINARY, Window(0, 0), {(0,): 1.0, (1,): bad})
