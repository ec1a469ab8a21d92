"""Relative entropy, density ratios, and the conditional-TV identity."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gibbslab import (
    BINARY,
    BernoulliMeasure,
    BitShiftMeasure,
    ChannelParams,
    EnumerationCapError,
    FiniteVolumeMeasure,
    InteractionParams,
    Window,
    ZeroProbabilityError,
    binary_config,
    conditional_gap_probe,
    config,
    density_ratio,
    entropy_levels,
    fair_coin,
    hamiltonian,
    relative_entropy_density,
    tv_identity_check,
    window_relative_entropy,
)
from gibbslab.core import TableMeasure

SKEW = BernoulliMeasure(BINARY, (Fraction(1, 4), Fraction(3, 4)))
DEFICIENT = BernoulliMeasure(BINARY, (Fraction(1), Fraction(0)))


def small_volume(m: int = 6) -> FiniteVolumeMeasure:
    return FiniteVolumeMeasure(InteractionParams(Fraction(1, 2), m), "rational")


# ------------------------------------------------------------ window value

def test_relent_vanishes_on_equal_measures():
    rep = window_relative_entropy(fair_coin(), fair_coin(), Window(0, 3),
                                  keep_contributions=True)
    assert rep.value == 0.0
    assert not rep.infinite
    assert rep.contributions == ()


def test_relent_single_site_hand_value():
    rep = window_relative_entropy(fair_coin(), SKEW, Window(0, 0))
    assert abs(rep.value - 0.5 * math.log(4.0 / 3.0)) < 1e-12


def test_relent_flags_absolute_continuity_failure_as_infinity():
    rep = window_relative_entropy(fair_coin(), DEFICIENT, Window(0, 1))
    assert rep.infinite
    assert rep.value == math.inf


def test_relent_skips_nu_null_words():
    rep = window_relative_entropy(DEFICIENT, fair_coin(), Window(0, 0))
    assert abs(rep.value - math.log(2.0)) < 1e-12
    assert not rep.infinite


def test_relent_additive_over_product_windows():
    one = window_relative_entropy(SKEW, fair_coin(), Window(0, 0)).value
    four = window_relative_entropy(SKEW, fair_coin(), Window(0, 3)).value
    assert abs(four - 4 * one) < 1e-12


def test_relent_contributions_sum_to_the_value():
    rep = window_relative_entropy(SKEW, fair_coin(), Window(0, 2),
                                  keep_contributions=True)
    assert len(rep.contributions) == 8
    assert abs(math.fsum(t for _, t in rep.contributions) - rep.value) < 1e-12


def test_relent_nonnegative_on_assorted_pairs():
    pairs = [
        (SKEW, fair_coin()),
        (fair_coin(), SKEW),
        (small_volume(), fair_coin()),
        (fair_coin(), small_volume()),
    ]
    for nu, mu in pairs:
        assert window_relative_entropy(nu, mu, Window(0, 4)).value >= 0.0


def test_relent_respects_the_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        window_relative_entropy(fair_coin(), SKEW, Window(0, 4), cap=8)


# ---------------------------------------------------------------- density

def test_density_rows_vanish_on_equal_measures():
    rows = relative_entropy_density(fair_coin(), fair_coin(), 5)
    assert all(r.window_value == 0.0 and r.per_site == 0.0 for r in rows)


def test_density_is_flat_for_product_pairs():
    rows = relative_entropy_density(SKEW, fair_coin(), 6)
    per = rows[0].per_site
    for r in rows:
        assert r.n == rows.index(r) + 1
        assert abs(r.per_site - per) < 1e-12
        assert abs(r.window_value - r.n * r.per_site) < 1e-12
    with pytest.raises(ValueError):
        relative_entropy_density(SKEW, fair_coin(), 0)


def test_density_windows_start_at_site_one_by_default():
    # against a volume measure on [0, 6] the site range matters
    mu = small_volume()
    rows = relative_entropy_density(fair_coin(), mu, 3)
    again = relative_entropy_density(fair_coin(), mu, 3, lo=1)
    assert rows == again
    shifted = relative_entropy_density(fair_coin(), mu, 3, lo=0)
    assert rows != shifted


# ----------------------------------------------------------- density ratio

def test_density_ratio_trivial_and_zero_cases():
    cfg = config(BINARY, 0, (0, 1, 1))
    assert density_ratio(fair_coin(), fair_coin(), cfg) == 1
    with pytest.raises(ZeroProbabilityError):
        density_ratio(fair_coin(), DEFICIENT, config(BINARY, 0, (1,)))


def test_density_ratio_constant_where_the_energy_vanishes():
    mu = small_volume()
    base = density_ratio(mu, fair_coin(), config(BINARY, 0, (0,) * 7))
    for word in [(0, 1, 1, 0, 1, 0, 1), (0, 0, 0, 1, 1, 1, 1)]:
        assert density_ratio(mu, fair_coin(), config(BINARY, 0, word)) == base
    assert base > 1  # zero-energy words are over-weighted against the coin


def test_density_ratio_averages_to_one():
    mu = small_volume()
    nu = fair_coin()
    w = Window(0, 4)
    total = sum(mu.prob(config(BINARY, 0, word))
                * density_ratio(nu, mu, config(BINARY, 0, word))
                for word in mu.words(w))
    assert total == 1


# ------------------------------------------------------------- tv identity

def test_tv_identity_zero_for_equal_measures():
    res = tv_identity_check(fair_coin(), fair_coin(), Window(0, 0), Window(0, 4))
    assert res.exact and res.equal
    assert res.lhs == 0 and res.rhs == 0


def test_tv_identity_exact_for_volume_vs_coin():
    res = tv_identity_check(small_volume(), fair_coin(), Window(0, 0), Window(0, 6))
    assert res.exact and res.equal
    assert res.lhs == res.rhs > 0


def test_tv_identity_exact_for_interior_lam():
    res = tv_identity_check(small_volume(), fair_coin(), Window(2, 3), Window(0, 6))
    assert res.exact and res.equal


def test_tv_identity_float_mode_is_flagged():
    nu = BernoulliMeasure(BINARY, (0.3, 0.7))
    mu = BernoulliMeasure(BINARY, (0.5, 0.5))
    res = tv_identity_check(nu, mu, Window(0, 1), Window(0, 3))
    assert not res.exact
    assert res.equal


def test_tv_identity_validation():
    with pytest.raises(ZeroProbabilityError):
        tv_identity_check(fair_coin(), DEFICIENT, Window(0, 0), Window(0, 2))
    with pytest.raises(ValueError):
        tv_identity_check(fair_coin(), SKEW, Window(0, 2), Window(0, 2))
    with pytest.raises(ValueError):
        tv_identity_check(fair_coin(), SKEW, Window(0, 3), Window(1, 2))


@settings(derandomize=True, max_examples=40)
@given(
    raw_p=st.lists(st.integers(min_value=1, max_value=9), min_size=16, max_size=16),
    raw_q=st.lists(st.integers(min_value=1, max_value=9), min_size=16, max_size=16),
    lam_lo=st.integers(min_value=0, max_value=3),
    span=st.integers(min_value=0, max_value=3),
)
def test_tv_identity_on_random_tables(raw_p, raw_q, lam_lo, span):
    lam_hi = min(3, lam_lo + span)
    if lam_lo == 0 and lam_hi == 3:
        lam_hi = 2  # keep lam a proper subset
    delta = Window(0, 3)
    words = list(fair_coin().words(delta))
    nu = TableMeasure(BINARY, delta, dict(zip(words, map(Fraction, raw_p))))
    mu = TableMeasure(BINARY, delta, dict(zip(words, map(Fraction, raw_q))))
    res = tv_identity_check(nu, mu, Window(lam_lo, lam_hi), delta)
    assert res.exact
    assert res.equal


# ------------------------------------------------------------- conditional gaps

def test_gap_probe_vanishes_on_equal_measures():
    rows = conditional_gap_probe(fair_coin(), fair_coin(), Window(0, 0), 4)
    assert [r.n for r in rows] == [1, 2, 3, 4]
    assert all(r.mean_gap == 0.0 and r.max_gap == 0.0 for r in rows)


def test_gap_probe_between_two_volumes():
    small = small_volume(6)
    large = FiniteVolumeMeasure(InteractionParams(Fraction(1, 2), 10), "rational")
    rows = conditional_gap_probe(small, large, Window(0, 0), 5)
    for r in rows:
        assert 0.0 < r.mean_gap <= r.max_gap <= 2.0
        assert r.conditioned_on > 0


def test_gap_probe_validation():
    with pytest.raises(ValueError):
        conditional_gap_probe(fair_coin(), SKEW, Window(0, 2), 2)
    with pytest.raises(ZeroProbabilityError):
        conditional_gap_probe(fair_coin(), DEFICIENT, Window(0, 0), 2)


# ------------------------------------------------------------- alphabets

CHANNEL = BitShiftMeasure(ChannelParams(2, 3, (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 4)))


@pytest.mark.parametrize("call", [
    lambda nu, mu: window_relative_entropy(nu, mu, Window(1, 1)),
    lambda nu, mu: relative_entropy_density(nu, mu, 2),
    lambda nu, mu: tv_identity_check(nu, mu, Window(0, 0), Window(0, 2)),
    lambda nu, mu: conditional_gap_probe(nu, mu, Window(0, 0), 2),
], ids=["window", "density", "tv_identity", "conditional_gap"])
@pytest.mark.parametrize("channel_first", [True, False])
def test_relent_rejects_measures_on_different_alphabets(call, channel_first):
    # once a KeyError, a ZeroProbabilityError, or a silent finite value
    pair = (CHANNEL, fair_coin()) if channel_first else (fair_coin(), CHANNEL)
    with pytest.raises(ValueError, match="different alphabets") as err:
        call(*pair)
    assert CHANNEL.label in str(err.value) and "fair-coin" in str(err.value)


# ------------------------------------------- against the per-word formulas

def _probs(measure, window):
    """Each listed probability as the rational it stands for; a float reads
    as the dyadic rational it stores."""
    return {w: Fraction(measure.prob(config(measure.alphabet, window.lo, w)))
            for w in measure.words(window)}


def _rest(w, rest_ix):
    return tuple(w[j] for j in rest_ix)


def _literal_relent(p, q):
    if all(p[w] == q[w] for w in p):
        return 0.0
    terms = []
    for w, pw in p.items():
        if pw == 0:
            continue
        if q[w] == 0:
            return math.inf
        terms.append(float(pw) * math.log(float(pw / q[w])))
    value = math.fsum(terms)
    return 0.0 if -1e-9 < value < 0.0 else value


def _literal_split(p, q, rest_ix):
    zero = Fraction(0)
    p_rest, q_rest, gaps = {}, {}, {}
    for w in p:
        r = _rest(w, rest_ix)
        p_rest[r] = p_rest.get(r, zero) + p[w]
        q_rest[r] = q_rest.get(r, zero) + q[w]
    for w in p:
        r = _rest(w, rest_ix)
        if p_rest[r] != 0 and q_rest[r] != 0:
            gaps[r] = gaps.get(r, zero) + abs(p[w] / p_rest[r] - q[w] / q_rest[r])
    return zero, p_rest, q_rest, gaps


def _literal_tv(p, q, rest_ix):
    zero, p_rest, q_rest, gaps = _literal_split(p, q, rest_ix)
    lhs = zero
    for w, qw in q.items():
        if qw != 0:
            r = _rest(w, rest_ix)
            lhs += abs(p[w] - qw * p_rest[r] / q_rest[r])
    rhs = zero
    for r, gap in gaps.items():
        rhs += p_rest[r] * gap
    return lhs, rhs


def _literal_gap_row(p, q, rest_ix):
    zero, p_rest, _, gaps = _literal_split(p, q, rest_ix)
    mean = sum((p_rest[r] * g for r, g in gaps.items()), zero)
    return float(mean), float(max(gaps.values(), default=zero)), len(gaps)


def _same(got, want):
    assert type(got) is type(want)
    assert got == want if isinstance(want, Fraction) else got.hex() == want.hex()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(size=st.integers(min_value=2, max_value=5),
       raw_p=st.lists(st.integers(min_value=0, max_value=6), min_size=32, max_size=32),
       raw_q=st.lists(st.integers(min_value=1, max_value=9), min_size=32, max_size=32),
       kinds=st.sampled_from(["exact", "float", "mixed"]),
       data=st.data())
def test_relent_on_random_tables_matches_the_per_word_formulas(size, raw_p, raw_q, kinds, data):
    delta = Window(0, size - 1)
    words = list(itertools.product((0, 1), repeat=size))
    raw_p = raw_p[:len(words)]
    if not any(raw_p):
        raw_p[0] = 1
    p_of = Fraction if kinds != "float" else (lambda k: k / 7)
    q_of = Fraction if kinds == "exact" else (lambda k: k / 7)
    nu = TableMeasure(BINARY, delta, {w: p_of(k) for w, k in zip(words, raw_p)})
    mu = TableMeasure(BINARY, delta, {w: q_of(k) for w, k in zip(words, raw_q[:len(words)])})
    lo = data.draw(st.integers(min_value=0, max_value=size - 1))
    hi = data.draw(st.integers(min_value=lo, max_value=size - 1 if lo else size - 2))

    for window in (delta, Window(lo, hi)):
        got = window_relative_entropy(nu, mu, window).value
        _same(got, _literal_relent(_probs(nu, window), _probs(mu, window)))

    rest_ix = [j for j in range(size) if not lo <= j <= hi]
    res = tv_identity_check(nu, mu, Window(lo, hi), delta)
    lhs, rhs = _literal_tv(_probs(nu, delta), _probs(mu, delta), rest_ix)
    rounded = (lambda x: x) if kinds == "exact" else float  # each side rounds once
    _same(res.lhs, rounded(lhs))
    _same(res.rhs, rounded(rhs))
    assert res.exact == (kinds == "exact") and res.equal

    if hi < size - 1:
        rows = conditional_gap_probe(nu, mu, Window(lo, hi), size - 1)
        for row in rows:
            window = Window(lo, row.n)
            ix = [j for j in range(window.size) if not lo <= j + lo <= hi]
            mean, biggest, count = _literal_gap_row(_probs(nu, window), _probs(mu, window), ix)
            _same(row.mean_gap, mean)
            _same(row.max_gap, biggest)
            assert row.conditioned_on == count


@pytest.mark.parametrize("weights", [(5e-324, 1.0), (1e-300, 1.0), (0.0, 1.0), (0.3, 0.7)],
                         ids=["subnormal", "tiny", "point-mass", "inexact"])
def test_float_probabilities_are_read_as_the_rationals_they_store(weights):
    # float weights at the ends of the double range, against the float coin
    # both ways round; the outputs are the literal formulas on Fraction(v),
    # rounded once
    nu = BernoulliMeasure(BINARY, weights)
    coin = BernoulliMeasure(BINARY, (0.5, 0.5))
    delta = Window(0, 2)
    for a, b in ((nu, coin), (coin, nu)):
        p, q = _probs(a, delta), _probs(b, delta)
        _same(window_relative_entropy(a, b, delta).value, _literal_relent(p, q))
        if all(q[w] != 0 for w in p if p[w] != 0):
            res = tv_identity_check(a, b, Window(1, 1), delta)
            lhs, rhs = _literal_tv(p, q, [0, 2])
            _same(res.lhs, float(lhs))
            _same(res.rhs, float(rhs))
        if all(q[w] != 0 for w in p):
            row = conditional_gap_probe(a, b, Window(0, 0), 2)[-1]
            assert (row.mean_gap, row.max_gap, row.conditioned_on) == \
                _literal_gap_row(p, q, [1, 2])


def _twins(family, data):
    """((exact, float) twins of one measure, a window inside its support)."""
    if family == "volume":
        rho = data.draw(st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]))
        m = data.draw(st.sampled_from([4, 6, 8]))
        return (FiniteVolumeMeasure(InteractionParams(rho, m), "rational"),
                FiniteVolumeMeasure(InteractionParams(float(rho), m), "float")), Window(0, m)
    if family == "bernoulli":
        k = data.draw(st.integers(min_value=1, max_value=15))
        w = (Fraction(k, 16), Fraction(16 - k, 16))
        return (BernoulliMeasure(BINARY, w),
                BernoulliMeasure(BINARY, tuple(map(float, w)))), Window(1, 5)
    eps = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 8)]))
    half = (Fraction(1, 2), Fraction(1, 2))
    return (BitShiftMeasure(ChannelParams(2, 3, half, eps)),
            BitShiftMeasure(ChannelParams(2, 3, (0.5, 0.5), float(eps)))), Window(1, 4)


def _marginals(measure):
    site = measure.distribution(Window(1, 1))
    return BernoulliMeasure(measure.alphabet, [site[(s,)] for s in measure.alphabet])


def _close(got, want, rel):
    if want == math.inf:  # nu charges a word mu does not, in both modes
        assert got == math.inf
        return
    # Each float-mode probability is a few ulp off its exact twin, which an
    # entropy passes on as an absolute error of order 1e-16 however small the
    # entropy is (measured: 1.4e-16 on 1.2e-4, a volume against a Bernoulli
    # pair).  So below 0.01 the relative bound becomes an absolute 1e-14.
    tol = 1e-12 * max(abs(want), 1e-2) if rel else 1e-12
    assert abs(got - want) <= tol, (got, want)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(family=st.sampled_from(["volume", "bernoulli", "channel"]),
       partner=st.sampled_from(["coin", "bernoulli", "marginals"]),
       swap=st.booleans(), data=st.data())
def test_float_mode_tracks_rational_mode(family, partner, swap, data):
    """Each relent function on a pair's float twins is within 1e-12 of its
    value on the exact pair: relative for entropies (see _close), absolute
    for TV sides and gaps, which are at most 2."""
    twins, window = _twins(family, data)
    if family == "channel":
        partner = "marginals"  # the only partner on the channel's alphabet
    if partner == "coin":
        others = (fair_coin(), fair_coin())  # the exact coin in both modes
    elif partner == "bernoulli":
        others = _twins("bernoulli", data)[0]
    else:
        others = tuple(_marginals(t) for t in twins)
    pairs = list(zip(twins, others))
    if swap:
        pairs = [(o, t) for t, o in pairs]
    (nu, mu), (fnu, fmu) = pairs
    lo, n = window.lo, window.size
    lam = Window(lo, lo)

    _close(window_relative_entropy(fnu, fmu, window).value,
           window_relative_entropy(nu, mu, window).value, rel=True)
    for got, want in zip(relative_entropy_density(fnu, fmu, n - 1, lo=lo),
                         relative_entropy_density(nu, mu, n - 1, lo=lo), strict=True):
        _close(got.window_value, want.window_value, rel=True)
        _close(got.per_site, want.per_site, rel=True)
    try:
        want = tv_identity_check(nu, mu, lam, window)
    except ZeroProbabilityError:
        with pytest.raises(ZeroProbabilityError):
            tv_identity_check(fnu, fmu, lam, window)
        return
    got = tv_identity_check(fnu, fmu, lam, window)
    assert want.exact and want.equal and got.equal
    _close(got.lhs, float(want.lhs), rel=False)
    _close(got.rhs, float(want.rhs), rel=False)
    for got, want in zip(conditional_gap_probe(fnu, fmu, lam, window.hi),
                         conditional_gap_probe(nu, mu, lam, window.hi), strict=True):
        assert got.n == want.n and got.conditioned_on == want.conditioned_on
        _close(got.mean_gap, want.mean_gap, rel=False)
        _close(got.max_gap, want.max_gap, rel=False)


# ------------------------------------- finite forms of the variational principle

BENCH_CHANNELS = [
    ChannelParams(2, 3, (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 4)),
    ChannelParams(2, 4, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)), Fraction(1, 8)),
]


@pytest.mark.parametrize("params", BENCH_CHANNELS)
def test_channel_relent_against_its_marginals_is_the_entropy_defect(params):
    """H_[1,n](nu | product of nu's one-site marginals) = n H_1 - H_n."""
    nu = BitShiftMeasure(params)
    site = nu.distribution(Window(1, 1))
    marginals = BernoulliMeasure(nu.alphabet, [site[(s,)] for s in nu.alphabet])
    levels = entropy_levels(params, 5)
    for n in range(2, 6):
        value = window_relative_entropy(nu, marginals, Window(1, n)).value
        # The sweep's forward vectors are n float steps of 3-term dot products,
        # so each weight w is within 3n ulp and each -w log w within
        # 3n u (|log w| + 1) w, summing to 3n u (H_n + 1); its pairwise sums
        # add about log2(7^5) u H_n.  relent rounds each exact term at most 4
        # times.  With H_n <= n log(k + 3), (3n + 20) u (n log(k + 3) + 1)
        # covers all of it: 4.7e-14 at n = 5, k = 4 (measured <= 1.6e-15).
        tol = (3 * n + 20) * 2**-53 * (n * math.log(params.k + 3) + 1)
        assert abs(value - (n * levels[0] - levels[n - 1])) <= tol


@pytest.mark.parametrize("m", [8, 12])
def test_volume_relent_against_the_coin_is_free_energy_minus_energy(m):
    """H_[0,m](mu_m | fair coin) = -mu_m(H) - log(Z_m / 2^(m+1)), in float mode."""
    params = InteractionParams(0.5, m)
    mu = FiniteVolumeMeasure(params, "float")
    dist = mu.distribution(Window(0, m))
    energy = {w: float(hamiltonian(params, binary_config(w))) for w in dist}
    z = math.fsum(math.exp(-h) for h in energy.values())
    mean_energy = math.fsum(dist[w] * energy[w] for w in dist)
    value = window_relative_entropy(mu, fair_coin(), Window(0, m)).value
    # mu_m rounds each of its at most m/2 + 1 factors e^(-rho^e) once and
    # rounds once per product and quotient, so log mu_m(w) differs from
    # -H(w) - log Z_m by at most (m + 4) u, u = 2^-53; the terms summed on
    # either side are at most (m + 1) log 2 + max H <= m + 2 in size.
    # Measured: 7e-17 at m = 8, 1.7e-16 at m = 12.
    tol = (m + 4) * (m + 2) * 2**-53
    assert abs(value - (-mean_energy - math.log(z / 2 ** (m + 1)))) <= tol
