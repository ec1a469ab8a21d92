"""Jitter channel: forward recursion, admissibility, entropy machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

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
    cylinder_log_prob,
    cylinder_prob,
    entropy_bound_table,
    entropy_bounds,
    entropy_levels,
    is_admissible,
    simulate,
    smb_estimate,
)
from gibbslab.bitshift import transition_matrices
from gibbslab.core import Configuration, Alphabet, binary_config

HALF = (Fraction(1, 2), Fraction(1, 2))


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
    arr = transition_matrices(std_channel, as_float=True)
    assert arr.shape == (6, 3, 3)
    assert arr[2][1][1] == 0.25


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


def test_log_prob_matches_exact_values(std_channel):
    for word in [(2, 3, 2, 4), (0, 2, 2), (5, 2)]:
        exact = cylinder_prob(std_channel, word)
        assert abs(cylinder_log_prob(std_channel, word)
                   - math.log(float(exact))) < 1e-12
    with pytest.raises(ZeroProbabilityError):
        cylinder_log_prob(std_channel, (0, 0))


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


def test_measure_provider_wraps_the_channel(std_channel):
    nu = BitShiftMeasure(std_channel)
    cfg = Configuration(nu.alphabet, Window(3, 5), (0, 2, 2))
    assert nu.prob(cfg) == Fraction(1, 2048)  # stationary: location free
    assert nu.stationary
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
    pinned = entropy_levels(std_channel, 4, start=0)
    free = entropy_levels(std_channel, 4)
    assert pinned.shape == (4,)
    assert not np.allclose(pinned, free)
    with pytest.raises(ValueError):
        entropy_levels(std_channel, 0)
    with pytest.raises(EnumerationCapError):
        entropy_levels(std_channel, 13)


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

    def counting(params, as_float=False):
        builds.append(as_float)
        return transition_matrices(params, as_float)

    monkeypatch.setattr(bs, "transition_matrices", counting)
    params = ChannelParams(2, 3, HALF, Fraction(1, 4))
    for _ in range(2):
        cylinder_log_prob(params, (0, 2, 2))
        entropy_levels(params, 2)
        smb_estimate(params, 3, 4, Rng(1))
    assert builds == [True]
    mats = params._float_matrices
    assert not mats.flags.writeable
    assert np.array_equal(mats, transition_matrices(params, as_float=True))


def test_params_reject_non_finite_weights():
    with pytest.raises(ValueError, match="finite"):
        ChannelParams(2, 3, (math.nan, 0.5), 0.25)
    with pytest.raises(ValueError, match="finite"):
        ChannelParams(2, 4, (math.inf, 0.5, -math.inf), 0.25)
    with pytest.raises(ValueError, match="finite"):
        ChannelParams(2, 3, (0.5, 0.5), math.nan)
