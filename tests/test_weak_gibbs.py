"""Run-length interaction, finite volumes, kernels, bad sets."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gibbslab import (
    BINARY,
    Alphabet,
    EnumerationCapError,
    FiniteVolumeMeasure,
    InteractionParams,
    Rng,
    Tail,
    Window,
    bad_set_frequency,
    bad_tail_fraction,
    binary_config,
    config,
    correlation_length,
    glued_convergence_table,
    hamiltonian,
    hamiltonian_tail_bound,
    in_bad_set,
    interaction_term,
    kernel_radius_enumerated,
    run_length,
    single_site_kernel,
)
from gibbslab import weak_gibbs as wg
from gibbslab.core import integer_scaled
from gibbslab.oracle import _brute_weight

HALF = InteractionParams(Fraction(1, 2), 8)
RHOS = st.one_of(
    st.builds(lambda a, b: Fraction(a, a + b), st.integers(1, 8), st.integers(1, 8)),
    st.floats(0.01, 0.99),
)


def test_params_validation():
    with pytest.raises(ValueError):
        InteractionParams(Fraction(0), 4)
    with pytest.raises(ValueError):
        InteractionParams(Fraction(1), 4)
    with pytest.raises(ValueError):
        InteractionParams(Fraction(1, 2), 3)  # odd depth
    with pytest.raises(ValueError):
        InteractionParams(Fraction(1, 2), -2)
    assert InteractionParams(0.5, 4).exact is False
    assert InteractionParams("1/2", 4).exact is True


def test_params_read_an_integral_float_depth_as_an_int():
    # m = 4.0 used to be kept, and slicing the weights with it failed
    params = InteractionParams(Fraction(1, 2), 4.0)
    assert params.m == 4 and type(params.m) is int
    assert hamiltonian(params, binary_config("11011")) == hamiltonian(
        InteractionParams(Fraction(1, 2), 4), binary_config("11011"))
    assert FiniteVolumeMeasure(params, "rational").prob(binary_config("1")) > 0


@pytest.mark.parametrize("bad", [True, "4", 2.5])
def test_params_reject_a_depth_that_is_not_an_integer(bad):
    with pytest.raises(TypeError, match=rf"^m {re.escape(repr(bad))} is not an integer"):
        InteractionParams(Fraction(1, 2), bad)


# -------------------------------------------------------------- run length

@pytest.mark.parametrize("rho", ["1/2", "1/3", "2/3", "7/10", "1/8", "999/1000"])
@pytest.mark.parametrize("m", [0, 2, 10, 400, 1000])
def test_exact_weights_are_the_integer_scaled_powers(rho, m):
    rho = Fraction(rho)
    nums, den, zero = InteractionParams(rho, m)._weights
    want, want_den = integer_scaled([wg._rho_pow(rho, e) for e in range(m // 2 + 1)], True)
    assert nums == want and den == want_den and zero == 0
    assert all(type(v) is int for v in nums + [den]) and type(zero) is Fraction


def test_run_length_counts_back_to_the_last_zero():
    om = binary_config("10111")
    assert run_length(om, 0) == 1
    assert run_length(om, 2) == 1
    assert run_length(om, 4) == 3


def test_run_length_zero_when_site_holds_zero():
    assert run_length(binary_config("110"), 2) == 0


def test_run_length_cannot_extend_below_zero():
    assert run_length(binary_config("11111"), 4) == 5


def test_run_length_rejects_odd_negative_or_undefined_sites():
    om = binary_config("11", tail=Tail.UNSPECIFIED)
    with pytest.raises(ValueError):
        run_length(om, 3)
    with pytest.raises(ValueError):
        run_length(om, -2)
    with pytest.raises(ValueError):
        run_length(om, 4)


# -------------------------------------------------------------- potential

def test_interaction_alternating_ones_hit_full_strength():
    om = binary_config("101010")
    assert interaction_term(HALF, om, 1) == 1
    assert interaction_term(HALF, om, 2) == Fraction(1, 2)


def test_interaction_vanishes_without_the_site_zero_one():
    om = binary_config("001")
    assert interaction_term(HALF, om, 1) == 0


def test_interaction_isolated_distant_one_decays_geometrically():
    om = binary_config("10001")
    assert interaction_term(HALF, om, 2) == Fraction(1, 2)


def test_interaction_long_runs_are_killed():
    om = binary_config("1" * 12)
    for n in range(6):
        assert interaction_term(HALF, om, n) == 0


def test_interaction_rejects_a_negative_n():
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        interaction_term(HALF, binary_config("101"), -1)


def test_origin_term_is_identically_zero():
    assert interaction_term(HALF, binary_config("1"), 0) == 0
    assert interaction_term(HALF, binary_config("0"), 0) == 0


# -------------------------------------------------------------- hamiltonian

def test_hamiltonian_alternating_example():
    assert hamiltonian(InteractionParams(Fraction(1, 2), 2),
                       binary_config("1010")) == 1
    assert hamiltonian(InteractionParams(Fraction(1, 2), 4),
                       binary_config("101010")) == Fraction(3, 2)


def test_hamiltonian_zero_on_zero_origin_and_all_ones():
    p = InteractionParams(Fraction(1, 2), 10)
    assert hamiltonian(p, binary_config("0" + "1" * 10)) == 0
    assert hamiltonian(p, binary_config("1" * 11)) == 0
    assert hamiltonian(InteractionParams(Fraction(1, 2), 0),
                       binary_config("1")) == 0


def test_hamiltonian_nondecreasing_in_depth():
    bits = [int(b) for b in Rng(17).generator().integers(0, 2, size=41)]
    bits[0] = 1
    om = binary_config(bits)
    values = [hamiltonian(InteractionParams(Fraction(1, 2), m), om)
              for m in range(0, 42, 2)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] > 0


def test_hamiltonian_ignores_sites_past_the_depth():
    p = InteractionParams(Fraction(1, 2), 8)
    stem = [1, 0, 1, 1, 0, 0, 1, 0, 1]
    a = binary_config(stem + [0] * 10)
    b = binary_config(stem + [1] * 10)
    assert hamiltonian(p, a) == hamiltonian(p, b)


def test_hamiltonian_needs_site_zero_and_enough_window():
    p = InteractionParams(Fraction(1, 2), 8)
    with pytest.raises(ValueError):
        hamiltonian(p, binary_config("101", lo=1))
    with pytest.raises(ValueError):
        hamiltonian(p, binary_config("101", tail=Tail.UNSPECIFIED))


# -------------------------------------------------------------- tail bound

def test_tail_bound_zero_for_zero_origin():
    p = InteractionParams(Fraction(1, 2), 4)
    assert hamiltonian_tail_bound(p, binary_config("0"), 1) == 0


def test_tail_bound_is_exact_for_zero_fill_tails():
    # with the whole configuration visible the bound is the true remainder
    bits = [int(b) for b in Rng(23).generator().integers(0, 2, size=48)]
    bits[0] = 1
    om = binary_config(bits)
    k = correlation_length(om)
    p8 = InteractionParams(Fraction(1, 2), 8)
    p46 = InteractionParams(Fraction(1, 2), 46)
    got = hamiltonian_tail_bound(p8, om, k)
    assert got == hamiltonian(p46, om) - hamiltonian(p8, om)


def test_tail_bound_dominates_regular_completions():
    vals = (1, 0, 1, 0, 0, 1, 0, 0, 0, 0)
    om = config(BINARY, 0, vals, tail=Tail.UNSPECIFIED)
    p = InteractionParams(Fraction(1, 2), 4)
    bound = hamiltonian_tail_bound(p, om, 1)
    p48 = InteractionParams(Fraction(1, 2), 48)
    exts = [
        [0] * 40,
        [0, 0, 1, 0, 0, 1, 0, 0, 0, 1] + [0] * 30,
        [0, 1] + [0, 0, 0, 1] * 9 + [0, 0],
    ]
    for ext in exts:
        full = binary_config(list(vals) + ext)
        actual = hamiltonian(p48, full) - hamiltonian(p, full)
        assert actual <= bound


def test_tail_bound_shrinks_with_depth():
    om = config(BINARY, 0, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0), tail=Tail.UNSPECIFIED)
    p4 = InteractionParams(Fraction(1, 2), 4)
    p8 = InteractionParams(Fraction(1, 2), 8)
    assert hamiltonian_tail_bound(p8, om, 1) <= hamiltonian_tail_bound(p4, om, 1)


def test_tail_bound_rejects_in_window_violations():
    om = config(BINARY, 0, (1, 0, 0, 1, 1, 0, 0, 0, 0, 0), tail=Tail.UNSPECIFIED)
    p = InteractionParams(Fraction(1, 2), 4)
    with pytest.raises(ValueError):
        hamiltonian_tail_bound(p, om, 1)  # B_2 is hit at sites 3,4
    hamiltonian_tail_bound(p, om, 3)  # constraint only claimed past the hit
    with pytest.raises(ValueError):
        hamiltonian_tail_bound(p, om, 0)


def test_tail_bound_needs_site_zero():
    om = config(BINARY, 1, (1, 0), tail=Tail.UNSPECIFIED)
    with pytest.raises(ValueError,
                       match=r"^tail bound needs a configuration starting at site 0$"):
        hamiltonian_tail_bound(HALF, om, 1)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(rho=RHOS, bits=st.lists(st.integers(0, 1), min_size=5, max_size=7),
       above=st.integers(1, 2), extra=st.integers(1, 3))
@example(rho=Fraction(1, 2), bits=[0, 0, 0, 1, 1], above=2, extra=1)
def test_tail_bound_with_n_prime_past_the_window_and_the_depth(rho, bits, above, extra):
    # Every term U(2k) with q <= k < n' may be as large as 1, since the tail
    # may hit B_k there, where q is the first k past both the window and the
    # depth.  The bound still holds against every tail through site top that
    # hits no B_k with k >= n'.
    p = InteractionParams(rho, 4)
    vals = (1,) + tuple(bits)
    hi = len(vals) - 1
    n_prime = max(hi // 2 + 1, p.m // 2 + 1) + above
    bound = hamiltonian_tail_bound(p, config(BINARY, 0, vals, tail=Tail.UNSPECIFIED), n_prime)
    top = 2 * n_prime + extra
    for ext in itertools.product((0, 1), repeat=top - hi):
        full = binary_config(vals + ext)
        if any(in_bad_set(full, k) for k in range(n_prime, top // 2 + 1)):
            continue
        terms = [interaction_term(p, full, k) for k in range(p.m // 2 + 1, top // 2 + 1)]
        assert sum(terms) <= bound, (ext, terms, bound)


# ------------------------------------------------------------------ kernel

def test_kernel_all_zeros_tail_is_a_fair_flip():
    kv = single_site_kernel(HALF, 1, binary_config("0", lo=1))
    assert kv.value == 0.5
    assert kv.radius == 0.0


def test_kernel_single_one_at_site_two():
    tail = binary_config("01", lo=1)
    kv = single_site_kernel(HALF, 1, tail)
    assert abs(kv.value - 1.0 / (1.0 + math.e)) < 1e-15
    assert kv.radius == 0.0
    kv0 = single_site_kernel(HALF, 0, tail)
    assert kv0.value == 1.0 - kv.value
    assert kv0.radius == kv.radius


def test_kernel_symbols_sum_to_one():
    tail = binary_config("0110010", lo=1)
    a = single_site_kernel(HALF, 0, tail)
    b = single_site_kernel(HALF, 1, tail)
    assert abs(a.value + b.value - 1.0) < 1e-15


def test_kernel_unspecified_tail_is_bracketed():
    vals = (0, 1, 0, 0, 1, 0, 0, 0, 0)  # sites 1..9, ends in zeros
    tail = config(BINARY, 1, vals, tail=Tail.UNSPECIFIED)
    kv = single_site_kernel(InteractionParams(Fraction(1, 2), 40), 1, tail)
    assert kv.radius > 0
    exts = [(0,) * 12, (0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0)]
    for ext in exts:
        full = binary_config(vals + ext, lo=1)
        ref = single_site_kernel(InteractionParams(Fraction(1, 2), 40), 1, full)
        assert ref.radius == 0.0
        assert abs(ref.value - kv.value) <= kv.radius + 1e-15


def test_kernel_validation():
    with pytest.raises(ValueError):
        single_site_kernel(HALF, 2, binary_config("0", lo=1))
    with pytest.raises(ValueError):
        single_site_kernel(HALF, 1, binary_config("0", lo=0))


def test_kernel_rejects_a_non_binary_tail():
    tail = config(Alphabet((0, 1, 2)), 1, (1, 2))
    with pytest.raises(ValueError, match=r"^tail must be a binary configuration$"):
        single_site_kernel(HALF, 1, tail)


# ----------------------------------------------------------- finite volume

def test_volume_zero_is_a_fair_flip():
    mu = FiniteVolumeMeasure(InteractionParams(Fraction(1, 2), 0), "rational")
    assert mu.prob(binary_config("1", tail=Tail.UNSPECIFIED)) == Fraction(1, 2)


@pytest.mark.parametrize("mode, rho", [("rational", Fraction(1, 2)), ("float", Fraction(1, 2)),
                                       ("float", 0.5)])
def test_volume_zero_gives_half_per_symbol_in_its_modes_type(mode, rho):
    # the sigma_0 = 0 branch must start as a float in float mode: an int start
    # makes every sum on [0, 0] an int and hands out Fraction(1, 2)
    mu = FiniteVolumeMeasure(InteractionParams(rho, 0), mode)
    kind = Fraction if mode == "rational" else float
    got = [mu.prob(config(BINARY, 0, (s,))) for s in (0, 1)]
    got += [mu.event_prob({0: s}) for s in (0, 1)]
    got += list(mu.distribution(Window(0, 0)).values())
    assert got == [Fraction(1, 2)] * 6
    assert all(type(p) is kind for p in got)
    assert mu.event_prob({}) == 1 and type(mu.event_prob({})) is kind


def test_volume_normalizes_exactly():
    mu = FiniteVolumeMeasure(InteractionParams(Fraction(1, 2), 6), "rational")
    words = list(itertools.product((0, 1), repeat=7))
    total = sum(mu.prob(config(BINARY, 0, w)) for w in words)
    assert total == 1


def test_volume_marginal_consistency():
    mu = FiniteVolumeMeasure(InteractionParams(Fraction(1, 3), 8), "rational")
    stem = (1, 0, 1, 1)
    lhs = mu.prob(config(BINARY, 0, stem))
    rhs = sum(mu.prob(config(BINARY, 0, stem + (s,))) for s in (0, 1))
    assert lhs == rhs


def test_volume_event_prob_consistency():
    mu = FiniteVolumeMeasure(InteractionParams(Fraction(1, 2), 8), "rational")
    assert mu.event_prob({0: 0}) + mu.event_prob({0: 1}) == 1
    split = sum(mu.event_prob({3: 1, 5: s, 7: 0}) for s in (0, 1))
    assert mu.event_prob({3: 1, 7: 0}) == split


def test_volume_prefers_zero_at_the_origin():
    mu = FiniteVolumeMeasure(InteractionParams(Fraction(1, 2), 8), "rational")
    assert mu.event_prob({0: 0}) > Fraction(1, 2)


def test_volume_float_mode_tracks_rational_mode():
    pr = InteractionParams(Fraction(1, 2), 8)
    mu_q = FiniteVolumeMeasure(pr, "rational")
    mu_f = FiniteVolumeMeasure(InteractionParams(0.5, 8), "float")
    for w in [(1, 0, 1, 0), (0, 0, 0, 0), (1, 1, 1, 1)]:
        cfg = config(BINARY, 0, w)
        assert abs(float(mu_q.prob(cfg)) - mu_f.prob(cfg)) < 1e-12


def test_volume_caps_and_mode_validation():
    with pytest.raises(EnumerationCapError):
        FiniteVolumeMeasure(InteractionParams(Fraction(1, 2), 22))
    FiniteVolumeMeasure(InteractionParams(Fraction(1, 2), 22), cap=24)
    with pytest.raises(ValueError):
        FiniteVolumeMeasure(InteractionParams(Fraction(1, 2), 4), "decimal")
    with pytest.raises(ValueError):
        FiniteVolumeMeasure(InteractionParams(0.5, 4), "rational")


def test_volume_event_prob_validation():
    mu = FiniteVolumeMeasure(InteractionParams(Fraction(1, 2), 8), "rational")
    with pytest.raises(ValueError):
        mu.event_prob({9: 1})
    with pytest.raises(ValueError):
        mu.event_prob({0: 2})


@pytest.mark.parametrize("m", [1024, 1030])
def test_float_volume_past_the_double_range_is_rejected(m):
    # the sigma_0 = 0 branch alone weighs 2^m: at m = 1024 the total was
    # inf and every query read 0.0, at m = 1030 they read NaN
    with pytest.raises(EnumerationCapError, match=r"float volume \[0,\d+\] exceeds m <= 1022"):
        FiniteVolumeMeasure(InteractionParams(Fraction(1, 2), m), "float", cap=2000)


def test_float_volume_at_the_double_range_limit_is_normalized():
    mu = FiniteVolumeMeasure(InteractionParams(Fraction(1, 2), 1022), "float", cap=2000)
    assert abs(sum(mu.distribution(Window(0, 1)).values()) - 1.0) <= 1e-12


# ----------------------------------------------------------------- bad sets

def test_bad_set_membership():
    hit = binary_config([0] * 6 + [1, 1, 1])
    assert in_bad_set(hit, 4)  # sites 6..8
    assert not in_bad_set(binary_config("0"), 4)
    with pytest.raises(ValueError):
        in_bad_set(hit, 0)
    with pytest.raises(ValueError):
        in_bad_set(binary_config("11", tail=Tail.UNSPECIFIED), 4)


def test_correlation_length_examples():
    assert correlation_length(binary_config("0")) == 1
    run = binary_config([0] * 6 + [1, 1, 1])
    assert correlation_length(run) == 5  # B_4 hit, B_5 missed
    with pytest.raises(ValueError):
        correlation_length(binary_config("1", tail=Tail.UNSPECIFIED))


@settings(derandomize=True, max_examples=60)
@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), min_size=31, max_size=31),
    pos=st.integers(min_value=0, max_value=30),
)
def test_correlation_length_monotone_under_clearing_ones(bits, pos):
    om = binary_config(bits)
    cleared = list(bits)
    cleared[pos] = 0
    assert correlation_length(binary_config(cleared)) <= correlation_length(om)


def test_bad_set_frequency_matches_exact_mass():
    # width of B_4 is 3 sites, so the mass is exactly 1/8
    est = bad_set_frequency(4, 20000, Rng(3))
    assert abs(est.value - 0.125) < 5 * est.stderr + 1e-9
    assert est.samples == 20000
    with pytest.raises(ValueError):
        bad_set_frequency(0, 10, Rng(3))


# -------------------------------------------------------------- glued tails

def test_glued_table_is_zero_when_tails_agree():
    om = binary_config("0110", lo=1)
    rows = glued_convergence_table(HALF, om, om, [1, 2, 3, 8])
    assert all(r.sup_diff == 0.0 and r.radius == 0.0 for r in rows)


def test_glued_table_exact_once_the_glue_point_clears_both_windows():
    om = binary_config("000100", lo=1)  # isolated 1 at site 4 carries energy 1/2
    eta = binary_config("0", lo=1)
    rows = glued_convergence_table(HALF, om, eta, [2, 10])
    assert rows[0].sup_diff > 0
    assert rows[1].sup_diff == 0.0  # past both windows the glue changes nothing


def test_glued_table_validation():
    om = binary_config("01", lo=1)
    with pytest.raises(ValueError):
        glued_convergence_table(HALF, binary_config("01"), om, [2])
    with pytest.raises(ValueError):
        glued_convergence_table(
            HALF, binary_config("01", lo=1, tail=Tail.UNSPECIFIED), om, [2])
    with pytest.raises(ValueError):
        glued_convergence_table(HALF, om, om, [0])


def test_bad_tail_fraction_monotone_in_threshold():
    om = binary_config("10", lo=1)
    loose = bad_tail_fraction(HALF, om, 0.0005, 2, 200, Rng(9), tail_depth=16)
    tight = bad_tail_fraction(HALF, om, 0.1, 2, 200, Rng(9), tail_depth=16)
    assert 0 <= tight.value <= loose.value <= 1
    none = bad_tail_fraction(HALF, om, 2.0, 2, 50, Rng(9), tail_depth=16)
    assert none.value == 0.0
    with pytest.raises(ValueError):
        bad_tail_fraction(HALF, om, -0.1, 2, 10, Rng(9))


def test_glued_table_reads_a_generator_of_glue_points_once():
    om, eta = binary_config("0110", lo=1), binary_config("1011", lo=1)
    rows = glued_convergence_table(HALF, om, eta, (n for n in [1, 2]))
    assert rows == glued_convergence_table(HALF, om, eta, [1, 2])
    assert [r.n for r in rows] == [1, 2]


def test_glue_points_and_sample_sites_read_as_ints():
    om, eta = binary_config("0110", lo=1), binary_config("1011", lo=1)
    rows = glued_convergence_table(HALF, om, eta, [2.0])
    assert rows == glued_convergence_table(HALF, om, eta, [2])
    assert type(rows[0].n) is int
    for bad in (True, "2", 2.5):
        with pytest.raises(TypeError, match=repr(bad)):
            glued_convergence_table(HALF, om, eta, [1, bad])
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        glued_convergence_table(HALF, om, eta, [3, 0])
    assert (bad_tail_fraction(HALF, om, 0.01, 2.0, 50, Rng(9), tail_depth=8)
            == bad_tail_fraction(HALF, om, 0.01, 2, 50, Rng(9), tail_depth=8))
    for bad in (True, "2", 2.5):
        with pytest.raises(TypeError, match=repr(bad)):
            bad_tail_fraction(HALF, om, 0.01, bad, 50, Rng(9))
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        bad_tail_fraction(HALF, om, 0.01, 0, 50, Rng(9))


def test_kernel_reads_its_symbol_as_an_int():
    tail = binary_config("0110", lo=1)
    assert single_site_kernel(HALF, 1.0, tail) == single_site_kernel(HALF, 1, tail)
    for bad in (True, "1", 0.5):
        with pytest.raises(TypeError, match=repr(bad)):
            single_site_kernel(HALF, bad, tail)
    with pytest.raises(ValueError, match="got 2"):
        single_site_kernel(HALF, 2.0, tail)


BITS = st.lists(st.integers(0, 1), min_size=1, max_size=40).map(tuple)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(rho=RHOS, half_m=st.integers(0, 30), omega=BITS, eta=BITS,
       n_list=st.lists(st.integers(1, 48), max_size=8))
# omega's run at n continues into eta's leading 1s, past the depth of 4
@example(rho=Fraction(1, 3), half_m=2, omega=(0, 1, 1, 1, 1), eta=(0,) * 5 + (1, 1, 1, 0, 1) * 4,
         n_list=[5, 3, 5, 1])
@example(rho=0.37, half_m=2, omega=(0, 1, 1, 1, 1), eta=(0,) * 5 + (1, 1, 1, 0, 1) * 4,
         n_list=[5, 3, 5, 1])
# eta all 1s, and glue points past both tails
@example(rho=Fraction(1, 2), half_m=30, omega=(1, 0, 1), eta=(1,) * 12, n_list=[48, 2, 7, 12])
@example(rho=0.5, half_m=3, omega=(0, 1) * 20, eta=(1, 1, 0) * 3, n_list=[40, 1, 9, 10])
# float rho whose energy terms give other bits when eta's are added in another order
@example(rho=0.37, half_m=9, omega=(0, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1),
         eta=(1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0), n_list=[2])
def test_glued_rows_are_the_kernels_of_the_glued_tails(rho, half_m, omega, eta, n_list):
    params = InteractionParams(rho, 2 * half_m)
    rows = glued_convergence_table(params, binary_config(omega, lo=1),
                                   binary_config(eta, lo=1), n_list)
    ref = {s: single_site_kernel(params, s, binary_config(omega, lo=1)) for s in (0, 1)}
    want = []
    for n in n_list:
        zeros = (0,) * (n - len(omega))
        glued = binary_config(omega[:n] + zeros + eta[n:], lo=1)
        cur = {s: single_site_kernel(params, s, glued) for s in (0, 1)}
        want.append((n, max(abs(cur[s].value - ref[s].value) for s in (0, 1)).hex(),
                     (cur[1].radius + ref[1].radius).hex()))
    assert [(r.n, r.sup_diff.hex(), r.radius.hex()) for r in rows] == want


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rho=RHOS, half_m=st.integers(0, 30), omega=BITS, n=st.integers(1, 45),
       eps=st.sampled_from([0.0, 1e-4, 0.01, 0.1]), tail_depth=st.integers(1, 20),
       unspecified=st.booleans(), seed=st.integers(0, 5))
@example(rho=Fraction(1, 2), half_m=4, omega=(0, 1, 1, 1), n=4, eps=1e-4, tail_depth=12,
         unspecified=False, seed=0)
def test_tail_fraction_is_a_loop_over_its_samples(rho, half_m, omega, n, eps, tail_depth,
                                                  unspecified, seed):
    params = InteractionParams(rho, 2 * half_m)
    if unspecified:
        n = min(n, len(omega))  # the head must lie inside an unspecified omega
    om = config(BINARY, 1, omega, tail=Tail.UNSPECIFIED if unspecified else Tail.ZERO_FILL)
    got = bad_tail_fraction(params, om, eps, n, 30, Rng(seed), tail_depth=tail_depth)
    head = om.restrict(1, n).values
    hits = 0
    for row in Rng(seed).generator().integers(0, 2, size=(30, tail_depth)).tolist():
        glued = binary_config(head + tuple(row), lo=1)
        hits += max(abs(single_site_kernel(params, s, glued).value
                        - single_site_kernel(params, s, om).value) for s in (0, 1)) > eps
    f = hits / 30
    assert (got.value.hex(), got.stderr.hex(), got.samples) == (
        f.hex(), math.sqrt(f * (1 - f) / 30).hex(), 30)


def test_tail_fraction_counts_the_sup_over_both_symbols():
    # gamma(0) = 1.0 - gamma(1) rounds on its own, so on this sampled tail
    # |d gamma(0)| exceeds |d gamma(1)|: with eps at |d gamma(1)| the sample
    # counts, as its row of the glued table says it moves by more than eps
    params, om, n = InteractionParams(Fraction(1, 2), 400), binary_config("110" * 10, lo=1), 6
    row = tuple(Rng(1).generator().integers(0, 2, size=(1, 10)).tolist()[0])
    glued = binary_config(om.values[:n] + row, lo=1)
    eps = abs(single_site_kernel(params, 1, glued).value
              - single_site_kernel(params, 1, om).value)
    sup = glued_convergence_table(params, om, binary_config((0,) * n + row, lo=1), [n])[0]
    assert sup.sup_diff > eps
    assert bad_tail_fraction(params, om, eps, n, 1, Rng(1), tail_depth=10).value == 1.0


@pytest.mark.parametrize("samples", [0, -1])
def test_sampled_fractions_need_a_sample(samples):
    # no sample used to divide by zero
    with pytest.raises(ValueError, match="samples"):
        bad_set_frequency(4, samples, Rng(3))
    with pytest.raises(ValueError, match="samples"):
        bad_tail_fraction(HALF, binary_config("10", lo=1), 0.1, 2, samples, Rng(9))


def test_tail_fraction_needs_a_tail_site():
    with pytest.raises(ValueError, match=r"^tail_depth must be >= 1$"):
        bad_tail_fraction(HALF, binary_config("10", lo=1), 0.1, 2, 4, Rng(9), tail_depth=0)


@pytest.mark.parametrize("samples, tail_depth", [(262_145, 128), (10 ** 15, 10 ** 15)])
def test_tail_fraction_draws_stop_at_the_byte_cap(monkeypatch, samples, tail_depth):
    # 262,145 x 128 is the first count of default-depth tails past 2^28 bytes; the
    # refusal comes before the head is scanned or any array of draws is made
    def refuse(*args):
        pytest.fail("scanned or drew past the draw cap")

    monkeypatch.setattr(Rng, "generator", refuse)
    monkeypatch.setattr(wg, "_scan", refuse)
    with pytest.raises(EnumerationCapError, match=f"^{samples} x {tail_depth} random draws"):
        bad_tail_fraction(HALF, binary_config("10", lo=1), 0.1, 2, samples, Rng(9),
                          tail_depth=tail_depth)


# ------------------------------------------------------- enumerated radius

def test_enumerated_radius_trivial_when_volume_equals_prefix():
    prefix = binary_config("000000", lo=1)
    out = kernel_radius_enumerated(HALF, prefix, 6)
    assert out == {0: 0.0, 1: 0.0}


def test_enumerated_radius_matches_direct_loop():
    m = 8
    cases = ((HALF, binary_config("0100", lo=1)),
             (InteractionParams(0.3, 8), binary_config("0100", lo=1)),
             (HALF, config(BINARY, 1, (0, 1, 1, 0), tail=Tail.UNSPECIFIED)))
    for params, prefix in cases:
        got = kernel_radius_enumerated(params, prefix, m)
        base = binary_config(prefix.values, lo=1)  # the envelope is about the zero-filled prefix
        ref = {s: single_site_kernel(params, s, base) for s in (0, 1)}
        want = {s: 0.0 for s in (0, 1)}
        for word in itertools.product((0, 1), repeat=m - 4):
            glued = binary_config(prefix.values + word, lo=1)
            for s in (0, 1):
                cur = single_site_kernel(params, s, glued)
                want[s] = max(want[s], abs(cur.value - ref[s].value))
        assert got == want  # all radii vanish here, so the envelope is exact


def test_enumerated_radius_validation():
    prefix = binary_config("01", lo=1)
    with pytest.raises(ValueError):
        kernel_radius_enumerated(HALF, prefix, 1)
    with pytest.raises(EnumerationCapError):
        kernel_radius_enumerated(HALF, prefix, 40)
    with pytest.raises(ValueError):
        kernel_radius_enumerated(HALF, binary_config("01"), 8)


def test_enumerated_radius_runs_at_the_cap():
    params = InteractionParams(0.5, 40)
    prefix = binary_config("0110100111010010", lo=1)  # 16 sites: 2^24 tails to m = 40
    out = kernel_radius_enumerated(params, prefix, 40)
    ref = {s: single_site_kernel(params, s, prefix).value for s in (0, 1)}
    rnd = Rng(3).generator()
    for word in [(1,) * 24, (0, 1) * 12] + rnd.integers(0, 2, size=(20, 24)).tolist():
        glued = binary_config(prefix.values + tuple(word), lo=1)
        for s in (0, 1):
            assert abs(single_site_kernel(params, s, glued).value - ref[s]) <= out[s]
    with pytest.raises(EnumerationCapError):
        kernel_radius_enumerated(params, prefix, 41)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rho=RHOS, half_m=st.integers(0, 6),
       bits=st.lists(st.integers(0, 1), min_size=1, max_size=10).map(tuple),
       extra=st.integers(0, 10), unspecified=st.booleans())
@example(rho=Fraction(1, 2), half_m=1, bits=(1, 1, 0, 1), extra=0, unspecified=True)
@example(rho=0.3, half_m=1, bits=(0, 1, 1), extra=9, unspecified=False)
@example(rho=Fraction(2, 3), half_m=2, bits=(1, 0, 1, 1, 1), extra=10, unspecified=True)
def test_enumerated_radius_equals_a_loop_over_every_tail(rho, half_m, bits, extra,
                                                         unspecified):
    # volumes past the depth 2 * half_m give the kernels nonzero radii
    params = InteractionParams(rho, 2 * half_m)
    prefix = config(BINARY, 1, bits, tail=Tail.UNSPECIFIED if unspecified else Tail.ZERO_FILL)
    ref = {s: single_site_kernel(params, s, binary_config(bits, lo=1)) for s in (0, 1)}
    want = {s: 2 * ref[s].radius for s in (0, 1)}
    for word in itertools.product((0, 1), repeat=extra):
        if not word:
            continue
        glued = binary_config(bits + word, lo=1)
        for s in (0, 1):
            cur = single_site_kernel(params, s, glued)
            want[s] = max(want[s], abs(cur.value - ref[s].value) + cur.radius + ref[s].radius)
    assert kernel_radius_enumerated(params, prefix, len(bits) + extra) == want


def test_params_reject_non_finite_rho():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            InteractionParams(bad, 4)


def test_float_twin_terms_stay_float_after_exact_ones():
    # rho = 1/2 and 0.5 hash equal; the cached powers must keep their types
    om = binary_config("10101")
    exact = interaction_term(InteractionParams(Fraction(1, 2), 4), om, 2)
    twin = interaction_term(InteractionParams(0.5, 4), om, 2)
    assert exact == twin == Fraction(1, 2)
    assert type(exact) is Fraction and type(twin) is float


# ------------------------------------------------------- one-pass kernel


def _literal_correlation_length(omega):
    """1 + the largest k whose bad set B_k (all 1s on floor(3k/2) .. 2k) is hit."""
    worst = 0
    for k in range(1, omega.window.hi + 1):
        if all(omega.value_at(i) == 1 for i in range(3 * k // 2, 2 * k + 1)):
            worst = k
    return worst + 1


@settings(derandomize=True, max_examples=80, deadline=None)
@given(rho=RHOS, half_m=st.integers(0, 20), data=st.data())
def test_kernel_matches_the_brute_weight_inside_the_depth(rho, half_m, data):
    params = InteractionParams(rho, 2 * half_m)
    bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=1,
                                    max_size=max(1, params.m))))
    tail = binary_config(bits, lo=1)
    w = _brute_weight(params, (1,) + bits)
    kv = single_site_kernel(params, 1, tail)
    assert abs(kv.value - float(w / (1 + w))) < 1e-12
    assert kv.radius == 0.0
    assert correlation_length(tail) == _literal_correlation_length(tail)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rho=RHOS, half_m=st.integers(0, 20), data=st.data())
def test_kernel_bracket_holds_every_zero_filled_extension(rho, half_m, data):
    params = InteractionParams(rho, 2 * half_m)
    bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=30)))
    kv = single_site_kernel(params, 1, config(BINARY, 1, bits, tail=Tail.UNSPECIFIED))
    n_prime = correlation_length(binary_config(bits, lo=1))
    for _ in range(4):
        ext = tuple(data.draw(st.lists(st.integers(0, 1), max_size=40)))
        full = binary_config(bits + ext, lo=1)
        if correlation_length(full) > n_prime:
            continue  # a bad set hit past the window: the run constraint claims nothing
        cur = single_site_kernel(params, 1, full)
        assert kv.value - kv.radius - 1e-15 <= cur.value - cur.radius
        assert cur.value + cur.radius <= kv.value + kv.radius + 1e-15


def _kernel_results(params):
    tails = (binary_config("0100110001", lo=1),
             config(BINARY, 1, (0, 1, 0, 0, 1), tail=Tail.UNSPECIFIED),
             binary_config("01" * 30, lo=1))  # runs past the depth of 40
    kernels = [single_site_kernel(params, s, t) for t in tails for s in (0, 1)]
    energy = hamiltonian(params, binary_config("1" + "0110" * 10))
    rows = glued_convergence_table(params, tails[0], tails[2], [1, 3, 8, 45])
    return ([(k.value.hex(), k.radius.hex()) for k in kernels], energy, type(energy),
            [(r.n, r.sup_diff.hex(), r.radius.hex()) for r in rows])


def test_kernel_twins_keep_their_own_weight_tables():
    # rho = 1/2 and 0.5 compare and hash equal; the weight table lives on the instance
    fresh = {True: _kernel_results(InteractionParams(Fraction(1, 2), 40)),
             False: _kernel_results(InteractionParams(0.5, 40))}
    assert fresh[True][2] is Fraction and fresh[False][2] is float
    for order in ((True, False), (False, True)):
        exact = InteractionParams(Fraction(1, 2), 40)
        twin = InteractionParams(0.5, 40)
        assert exact == twin and hash(exact) == hash(twin)
        for is_exact in order:
            assert _kernel_results(exact if is_exact else twin) == fresh[is_exact]
