"""Run-length interaction, finite volumes, kernels, bad sets."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gibbslab import (
    BINARY,
    EnumerationCapError,
    FiniteVolumeMeasure,
    InteractionParams,
    Rng,
    Tail,
    bad_set_frequency,
    bad_tail_fraction,
    binary_config,
    config,
    correlation_length,
    finite_volume_measure,
    glued_convergence_table,
    hamiltonian,
    hamiltonian_tail_bound,
    in_bad_set,
    interaction_term,
    kernel_radius_enumerated,
    run_length,
    single_site_kernel,
)
from gibbslab.oracle import _brute_weight

HALF = InteractionParams(Fraction(1, 2), 8)


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


# -------------------------------------------------------------- run length

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


# ----------------------------------------------------------- finite volume

def test_volume_zero_is_a_fair_flip():
    mu = finite_volume_measure(InteractionParams(Fraction(1, 2), 0), "rational")
    assert mu.prob(binary_config("1", tail=Tail.UNSPECIFIED)) == Fraction(1, 2)


def test_volume_normalizes_exactly():
    mu = finite_volume_measure(InteractionParams(Fraction(1, 2), 6), "rational")
    words = list(itertools.product((0, 1), repeat=7))
    total = sum(mu.prob(config(BINARY, 0, w)) for w in words)
    assert total == 1


def test_volume_marginal_consistency():
    mu = finite_volume_measure(InteractionParams(Fraction(1, 3), 8), "rational")
    stem = (1, 0, 1, 1)
    lhs = mu.prob(config(BINARY, 0, stem))
    rhs = sum(mu.prob(config(BINARY, 0, stem + (s,))) for s in (0, 1))
    assert lhs == rhs


def test_volume_event_prob_consistency():
    mu = finite_volume_measure(InteractionParams(Fraction(1, 2), 8), "rational")
    assert mu.event_prob({0: 0}) + mu.event_prob({0: 1}) == 1
    split = sum(mu.event_prob({3: 1, 5: s, 7: 0}) for s in (0, 1))
    assert mu.event_prob({3: 1, 7: 0}) == split


def test_volume_prefers_zero_at_the_origin():
    mu = finite_volume_measure(InteractionParams(Fraction(1, 2), 8), "rational")
    assert mu.event_prob({0: 0}) > Fraction(1, 2)


def test_volume_float_mode_tracks_rational_mode():
    pr = InteractionParams(Fraction(1, 2), 8)
    mu_q = finite_volume_measure(pr, "rational")
    mu_f = finite_volume_measure(InteractionParams(0.5, 8), "float")
    for w in [(1, 0, 1, 0), (0, 0, 0, 0), (1, 1, 1, 1)]:
        cfg = config(BINARY, 0, w)
        assert abs(float(mu_q.prob(cfg)) - mu_f.prob(cfg)) < 1e-12


def test_volume_caps_and_mode_validation():
    with pytest.raises(EnumerationCapError):
        finite_volume_measure(InteractionParams(Fraction(1, 2), 22))
    finite_volume_measure(InteractionParams(Fraction(1, 2), 22), cap=24)
    with pytest.raises(ValueError):
        finite_volume_measure(InteractionParams(Fraction(1, 2), 4), "decimal")
    with pytest.raises(ValueError):
        finite_volume_measure(InteractionParams(0.5, 4), "rational")


def test_volume_event_prob_validation():
    mu = finite_volume_measure(InteractionParams(Fraction(1, 2), 8), "rational")
    with pytest.raises(ValueError):
        mu.event_prob({9: 1})
    with pytest.raises(ValueError):
        mu.event_prob({0: 2})


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

RHOS = st.one_of(
    st.builds(lambda a, b: Fraction(a, a + b), st.integers(1, 8), st.integers(1, 8)),
    st.floats(0.01, 0.99),
)


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
