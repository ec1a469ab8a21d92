"""The entropy sweep closes every row with one live jitter state.

A row c * e_s below the root is not expanded: the words below it weigh c
times the words from state s, whose block entropies and masses are those of
the sweep pinned in state 0.  These tests hold the closed sweep to literal
enumerations, on channels whose input weights sum to 1 only within
FLOAT_TOL (so the closed subtrees' masses are not 1) and on the channel
without jitter, where every row closes at the first level.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbslab import ChannelParams, apply_channel, entropy_bound_table, entropy_levels
from gibbslab.bitshift import BLOCK_ENTROPY_CAP, BLOCK_ROWS, JITTER, _sweep_model, _sweep_sums
from gibbslab.oracle import ORACLE_ENTROPY_CAP, brute_block_entropy

ATOL = 1e-13

MASS_CHANNELS = (
    ChannelParams(2, 3, (0.5, 0.5 - 9e-13), 0.25),
    ChannelParams(2, 4, (0.2, 0.3, 0.5 + 9e-13), 0.125),
    ChannelParams(2, 3, (0.5, 0.5), 0.0),
)


def literal_pinned_entropy(params, n):
    """H_n with the pre-window jitter fixed at 0, by pushing forward every
    input word and every jitter word after it."""
    dist = {}
    for x in itertools.product(params.input_symbols, repeat=n):
        px = math.prod(float(params.p_of(v)) for v in x)
        for omega in itertools.product(JITTER, repeat=n):
            w = px * math.prod(float(params.jitter_weight(v)) for v in omega)
            word = apply_channel(x, (0,) + omega)
            dist[word] = dist.get(word, 0.0) + w
    return -sum(w * math.log(w) for w in dist.values() if w > 0.0)


def assert_sweeps_match_enumeration(params, ns):
    n_max = max(ns)
    levels = entropy_levels(params, n_max)
    lowers = [r.lower for r in entropy_bound_table(params, n_max)]
    for n in ns:
        assert abs(levels[n - 1] - brute_block_entropy(params, n)) <= ATOL
        # the lower bounds telescope to the pinned block entropy
        assert abs(sum(lowers[:n]) - literal_pinned_entropy(params, n)) <= ATOL


@pytest.mark.parametrize("params", MASS_CHANNELS)
def test_closed_rows_carry_the_mass_of_their_subtrees(params):
    assert_sweeps_match_enumeration(params, range(1, ORACLE_ENTROPY_CAP + 1))


def test_without_jitter_every_row_closes_at_the_first_level():
    init, mats = MASS_CHANNELS[2]._float_model
    h, c, c_log_c = _sweep_sums(_sweep_model(mats), init, 6, BLOCK_ROWS)
    # only the root is expanded; its two children close, one per input symbol
    assert not h[1:].any()
    assert c.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert c_log_c[1] == pytest.approx(-math.log(2), abs=1e-15)
    assert not c_log_c[2:].any()


def test_bound_table_at_the_cap_brackets_tightens_and_meets_the_oracle():
    params = ChannelParams(2, 3, (0.5, 0.5), 0.25)
    rows = entropy_bound_table(params, BLOCK_ENTROPY_CAP)
    assert [r.n for r in rows] == list(range(1, BLOCK_ENTROPY_CAP + 1))
    for r in rows:
        assert r.lower <= r.upper
    for a, b in zip(rows, rows[1:]):
        assert b.lower >= a.lower - 1e-12
        assert b.upper <= a.upper + 1e-12
    h = [0.0] + [brute_block_entropy(params, n) for n in range(1, ORACLE_ENTROPY_CAP + 1)]
    pin = [0.0] + [literal_pinned_entropy(params, n) for n in range(1, ORACLE_ENTROPY_CAP + 1)]
    for r in rows[:ORACLE_ENTROPY_CAP]:
        assert abs(r.upper - (h[r.n] - h[r.n - 1])) <= 1e-12
        assert abs(r.lower - (pin[r.n] - pin[r.n - 1])) <= 1e-12
    assert np.allclose(entropy_levels(params, BLOCK_ENTROPY_CAP),
                       np.cumsum([r.upper for r in rows]), rtol=0, atol=1e-12)


@st.composite
def float_channels(draw):
    """A float channel: d in 2..4, two or three input symbols with integer
    weights over their sum, the first moved by 0 or +-9e-13 (inside
    FLOAT_TOL), and eps in {0, 1/20, ..., 9/20}."""
    d = draw(st.integers(2, 4))
    size = draw(st.integers(2, 3))
    parts = [draw(st.integers(1, 9))] + draw(
        st.lists(st.integers(0, 9), min_size=size - 1, max_size=size - 1))
    p = [c / sum(parts) for c in parts]
    p[0] += draw(st.sampled_from((-9e-13, 0.0, 9e-13)))
    eps = draw(st.integers(0, 9)) / 20
    return ChannelParams(d, d + size - 1, tuple(p), eps)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(params=float_channels(), data=st.data())
def test_closed_sweeps_match_enumeration_on_random_channels(params, data):
    # rows close from word length 1 on, which the sweep materialises from n = 3;
    # three input symbols at n = 5 take the oracle about a second, so they stop at 4
    cap = ORACLE_ENTROPY_CAP if len(params.p) == 2 else ORACLE_ENTROPY_CAP - 1
    n = data.draw(st.integers(3, cap))
    assert_sweeps_match_enumeration(params, (n,))
