"""Brute-force reference implementations.

Everything here enumerates literally: channel preimages by looping over all
input and jitter words, finite-volume conditionals by summing over all binary
configurations, block entropy by materializing the whole word distribution.
Slow on purpose; the fast implementations are checked against these on small
instances, so the two routes share no code beyond the parameter containers.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .core import EnumerationCapError, Prob
from .bitshift import JITTER, ChannelParams
from .weak_gibbs import InteractionParams

ORACLE_WORD_CAP = 6
ORACLE_VOLUME_CAP = 14
ORACLE_ENTROPY_CAP = 5


def brute_channel_cylinder(params: ChannelParams, y) -> Prob:
    """nu([y]) by summing P(x) P(omega) over every preimage pair."""
    word = tuple(int(v) for v in y)
    n = len(word)
    if n == 0:
        raise ValueError("empty output word")
    if n > ORACLE_WORD_CAP:
        raise EnumerationCapError(
            f"oracle enumerates (k-d+1)^n * 3^(n+1) pairs; capped at n <= {ORACLE_WORD_CAP}")
    zero = Fraction(0) if params.exact else 0.0
    total = zero
    for x in itertools.product(params.input_symbols, repeat=n):
        for omega in itertools.product(JITTER, repeat=n + 1):
            if all(x[i] + omega[i + 1] - omega[i] == word[i] for i in range(n)):
                px = math.prod(params.p_of(v) for v in x)
                pw = math.prod(params.jitter_weight(w) for w in omega)
                total += px * pw
    return total


def brute_channel_distribution(params: ChannelParams, n: int) -> dict[tuple[int, ...], Prob]:
    """Distribution of length-n output words, by pushing forward every pair."""
    if not 1 <= n <= ORACLE_WORD_CAP:
        raise EnumerationCapError(f"oracle distribution capped at 1 <= n <= {ORACLE_WORD_CAP}")
    zero = Fraction(0) if params.exact else 0.0
    out: dict[tuple[int, ...], Prob] = {}
    for x in itertools.product(params.input_symbols, repeat=n):
        px = math.prod(params.p_of(v) for v in x)
        for omega in itertools.product(JITTER, repeat=n + 1):
            w = px * math.prod(params.jitter_weight(v) for v in omega)
            if w == 0:
                continue
            word = tuple(x[i] + omega[i + 1] - omega[i] for i in range(n))
            out[word] = out.get(word, zero) + w
    return out


def _brute_weight(params: InteractionParams, sigma: tuple[int, ...]) -> Prob:
    """Boltzmann weight of one configuration on [0, m], same one-factor-per-term
    quantization as the fast measure: each interaction term contributes
    Fraction(math.exp(-rho^e)) in exact mode."""
    if sigma[0] == 0:
        return Fraction(1) if params.exact else 1.0
    w = Fraction(1) if params.exact else 1.0
    run = 0
    for i, v in enumerate(sigma):
        run = run + 1 if v == 1 else 0
        if i >= 2 and i % 2 == 0 and v == 1 and run <= i // 2:
            e = i // 2 - run
            rho_e = params.rho ** e
            factor = math.exp(-float(rho_e))
            w *= Fraction(factor) if params.exact else factor
    return w


def brute_gibbs_conditional(params: InteractionParams, fixed: dict[int, int],
                            m: int) -> Prob:
    """Finite-volume conditional P(fixed sites) under the density on [0, m],
    by enumerating all 2^(m+1) configurations."""
    if m % 2 or m < 0:
        raise ValueError("m must be even and >= 0")
    if m > ORACLE_VOLUME_CAP:
        raise EnumerationCapError(f"oracle volume capped at m <= {ORACLE_VOLUME_CAP}")
    for i, v in fixed.items():
        if not 0 <= i <= m:
            raise ValueError(f"fixed site {i} outside [0, {m}]")
        if v not in (0, 1):
            raise ValueError("binary symbols only")
    zero = Fraction(0) if params.exact else 0.0
    num = zero
    den = zero
    for sigma in itertools.product((0, 1), repeat=m + 1):
        w = _brute_weight(params, sigma)
        den += w
        if all(sigma[i] == v for i, v in fixed.items()):
            num += w
    return num / den


def brute_block_entropy(params: ChannelParams, n: int) -> float:
    """H_n in nats from the fully materialized word distribution."""
    if not 1 <= n <= ORACLE_ENTROPY_CAP:
        raise EnumerationCapError(f"oracle entropy capped at n <= {ORACLE_ENTROPY_CAP}")
    import numpy as np
    dist = brute_channel_distribution(params, n)
    ws = np.array([float(v) for v in dist.values()])
    ws = ws[ws > 0.0]
    return float(-(ws * np.log(ws)).sum())
