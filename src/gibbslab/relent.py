"""Relative entropy between cylinder measures, and two identities about it.

Everything here works on a pair of MeasureProviders queried over finite
windows.  The headline algebraic fact, evaluated on exact sums by
tv_identity_check: with f_V = d(nu)/d(mu) on the window V,

    mu(|f_D - f_{D minus L}|)
        = E_nu || nu_L(. | rest) - mu_L(. | rest) ||_TV

for L inside D, where the TV norm is the plain L1 sum.  Both sides measure how
much the density ratio still moves when the L-coordinates are revealed, so
either side is a usable "distance from being a conditional identity".

No limits are taken anywhere: density sequences are reported as finite-n
tables and the reader draws the curve.  Every function works on integer
numerators: an exact measure's own, and for a float measure the
probabilities `distribution` lists, each read as the dyadic rational it
stores.  So every sum is exact; results are Fractions when both measures
are exact, and otherwise each is rounded to float once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, lshift
from typing import Iterable

import numpy as np

from .core import (
    WORD_CAP,
    Configuration,
    MeasureProvider,
    Prob,
    Window,
    ZeroProbabilityError,
)


@dataclass(frozen=True)
class RelEntReport:
    """Relative entropy over one window; +inf marks an absolute-continuity
    failure (some cylinder with nu > 0 = mu), which is a value, not an error."""

    window: Window
    value: float
    infinite: bool
    contributions: tuple[tuple[tuple[int, ...], float], ...] | None = None


def _int_numerators(values: Iterable[int | float], den: int | float) -> tuple[list, int]:
    """(nums, den'): the quotients v / den as int numerators over one int den'.

    Exact values pass through.  A float quotient is the dyadic rational it
    stores, odd * 2**e, so over the largest denominator, 2**-min(e), its
    numerator is odd << (e - min(e)): float.as_integer_ratio() scaled to
    that denominator.  numpy reads every mantissa and exponent at once.
    """
    if isinstance(den, int):
        return list(values), den
    frac, exp = np.frexp(np.fromiter(values, float) / den)
    mant = np.ldexp(frac, 53).astype(np.int64)  # v / den == mant * 2**(exp - 53)
    zeros = np.frexp((mant & -mant).astype(float))[1] - 1  # trailing zero bits
    odd, exp = mant >> zeros.clip(0), exp - 53 + zeros
    low = int(exp.min(where=mant != 0, initial=0))
    return list(map(lshift, odd.tolist(), (exp - low).clip(0).tolist())), 1 << -low


def _scaled_pair(nu: MeasureProvider, mu: MeasureProvider, window: Window, cap: int):
    """(words, p, a, q, b, exact): the window's words, and the probabilities
    `distribution` lists for them as int numerators, nu's p over a and mu's q
    over b.  Every `_scaled` lists all the window's words in lexicographic
    order, so p and q line up with words.  Callers build one Fraction per
    rest word, not per word.  exact says whether both measures are exact."""
    if nu.alphabet != mu.alphabet:
        raise ValueError(f"{nu.label} and {mu.label} have different alphabets: "
                         f"{nu.alphabet.symbols} and {mu.alphabet.symbols}")
    p, a = nu._scaled_distribution(window, cap)
    q, b = mu._scaled_distribution(window, cap)
    exact = isinstance(a, int) and isinstance(b, int)
    return (list(p), *_int_numerators(p.values(), a), *_int_numerators(q.values(), b), exact)


def window_relative_entropy(nu: MeasureProvider, mu: MeasureProvider,
                            window: Window, keep_contributions: bool = False,
                            cap: int = WORD_CAP) -> RelEntReport:
    """sum over words of nu(w) log(nu(w)/mu(w)), with 0 log 0 = 0."""
    words, p, a, q, b, _ = _scaled_pair(nu, mu, window, cap)
    if all(x * b == y * a for x, y in zip(p, q)):
        return RelEntReport(window, 0.0, False, () if keep_contributions else None)
    terms: list[tuple[tuple[int, ...], float]] = []
    for w, x, y in zip(words, p, q):
        if x == 0:
            continue
        if y == 0:
            return RelEntReport(window, math.inf, True,
                                ((w, math.inf),) if keep_contributions else None)
        # int / int rounds once, as float() of the Fraction it stands for does
        terms.append((w, x / a * math.log((x * b) / (y * a))))
    value = math.fsum(t for _, t in terms)
    if -1e-9 < value < 0.0:
        value = 0.0  # roundoff on a sum that is nonnegative by Gibbs' inequality
    return RelEntReport(window, value, False,
                        tuple(terms) if keep_contributions else None)


@dataclass(frozen=True)
class DensityRow:
    n: int
    window_value: float
    per_site: float


def relative_entropy_density(nu: MeasureProvider, mu: MeasureProvider,
                             n_max: int, lo: int = 1,
                             cap: int = WORD_CAP) -> tuple[DensityRow, ...]:
    """Normalized sequence H_[lo, lo+n-1](nu|mu) / n for n = 1..n_max.

    The table is the deliverable; whether it converges is the reader's call.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    for n in range(1, n_max + 1):
        rep = window_relative_entropy(nu, mu, Window(lo, lo + n - 1), cap=cap)
        rows.append(DensityRow(n, rep.value, rep.value / n))
    return tuple(rows)


def density_ratio(nu: MeasureProvider, mu: MeasureProvider,
                  cfg: Configuration) -> Prob:
    """nu(cfg) / mu(cfg); mu-averaging this over any window gives exactly 1."""
    denom = mu.prob(cfg)
    if denom == 0:
        raise ZeroProbabilityError(f"{mu.label}: zero mass on the given cylinder")
    return nu.prob(cfg) / denom


def _rest_positions(delta: Window, lam: Window) -> list[int]:
    """Offsets within delta of the coordinates outside lam."""
    if not delta.contains_window(lam):
        raise ValueError("lam must sit inside delta")
    rest_ix = [j for j in range(delta.size) if j + delta.lo not in lam]
    if not rest_ix:
        raise ValueError("lam must be a proper subset of delta")
    return rest_ix


def _rest_groups(words: list, p: list, q: list,
                 rest_ix: list[int]) -> list[tuple[int, int, int]]:
    """Per rest word r, (a_r, b_r, g_r): a_r and b_r sum the int numerators
    a_w of p and b_w of q over r's words, and g_r sums |a_w b_r - b_w a_r|.

    With P = p / a and Q = q / b, the L1 gap between the conditionals on lam
    given r is g_r / (a_r b_r), and P_rest(r) is a_r / a.
    """
    rest = itemgetter(*rest_ix)
    groups: dict = {}
    for w, x, y in zip(words, p, q):
        groups.setdefault(rest(w), []).append((x, y))
    out = []
    for pairs in groups.values():
        a_r, b_r = sum(x for x, _ in pairs), sum(y for _, y in pairs)
        out.append((a_r, b_r, sum(abs(x * b_r - y * a_r) for x, y in pairs)))
    return out


@dataclass(frozen=True)
class TvIdentityResult:
    lhs: Prob
    rhs: Prob
    exact: bool
    equal: bool


def tv_identity_check(nu: MeasureProvider, mu: MeasureProvider, lam: Window,
                      delta: Window, cap: int = WORD_CAP) -> TvIdentityResult:
    """Evaluate both sides of the density-increment / conditional-TV identity.

    lam may touch either end of delta or sit strictly inside it; the
    conditioning coordinates are handled as tuples, not intervals.  Requires
    nu << mu on delta (checked word by word).  Both sides are exact sums, and
    `equal` reports == on them; they come back as Fractions when both
    measures are exact, each rounded to float once otherwise.  Both are
    built from _rest_groups' g_r, so == here checks the bookkeeping, not the
    identity; the literal per-word formulas in the tests check that.
    """
    rest_ix = _rest_positions(delta, lam)
    words, p, a, q, b, exact = _scaled_pair(nu, mu, delta, cap)
    if any(x != 0 and y == 0 for x, y in zip(p, q)):
        raise ZeroProbabilityError(
            "identity needs nu absolutely continuous w.r.t. mu on delta")
    lhs = rhs = Fraction(0)
    for a_r, b_r, g_r in _rest_groups(words, p, q, rest_ix):
        # |p_w - q_w p_rest / q_rest| = |a_w b_r - b_w a_r| / (a b_r), and the
        # words with q_w = 0 add nothing, as p_w = 0 there
        if b_r:
            lhs += Fraction(g_r, a * b_r)
        if a_r and b_r:
            rhs += Fraction(a_r, a) * Fraction(g_r, a_r * b_r)
    if exact:
        return TvIdentityResult(lhs, rhs, True, lhs == rhs)
    return TvIdentityResult(float(lhs), float(rhs), False, lhs == rhs)


@dataclass(frozen=True)
class ConditionalGapRow:
    n: int
    mean_gap: float   # nu-weighted average of the TV gaps
    max_gap: float
    conditioned_on: int


def conditional_gap_probe(nu: MeasureProvider, mu: MeasureProvider, lam: Window,
                          n_max: int, cap: int = WORD_CAP) -> tuple[ConditionalGapRow, ...]:
    """TV gap between the two conditionals on lam, given words on (lam.hi, n].

    For measures that agree as conditional families the gaps vanish; the
    nu-weighted mean per n is the headline column.  Conditioning words with
    zero nu-mass carry no weight and are skipped; zero mu-mass under positive
    nu-mass is an absolute-continuity failure and raises.
    """
    if n_max <= lam.hi:
        raise ValueError("n_max must exceed lam.hi")
    rows = []
    for n in range(lam.hi + 1, n_max + 1):
        delta = Window(lam.lo, n)
        rest_ix = _rest_positions(delta, lam)
        words, p, a, q, b, _ = _scaled_pair(nu, mu, delta, cap)
        groups = _rest_groups(words, p, q, rest_ix)
        uncovered = any(a_r and not b_r for a_r, b_r, _ in groups)
        gaps = [(g_r, a_r, b_r) for a_r, b_r, g_r in groups if a_r and b_r]
        # p_rest times the gap is (a_r / a) g_r / (a_r b_r) = g_r / (a b_r)
        mean = sum((Fraction(g_r, b_r) for g_r, _, b_r in gaps), Fraction(0)) / a
        # int / int rounds once and rounding keeps order, so this is float(max)
        biggest = max((g_r / (a_r * b_r) for g_r, a_r, b_r in gaps), default=0.0)
        if uncovered:
            raise ZeroProbabilityError(
                "mu puts no mass on a conditioning word nu charges")
        rows.append(ConditionalGapRow(n, float(mean), float(biggest), len(gaps)))
    return tuple(rows)
