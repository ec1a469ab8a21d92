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

from .core import (
    Configuration,
    MeasureProvider,
    Prob,
    Window,
    ZeroProbabilityError,
    _cylinder_fold,
    _fold_quotient,
)


@dataclass(frozen=True)
class RelEntReport:
    """Relative entropy over one window; +inf marks an absolute-continuity
    failure (some cylinder with nu > 0 = mu), which is a value, not an error."""

    window: Window
    value: float
    infinite: bool


def _int_numerators(values: Iterable[int | float], den: int | float) -> tuple[list, int]:
    """(nums, den'): the quotients v / den as int numerators over one int den'.

    Exact values pass through.  A float quotient is the dyadic rational it
    stores, odd * 2**e, so over the largest denominator, 2**-min(e), its
    numerator is odd << (e - min(e)): float.as_integer_ratio() scaled to
    that denominator.  numpy reads every mantissa and exponent at once.
    """
    if isinstance(den, int):
        return list(values), den
    import numpy as np
    frac, exp = np.frexp(np.fromiter(values, float) / den)
    mant = np.ldexp(frac, 53).astype(np.int64)  # v / den == mant * 2**(exp - 53)
    zeros = np.frexp((mant & -mant).astype(float))[1] - 1  # trailing zero bits
    odd, exp = mant >> zeros.clip(0), exp - 53 + zeros
    low = int(exp.min(where=mant != 0, initial=0))
    return list(map(lshift, odd.tolist(), (exp - low).clip(0).tolist())), 1 << -low


def _scaled_pairs(nu: MeasureProvider, mu: MeasureProvider, lo: int, first: int, n: int):
    """Yield (words, p, a, q, b, exact) for each window [lo, lo + l - 1],
    l = first..n, from one walk of each measure: the window's words in
    lexicographic order, and the probabilities `distribution` lists for them
    as int numerators, nu's p over a and mu's q over b.  Callers build one
    Fraction per rest word, not per word.  exact says whether both measures
    are exact.  Every window is checked, nu's then mu's, before either walk
    starts, so an error names the first window a window-by-window run fails."""
    if nu.alphabet != mu.alphabet:
        raise ValueError(f"{nu.label} and {mu.label} have different alphabets: "
                         f"{nu.alphabet.symbols} and {mu.alphabet.symbols}")
    for l in range(first, n + 1):
        nu._check_words(Window(lo, lo + l - 1))
        mu._check_words(Window(lo, lo + l - 1))
    for (p, a), (q, b) in zip(nu._scaled_levels(lo, first, n), mu._scaled_levels(lo, first, n)):
        yield (list(p), *_int_numerators(p.values(), a), *_int_numerators(q.values(), b),
               isinstance(a, int) and isinstance(b, int))


def _relents(nu: MeasureProvider, mu: MeasureProvider, lo: int, first: int, n: int):
    """Yield sum over words of nu(w) log(nu(w)/mu(w)), with 0 log 0 = 0, for
    each _scaled_pairs window, or math.inf where nu charges a word mu does
    not.  Equal measures give exactly 0.0: each term is a log of exactly 1.0."""
    for _, p, a, q, b, _ in _scaled_pairs(nu, mu, lo, first, n):
        terms = []
        for x, y in zip(p, q):
            if x and not y:
                terms = [math.inf]
                break
            if x:  # int / int rounds once, as float() of the Fraction it stands for does
                terms.append(x / a * math.log((x * b) / (y * a)))
        value = math.fsum(terms)
        yield 0.0 if -1e-9 < value < 0.0 else value  # roundoff under Gibbs' inequality


def window_relative_entropy(nu: MeasureProvider, mu: MeasureProvider,
                            window: Window) -> RelEntReport:
    """sum over words of nu(w) log(nu(w)/mu(w)), with 0 log 0 = 0 (_relents)."""
    value, = _relents(nu, mu, window.lo, window.size, window.size)
    return RelEntReport(window, value, value == math.inf)


@dataclass(frozen=True)
class DensityRow:
    n: int
    window_value: float
    per_site: float


def relative_entropy_density(nu: MeasureProvider, mu: MeasureProvider,
                             n_max: int, lo: int = 1) -> tuple[DensityRow, ...]:
    """Normalized sequence H_[lo, lo+n-1](nu|mu) / n for n = 1..n_max, every
    window closed on one walk of each measure out to the last.

    The table is the deliverable; whether it converges is the reader's call.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return tuple(DensityRow(n, v, v / n) for n, v in enumerate(_relents(nu, mu, lo, 1, n_max), 1))


def density_ratio(nu: MeasureProvider, mu: MeasureProvider,
                  cfg: Configuration) -> Prob:
    """nu(cfg) / mu(cfg); mu-averaging this over any window gives exactly 1.
    One rescaled fold of each measure along cfg, closed through one
    quotient, so the ratio stays finite where either cylinder underflows."""
    mu.check_config(cfg)
    nu.check_config(cfg)
    lo, hi = cfg.window.lo, cfg.window.hi
    return _fold_quotient(_cylinder_fold(nu, lo, cfg.values)(hi),
                          _cylinder_fold(mu, lo, cfg.values)(hi), mu.label)


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


def _mean_gap(groups: list[tuple[int, int, int]], a: int) -> Fraction:
    """Sum over rest words r of P_rest(r) times r's L1 gap, (a_r / a) g_r /
    (a_r b_r) = g_r / (a b_r).  A rest word with g_r = 0 adds nothing; that
    covers a_r = 0 or b_r = 0, where every term of g_r vanishes.  The g_r
    are summed as ints per distinct b_r, so one Fraction is built per
    denominator, not per rest word."""
    by_den: dict[int, int] = {}
    for _, b_r, g_r in groups:
        if g_r:
            by_den[b_r] = by_den.get(b_r, 0) + g_r
    return sum((Fraction(g, b_r) for b_r, g in by_den.items()), Fraction(0)) / a


@dataclass(frozen=True)
class TvIdentityResult:
    lhs: Prob
    rhs: Prob
    exact: bool
    equal: bool


def tv_identity_check(nu: MeasureProvider, mu: MeasureProvider, lam: Window,
                      delta: Window) -> TvIdentityResult:
    """Evaluate both sides of the density-increment / conditional-TV identity.

    lam may touch either end of delta or sit strictly inside it; the
    conditioning coordinates are handled as tuples, not intervals.  Requires
    nu << mu on delta (checked word by word).  The sides are exact sums,
    returned as Fractions when both measures are exact and each rounded to
    float once otherwise.  Per rest word r, the left side's terms
    |p_w - q_w p_rest / q_rest| add up to g_r / (a b_r), and the right side's
    p_rest times the gap is (a_r / a) g_r / (a_r b_r), the same number (both
    vanish when a_r = 0); so the sum is taken once, rhs is lhs and `equal`
    holds by construction.  The literal per-word formulas in the tests check
    the identity itself.
    """
    rest_ix = _rest_positions(delta, lam)
    words, p, a, q, b, exact = next(_scaled_pairs(nu, mu, delta.lo, delta.size, delta.size))
    if any(x != 0 and y == 0 for x, y in zip(p, q)):
        raise ZeroProbabilityError(
            "identity needs nu absolutely continuous w.r.t. mu on delta")
    side = _mean_gap(_rest_groups(words, p, q, rest_ix), a)
    if not exact:
        side = float(side)
    return TvIdentityResult(side, side, exact, True)


@dataclass(frozen=True)
class ConditionalGapRow:
    n: int
    mean_gap: float   # nu-weighted average of the TV gaps
    max_gap: float
    conditioned_on: int


def conditional_gap_probe(nu: MeasureProvider, mu: MeasureProvider, lam: Window,
                          n_max: int) -> tuple[ConditionalGapRow, ...]:
    """TV gap between the two conditionals on lam, given words on (lam.hi, n].

    For measures that agree as conditional families the gaps vanish; the
    nu-weighted mean per n is the headline column.  Conditioning words with
    zero nu-mass carry no weight and are skipped; zero mu-mass under positive
    nu-mass is an absolute-continuity failure and raises.  Every window
    [lam.lo, n] is closed on one walk of each measure out to n_max.
    """
    if n_max <= lam.hi:
        raise ValueError("n_max must exceed lam.hi")
    rows = []
    pairs = _scaled_pairs(nu, mu, lam.lo, lam.size + 1, n_max - lam.lo + 1)
    for n, (words, p, a, q, b, _) in zip(range(lam.hi + 1, n_max + 1), pairs):
        groups = _rest_groups(words, p, q, _rest_positions(Window(lam.lo, n), lam))
        uncovered = any(a_r and not b_r for a_r, b_r, _ in groups)
        gaps = [(g_r, a_r, b_r) for a_r, b_r, g_r in groups if a_r and b_r]
        mean = _mean_gap(groups, a)
        # int / int rounds once and rounding keeps order, so this is float(max)
        biggest = max((g_r / (a_r * b_r) for g_r, a_r, b_r in gaps), default=0.0)
        if uncovered:
            raise ZeroProbabilityError(
                "mu puts no mass on a conditioning word nu charges")
        rows.append(ConditionalGapRow(n, float(mean), float(biggest), len(gaps)))
    return tuple(rows)
