"""Relative entropy between cylinder measures, and two identities about it.

Everything here works on a pair of MeasureProviders queried over finite
windows.  The headline algebraic fact, checked exactly in rational mode by
tv_identity_check: with f_V = d(nu)/d(mu) on the window V,

    mu(|f_D - f_{D minus L}|)
        = E_nu || nu_L(. | rest) - mu_L(. | rest) ||_TV

for L inside D, where the TV norm is the plain L1 sum.  Both sides measure how
much the density ratio still moves when the L-coordinates are revealed, so
either side is a usable "distance from being a conditional identity".

No limits are taken anywhere: density sequences are reported as finite-n
tables and the reader draws the curve.  When both measures are exact, the
functions work on the providers' integer numerators; when either is float,
on the probabilities `distribution` lists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .core import (
    Configuration,
    MeasureProvider,
    Prob,
    Window,
    ZeroProbabilityError,
    scaled_quotients,
)

WORD_CAP = 1 << 21


@dataclass(frozen=True)
class RelEntReport:
    """Relative entropy over one window; +inf marks an absolute-continuity
    failure (some cylinder with nu > 0 = mu), which is a value, not an error."""

    window: Window
    value: float
    infinite: bool
    contributions: tuple[tuple[tuple[int, ...], float], ...] | None = None


def _scaled_pair(nu: MeasureProvider, mu: MeasureProvider, window: Window, cap: int):
    """(p, a, q, b, exact): nu's and mu's distributions on the window as
    numerators p over a and q over b.  Exact pairs keep int numerators, so
    callers build one Fraction per rest word, not per word; otherwise each
    numerator becomes the value `distribution` lists, over 1."""
    if nu.alphabet != mu.alphabet:
        raise ValueError(f"{nu.label} and {mu.label} have different alphabets: "
                         f"{nu.alphabet.symbols} and {mu.alphabet.symbols}")
    p, a = nu._scaled_distribution(window, cap)
    q, b = mu._scaled_distribution(window, cap)
    if isinstance(a, int) and isinstance(b, int):
        return p, a, q, b, True
    return scaled_quotients(p, a), 1, scaled_quotients(q, b), 1, False


def window_relative_entropy(nu: MeasureProvider, mu: MeasureProvider,
                            window: Window, keep_contributions: bool = False,
                            cap: int = WORD_CAP) -> RelEntReport:
    """sum over words of nu(w) log(nu(w)/mu(w)), with 0 log 0 = 0."""
    p, a, q, b, _ = _scaled_pair(nu, mu, window, cap)
    if all(pw * b == q[w] * a for w, pw in p.items()):
        return RelEntReport(window, 0.0, False, () if keep_contributions else None)
    terms: list[tuple[tuple[int, ...], float]] = []
    for w, pw in p.items():
        if pw == 0:
            continue
        qw = q[w]
        if qw == 0:
            return RelEntReport(window, math.inf, True,
                                ((w, math.inf),) if keep_contributions else None)
        # int / int rounds once, as float() of the Fraction it stands for does
        terms.append((w, float(pw / a) * math.log((pw * b) / (qw * a))))
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


def _conditional_split(p: dict, q: dict, rest_ix: list[int]):
    """Float or mixed mode: marginals of p and q on the rest coordinates,
    and per rest word charged by both, the L1 gap between their conditionals
    on lam.

    Returns (zero, p_rest, q_rest, gaps).  Rest words with no p-mass carry no
    weight and get no gap; those with p-mass but no q-mass get none either,
    and each caller decides whether that is an error.
    """
    zero = p[next(iter(p))] * 0
    p_rest: dict[tuple[int, ...], Prob] = {}
    q_rest: dict[tuple[int, ...], Prob] = {}
    for w, v in p.items():
        rest = tuple(w[j] for j in rest_ix)
        p_rest[rest] = p_rest.get(rest, zero) + v
        q_rest[rest] = q_rest.get(rest, zero) + q[w]
    gaps: dict[tuple[int, ...], Prob] = {}
    for w, pw in p.items():
        rest = tuple(w[j] for j in rest_ix)
        if p_rest[rest] == 0 or q_rest[rest] == 0:
            continue
        gaps[rest] = gaps.get(rest, zero) + \
            abs(pw / p_rest[rest] - q[w] / q_rest[rest])
    return zero, p_rest, q_rest, gaps


def _rest_groups(p: dict, q: dict, rest_ix: list[int]) -> list[tuple[int, int, int, list]]:
    """Exact mode: per rest word r, (a_r, b_r, g_r, pairs), where pairs holds
    the int numerators (a_w, b_w) of its words, a_r and b_r are their sums,
    and g_r sums |a_w b_r - b_w a_r| over them.

    With P = p / a and Q = q / b, the L1 gap between the conditionals on lam
    given r is g_r / (a_r b_r), and P_rest(r) is a_r / a.
    """
    rest = itemgetter(*rest_ix)
    groups: dict = {}
    for w, pw in p.items():
        groups.setdefault(rest(w), []).append((pw, q[w]))
    out = []
    for pairs in groups.values():
        a_r, b_r = sum(x for x, _ in pairs), sum(y for _, y in pairs)
        out.append((a_r, b_r, sum(abs(x * b_r - y * a_r) for x, y in pairs), pairs))
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
    nu << mu on delta (checked word by word).  In rational mode the two sides
    must come out exactly equal; `equal` reports == there and a 1e-12
    comparison in float mode.  The sides are summed along different
    groupings: the left word by word over q, the right as p_rest times the
    conditional gap.
    """
    rest_ix = _rest_positions(delta, lam)
    p, a, q, b, exact = _scaled_pair(nu, mu, delta, cap)
    if any(v != 0 and q[w] == 0 for w, v in p.items()):
        raise ZeroProbabilityError(
            "identity needs nu absolutely continuous w.r.t. mu on delta")
    if exact:
        lhs = rhs = Fraction(0)
        for a_r, b_r, g_r, pairs in _rest_groups(p, q, rest_ix):
            if b_r:  # |p_w - q_w p_rest / q_rest| = |a_w b_r - b_w a_r| / (a b_r)
                lhs += Fraction(sum(abs(x * b_r - y * a_r) for x, y in pairs if y), a * b_r)
            if a_r and b_r:
                rhs += Fraction(a_r, a) * Fraction(g_r, a_r * b_r)
        return TvIdentityResult(lhs, rhs, True, lhs == rhs)

    zero, p_rest, q_rest, gaps = _conditional_split(p, q, rest_ix)
    lhs = zero
    for w, qw in q.items():
        if qw == 0:
            continue
        rest = tuple(w[j] for j in rest_ix)
        lhs += abs(p[w] - qw * p_rest[rest] / q_rest[rest])
    rhs = zero
    for rest, gap in gaps.items():
        rhs += p_rest[rest] * gap
    return TvIdentityResult(lhs, rhs, False, abs(float(lhs) - float(rhs)) <= 1e-12)


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
        p, a, q, b, exact = _scaled_pair(nu, mu, delta, cap)
        if exact:
            groups = _rest_groups(p, q, rest_ix)
            uncovered = any(a_r and not b_r for a_r, b_r, _, _ in groups)
            gaps = [(g_r, a_r, b_r) for a_r, b_r, g_r, _ in groups if a_r and b_r]
            # p_rest times the gap is (a_r / a) g_r / (a_r b_r) = g_r / (a b_r)
            mean = sum((Fraction(g_r, b_r) for g_r, _, b_r in gaps), Fraction(0)) / a
            # int / int rounds once and rounding keeps order, so this is float(max)
            biggest = max((g_r / (a_r * b_r) for g_r, a_r, b_r in gaps), default=0.0)
        else:
            zero, p_rest, q_rest, gaps = _conditional_split(p, q, rest_ix)
            uncovered = any(v != 0 and q_rest[r] == 0 for r, v in p_rest.items())
            mean = sum((p_rest[r] * g for r, g in gaps.items()), zero)
            biggest = max(gaps.values(), default=zero)
        if uncovered:
            raise ZeroProbabilityError(
                "mu puts no mass on a conditioning word nu charges")
        rows.append(ConditionalGapRow(n, float(mean), float(biggest), len(gaps)))
    return tuple(rows)
