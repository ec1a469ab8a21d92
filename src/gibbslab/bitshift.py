"""Bit-shift jitter channel: y_i = x_i + w_i - w_{i-1}.

Inputs x_i are i.i.d. on {d, ..., k}; the jitter w_i is i.i.d. on {-1, 0, +1}
with P(w = +-1) = eps.  The output lives on {0, ..., k+2}.  The channel has a
hidden state (the previous jitter value), so output cylinder probabilities come
from a three-state forward recursion; the state before a window is integrated
against the jitter distribution, which makes the output law stationary.

The output word "00" is forbidden: y_i = 0 forces x_i = d, w_i = -1 and
w_{i-1} = +1 (for d = 2), and two consecutive forced jitters contradict.
More interestingly, the run [0, 2, 2, ..., 2] has exactly one preimage chain,
so its probability is a pure power while [2, ..., 2] has polynomially many
preimages: the conditional of 0 given 2^n decays like 1/n, too slowly for any
Bowen-type envelope.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .core import (
    Alphabet,
    Configuration,
    EnumerationCapError,
    MeasureProvider,
    Prob,
    Rng,
    ZeroProbabilityError,
    as_prob,
    check_finite,
    format_prob,
    integer_scaled,
    is_exact,
    scaled_quotient,
)

JITTER = (-1, 0, 1)
BLOCK_ENTROPY_CAP = 12
BLOCK_ROWS = 200_000  # rows per numpy block in the entropy sweep


@dataclass(frozen=True)
class ChannelParams:
    """Input alphabet {d..k} with weights p, jitter strength eps."""

    d: int
    k: int
    p: tuple[Prob, ...]
    eps: Prob

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2 (otherwise outputs go negative)")
        if self.k <= self.d:
            raise ValueError("k must exceed d")
        object.__setattr__(self, "p", tuple(as_prob(w) for w in self.p))
        object.__setattr__(self, "eps", as_prob(self.eps))
        if len(self.p) != self.k - self.d + 1:
            raise ValueError(f"need {self.k - self.d + 1} input weights")
        check_finite(self.p + (self.eps,), "channel weights")
        for w in self.p:
            if w < 0:
                raise ValueError("negative input weight")
        total = sum(self.p)
        if self.exact:
            if total != 1:
                raise ValueError(f"input weights sum to {total}, expected 1")
        elif abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"input weights sum to {float(total)}, expected 1")
        if not (0 <= self.eps < Fraction(1, 2)):
            raise ValueError("eps must lie in [0, 1/2)")

    @property
    def exact(self) -> bool:
        return all(is_exact(w) for w in self.p) and is_exact(self.eps)

    @property
    def input_symbols(self) -> tuple[int, ...]:
        return tuple(range(self.d, self.k + 1))

    @property
    def output_symbols(self) -> tuple[int, ...]:
        return tuple(range(0, self.k + 3))

    def p_of(self, x: int) -> Prob:
        zero = Fraction(0) if self.exact else 0.0
        if self.d <= x <= self.k:
            return self.p[x - self.d]
        return zero

    def jitter_weight(self, w: int) -> Prob:
        if w == 0:
            return 1 - 2 * self.eps
        if w in (-1, 1):
            return self.eps
        raise ValueError(f"jitter value {w} outside {{-1,0,1}}")

    def stationary_vector(self) -> tuple[Prob, Prob, Prob]:
        return (self.eps, 1 - 2 * self.eps, self.eps)

    @cached_property
    def _forward_model(self) -> tuple[tuple, list[tuple], int | float, int | float]:
        """(init, mats, den0, den) for the forward recursion, built once per
        instance: the stationary vector over den0 and, per output symbol, the
        row-major 3x3 transition matrix over den, both from integer_scaled.
        Kept on the instance, not in a cache keyed on the params, because an
        exact instance and its float twin compare and hash equal."""
        init, den0 = integer_scaled(self.stationary_vector(), self.exact)
        mats = transition_matrices(self)
        flat, den = integer_scaled([v for y in self.output_symbols for row in mats[y]
                                    for v in row], self.exact)
        return (tuple(init), [tuple(flat[i:i + 9]) for i in range(0, len(flat), 9)],
                den0, den)

    @cached_property
    def _float_matrices(self) -> np.ndarray:
        """transition_matrices(self, as_float=True), built once per instance
        (kept on the instance for the same reason as _forward_model) and
        read-only, since every caller shares it."""
        mats = transition_matrices(self, as_float=True)
        mats.flags.writeable = False
        return mats


def apply_channel(x: Sequence[int], omega: Sequence[int]) -> tuple[int, ...]:
    """Channel output for input x and jitter omega; omega carries one extra
    leading entry (the jitter just before the window)."""
    if len(omega) != len(x) + 1:
        raise ValueError("omega needs exactly one more entry than x")
    for w in omega:
        if w not in JITTER:
            raise ValueError(f"jitter value {w} outside {{-1,0,1}}")
    return tuple(x[i] + omega[i + 1] - omega[i] for i in range(len(x)))


def transition_matrices(params: ChannelParams, as_float: bool = False):
    """mats[y][t][s] = P(jitter = t) * P(input = y - t + s); states ordered -1,0,1."""
    mats = {}
    for y in params.output_symbols:
        mats[y] = [[params.jitter_weight(t) * params.p_of(y - t + s)
                    for s in JITTER] for t in JITTER]
    if as_float:
        out = np.zeros((len(params.output_symbols), 3, 3))
        for y in params.output_symbols:
            out[y] = [[float(v) for v in row] for row in mats[y]]
        return out
    return mats


def _check_word(params: ChannelParams, y: Sequence[int]) -> tuple[int, ...]:
    word = tuple(int(v) for v in y)
    if not word:
        raise ValueError("empty output word")
    for v in word:
        if not 0 <= v <= params.k + 2:
            raise ValueError(f"output symbol {v} outside 0..{params.k + 2}")
    return word


def _step(m: tuple, alpha: tuple) -> tuple:
    """One forward step, alpha'[t] = sum over s of m[t][s] alpha[s], on the
    row-major matrix of ChannelParams._forward_model."""
    a0, a1, a2 = alpha
    return (m[0] * a0 + m[1] * a1 + m[2] * a2,
            m[3] * a0 + m[4] * a1 + m[5] * a2,
            m[6] * a0 + m[7] * a1 + m[8] * a2)


def cylinder_prob(params: ChannelParams, y: Sequence[int]) -> Prob:
    """Output-cylinder probability via the three-state forward recursion."""
    word = _check_word(params, y)
    alpha, mats, den0, den = params._forward_model
    for v in word:
        alpha = _step(mats[v], alpha)
    return scaled_quotient(sum(alpha), den0 * den ** len(word))


def cylinder_log_prob(params: ChannelParams, y: Sequence[int]) -> float:
    """log of the cylinder probability, accumulated with per-step rescaling."""
    word = _check_word(params, y)
    mats = params._float_matrices
    alpha = np.array([float(v) for v in params.stationary_vector()])
    out = 0.0
    for v in word:
        alpha = mats[v] @ alpha
        z = alpha.sum()
        if z == 0.0:
            raise ZeroProbabilityError("inadmissible output word")
        out += math.log(z)
        alpha /= z
    return out


@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    x: tuple[int, ...] | None
    omega: tuple[int, ...] | None


def is_admissible(params: ChannelParams, y: Sequence[int]) -> AdmissibilityResult:
    """Structural admissibility (all weights treated as positive), with witness.

    Runs the support version of the forward recursion, then backtracks the
    first feasible chain into a preimage (x, omega).
    """
    word = _check_word(params, y)
    supports = [set(JITTER)]
    for v in word:
        prev = supports[-1]
        cur = {t for t in JITTER for s in prev if params.d <= v - t + s <= params.k}
        if not cur:
            return AdmissibilityResult(False, None, None)
        supports.append(cur)
    # backtrack lexicographically smallest jitter chain
    chain = [min(supports[-1])]
    for i in range(len(word) - 1, 0, -1):
        t = chain[-1]
        s = min(s for s in supports[i] if params.d <= word[i] - t + s <= params.k)
        chain.append(s)
    t = chain[-1]
    chain.append(min(s for s in supports[0] if params.d <= word[0] - t + s <= params.k))
    omega = tuple(reversed(chain))
    x = tuple(word[i] - omega[i + 1] + omega[i] for i in range(len(word)))
    return AdmissibilityResult(True, x, omega)


def simulate(params: ChannelParams, n: int, rng: Rng) -> np.ndarray:
    """Sample one output word of length n (input and jitter drawn i.i.d.)."""
    x, omega = _simulate_pair(params, n, 1, rng.generator())
    return (x[0] + omega[0][1:] - omega[0][:-1])


def _simulate_pair(params: ChannelParams, n: int, count: int, gen) -> tuple[np.ndarray, np.ndarray]:
    pf = np.array([float(w) for w in params.p])
    x_cdf = np.cumsum(pf)
    jf = np.array([float(params.jitter_weight(w)) for w in JITTER])
    w_cdf = np.cumsum(jf)
    u = gen.random((count, n))
    x = params.d + np.searchsorted(x_cdf, u, side="right").clip(max=len(pf) - 1)
    u = gen.random((count, n + 1))
    w = np.searchsorted(w_cdf, u, side="right").clip(max=2) - 1
    return x, w


class BitShiftMeasure(MeasureProvider):
    """Stationary output law of the channel, as a cylinder-measure provider."""

    def __init__(self, params: ChannelParams):
        self.params = params
        self.alphabet = Alphabet(params.output_symbols)
        self.stationary = True
        self.label = (f"bitshift(d={params.d},k={params.k},"
                      f"eps={format_prob(params.eps)})")

    def prob(self, cfg: Configuration) -> Prob:
        self.check_config(cfg)
        return cylinder_prob(self.params, cfg.values)

    def log_prob(self, cfg: Configuration) -> float:
        self.check_config(cfg)
        return cylinder_log_prob(self.params, cfg.values)


@dataclass(frozen=True)
class BadConfigRow:
    n: int
    p_joint: Prob       # nu([0, 2^n])
    p_run: Prob         # nu([2^n])
    conditional: Prob   # nu(0 | 2^n)
    scaled: Prob        # n * conditional


def bad_config_table(params: ChannelParams, n_max: int) -> tuple[BadConfigRow, ...]:
    """Decay table for the conditional nu(0 | 2^n).

    Requires 2 and 3 in the input alphabet.  The n * nu(0 | 2^n) column staying
    bounded is the non-Gibbs signature; the lower-bound comparison against
    n p2^(n-1) p3 eps^(n+1) is only meaningful for eps < 1/3.
    """
    if not (params.d <= 2 <= params.k and params.d <= 3 <= params.k):
        raise ValueError("table needs symbols 2 and 3 in the input alphabet")
    rows = []
    for n in range(1, n_max + 1):
        run = (2,) * n
        p_run = cylinder_prob(params, run)
        p_joint = cylinder_prob(params, (0,) + run)
        cond = p_joint / p_run
        rows.append(BadConfigRow(n, p_joint, p_run, cond, n * cond))
    return tuple(rows)


def block_distribution(params: ChannelParams, n: int,
                       cap: int = 8) -> dict[tuple[int, ...], Prob]:
    """Exact distribution over admissible length-n output words (DFS, pruned)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise EnumerationCapError(f"block distribution capped at n <= {cap}")
    init, mats, den0, den = params._forward_model
    scale = den0 * den ** n
    out: dict[tuple[int, ...], Prob] = {}

    def walk(prefix: tuple[int, ...], alpha) -> None:
        if len(prefix) == n:
            out[prefix] = scaled_quotient(sum(alpha), scale)
            return
        for y in params.output_symbols:
            nxt = _step(mats[y], alpha)
            if any(v != 0 for v in nxt):
                walk(prefix + (y,), nxt)

    walk((), init)
    return out


def _entropy_sweep(mats: np.ndarray, init: np.ndarray, n: int,
                   block_rows: int = BLOCK_ROWS) -> np.ndarray:
    """H_1 .. H_n for the word distribution started from forward vector init.

    Level-by-level batched enumeration: rows are forward vectors of admissible
    words, zero rows pruned, blocks split to bound memory.  Traversal order is
    fixed, so float accumulation is reproducible.
    """
    acc = np.zeros(n)
    n_sym = mats.shape[0]

    def sweep(rows: np.ndarray, level: int) -> None:
        blocks = []
        for y in range(n_sym):
            b = rows @ mats[y].T
            w = b.sum(axis=1)
            keep = w > 0.0
            if not keep.any():
                continue
            b = b[keep]
            w = w[keep]
            acc[level] += -(w * np.log(w)).sum()
            blocks.append(b)
        if level + 1 >= n or not blocks:
            return
        nxt = np.vstack(blocks)
        if nxt.shape[0] > block_rows:
            for start in range(0, nxt.shape[0], block_rows):
                sweep(nxt[start:start + block_rows], level + 1)
        else:
            sweep(nxt, level + 1)

    sweep(init.reshape(1, 3), 0)
    return acc


def entropy_levels(params: ChannelParams, n: int, start: int | None = None,
                   cap: int = BLOCK_ENTROPY_CAP) -> np.ndarray:
    """Block entropies H_1..H_n in nats; start fixes the pre-window jitter state."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise EnumerationCapError(
            f"block entropy at n={n} exceeds cap {cap} "
            f"(cost grows like admissible words ~ 5^n)")
    mats = params._float_matrices
    if start is None:
        init = np.array([float(v) for v in params.stationary_vector()])
    else:
        init = np.zeros(3)
        init[JITTER.index(start)] = 1.0
    return _entropy_sweep(mats, init, n)


def block_entropy(params: ChannelParams, n: int, cap: int = BLOCK_ENTROPY_CAP) -> float:
    return float(entropy_levels(params, n, cap=cap)[n - 1])


@dataclass(frozen=True)
class EntropyBoundsRow:
    n: int
    lower: float
    upper: float


def entropy_bound_table(params: ChannelParams, n_max: int,
                        cap: int = BLOCK_ENTROPY_CAP) -> tuple[EntropyBoundsRow, ...]:
    """Conditional-entropy bounds bracketing the entropy rate.

    upper(n) = H_n - H_{n-1} is nonincreasing and >= h; conditioning on the
    pre-window jitter state severs the past, so lower(n), the jitter-averaged
    H(Y_n | Y_1..Y_{n-1}, state), is nondecreasing and <= h.
    """
    levels = entropy_levels(params, n_max, cap=cap)
    weighted = np.zeros(n_max)
    for s in JITTER:
        w = float(params.jitter_weight(s))
        if w == 0.0:
            continue
        weighted += w * entropy_levels(params, n_max, start=s, cap=cap)
    rows = []
    for n in range(1, n_max + 1):
        upper = levels[n - 1] - (levels[n - 2] if n > 1 else 0.0)
        lower = weighted[n - 1] - (weighted[n - 2] if n > 1 else 0.0)
        rows.append(EntropyBoundsRow(n, float(lower), float(upper)))
    return tuple(rows)


def entropy_bounds(params: ChannelParams, n: int,
                   cap: int = BLOCK_ENTROPY_CAP) -> tuple[float, float]:
    row = entropy_bound_table(params, n, cap=cap)[-1]
    return row.lower, row.upper


@dataclass(frozen=True)
class SmbEstimate:
    mean: float
    stderr: float
    samples: int
    word_length: int


def smb_estimate(params: ChannelParams, n: int, samples: int, rng: Rng) -> SmbEstimate:
    """Monte-Carlo entropy-rate estimate: mean of -(1/n) log nu(y) over
    simulated words.  Samples are drawn in deterministic per-task batches."""
    if n < 1 or samples < 2:
        raise ValueError("need n >= 1 and samples >= 2")
    mats = params._float_matrices
    init = np.array([float(v) for v in params.stationary_vector()])
    batch = 2048
    vals = []
    for task, start in enumerate(range(0, samples, batch)):
        count = min(batch, samples - start)
        gen = rng.task_generator(task)
        x, w = _simulate_pair(params, n, count, gen)
        y = x + w[:, 1:] - w[:, :-1]
        alpha = np.tile(init, (count, 1))
        logp = np.zeros(count)
        for i in range(n):
            t = mats[y[:, i]]
            alpha = np.einsum("bts,bs->bt", t, alpha)
            z = alpha.sum(axis=1)
            logp += np.log(z)
            alpha /= z[:, None]
        vals.append(-logp / n)
    v = np.concatenate(vals)
    return SmbEstimate(float(v.mean()), float(v.std(ddof=1) / math.sqrt(samples)),
                       samples, n)


@dataclass(frozen=True)
class CapacityResult:
    p: tuple[Fraction, ...]
    lower: float
    upper: float
    midpoint: float
    n_eval: int
    grid: int
    refine: int
    note: str = "exploratory: optimizes finite-n bounds, not the true rate"


def _simplex_grid(parts: int, denom: int) -> Iterable[tuple[Fraction, ...]]:
    for comp in itertools.product(range(denom + 1), repeat=parts - 1):
        if sum(comp) <= denom:
            rest = denom - sum(comp)
            yield tuple(Fraction(c, denom) for c in comp) + (Fraction(rest, denom),)


def capacity_search(d: int, k: int, eps: Prob, grid: int = 8, refine: int = 3,
                    n_eval: int = 5) -> CapacityResult:
    """Grid-plus-refinement search for input weights maximizing the midpoint of
    the entropy bounds at depth n_eval.  Deterministic: exhaustive grid with
    lexicographic tie-break, then local halving steps around the incumbent.
    """
    parts = k - d + 1
    if parts - 1 > 3:
        raise EnumerationCapError("capacity search supports k - d <= 3")
    if grid < parts:
        raise ValueError("grid must be at least the number of input symbols")
    eps = as_prob(eps)

    def evaluate(p: tuple[Fraction, ...]) -> tuple[float, float]:
        params = ChannelParams(d, k, p, eps)
        return entropy_bounds(params, n_eval)

    def better(cand, best):
        # higher midpoint wins; exact ties go to the lexicographically smaller p
        (pc, (lc, uc)), (pb, (lb, ub)) = cand, best
        mc, mb = (lc + uc) / 2, (lb + ub) / 2
        if mc != mb:
            return mc > mb
        return pc < pb

    best = None
    for p in sorted(_simplex_grid(parts, grid)):
        if any(w == 0 for w in p):
            continue  # zero weights leave input symbols unused; skip
        cand = (p, evaluate(p))
        if best is None or better(cand, best):
            best = cand
    if best is None:
        raise ValueError("grid too coarse: no interior point")
    step = Fraction(1, grid)
    for _ in range(refine):
        step /= 2
        p0 = best[0]
        seen = set()
        for delta in itertools.product((-step, Fraction(0), step), repeat=parts):
            if sum(delta) != 0:
                continue
            q = tuple(a + b for a, b in zip(p0, delta))
            if any(w <= 0 for w in q) or q in seen:
                continue
            seen.add(q)
            cand = (q, evaluate(q))
            if better(cand, best):
                best = cand
    p, (lower, upper) = best
    return CapacityResult(p, lower, upper, (lower + upper) / 2, n_eval, grid, refine)
