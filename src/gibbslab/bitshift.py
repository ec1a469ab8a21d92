"""Bit-shift jitter channel: y_i = x_i + w_i - w_{i-1}.

Inputs x_i are i.i.d. on {d, ..., k}; the jitter w_i is i.i.d. on {-1, 0, +1}
with P(w = +-1) = eps.  The output lives on {0, ..., k+2}.  The channel has a
hidden state (the previous jitter value), so output cylinder probabilities come
from a three-state forward recursion; the state before a window is integrated
against the jitter distribution, which makes the output law stationary.

The output word "00" is forbidden: y_i = 0 forces x_i = d, w_i = -1 and
w_{i-1} = +1 (for d = 2), and two consecutive forced jitters contradict.
More interestingly, the run [0, 2, 2, ..., 2] has exactly one preimage chain,
so its probability is a pure power, eps (p2 eps)^(n+1), while a jitter chain
under [2, ..., 2] can only step down, from +1 towards -1, each step spending
an input above 2.  For eps < 1/3 the all-zero chain, weight (p2 (1 - 2 eps))^n,
outweighs the rest, and the conditional of 0 given 2^n decays exponentially,
by a factor eps / (1 - 2 eps) per symbol.  For eps > 1/3 about n chains of
order (p2 eps)^n carry [2^n], and the conditional decays only like 1/n, too
slowly for any Bowen-type envelope.
"""
from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import (
    Alphabet,
    EnumerationCapError,
    MeasureProvider,
    Prob,
    Rng,
    _cylinder_fold,
    _fold_log,
    _fold_quotient,
    _left_sum,
    _symbols,
    as_prob,
    check_finite,
    check_weight_vector,
    format_prob,
    integer_scaled,
    is_exact,
    prefix_walk,
)

if TYPE_CHECKING:
    import numpy as np

JITTER = (-1, 0, 1)
BLOCK_ENTROPY_CAP = 12
CAPACITY_EVAL_CAP = 10_000  # entropy_bounds calls one capacity_search may make
BLOCK_WORD_CAP = 8  # longest word block_distribution lists
BLOCK_ROWS = 16_384  # float numpy blocks hold <= 3 * BLOCK_ROWS doubles (384 KB, cache-sized)
TINY = 2.0 ** -64  # a float forward vector whose sum falls below this is rescaled
_LEAF = {False: _left_sum, True: sum}  # exact -> the sum that closes a forward vector
_SCRATCH = threading.local()  # .pair: this thread's float64 scratch pair (_scratch)


@dataclass(frozen=True)
class ChannelParams:
    """Input alphabet {d..k} with weights p, jitter strength eps."""

    d: int
    k: int
    p: tuple[Prob, ...]
    eps: Prob

    def __post_init__(self):
        for name in ("d", "k"):  # read as symbols are: 2.0 is 2, a bool is no int
            object.__setattr__(self, name, _symbols((getattr(self, name),), name)[0])
        if self.d < 2:
            raise ValueError("d must be >= 2 (otherwise outputs go negative)")
        if self.k <= self.d:
            raise ValueError("k must exceed d")
        object.__setattr__(self, "p", tuple(as_prob(w) for w in self.p))
        object.__setattr__(self, "eps", as_prob(self.eps))
        if len(self.p) != self.k - self.d + 1:
            raise ValueError(f"need {self.k - self.d + 1} input weights")
        check_weight_vector(self.p, "input weights")
        check_finite((self.eps,), "eps")
        if not (0 <= self.eps < Fraction(1, 2)):
            raise ValueError("eps must lie in [0, 1/2)")

    @cached_property
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
    def _kernel(self) -> tuple:
        """(fold, step) of the forward recursion on _forward_model's
        matrices, built on first use from the kernel compiled for their
        zero patterns (_kernel_source), dense patterns first.
        fold(alpha, ys) -> (alpha, e) steps alpha along the symbols ys,
        alpha 2^e being the stepped vector: a float vector whose sum falls
        below TINY is divided by the power of two that brings the sum into
        [1, 2).  step(alpha, y) is alpha stepped by y, or None once it is zero."""
        mats = self._forward_model[1]
        masks = [sum(1 << j for j, v in enumerate(m) if v) for m in mats]
        patterns = tuple(sorted(set(masks), key=lambda mask: (-mask.bit_count(), mask)))
        ids = {mask: i for i, mask in enumerate(patterns)}
        table = [(ids[mask], tuple(v for v in m if v)) for mask, m in zip(masks, mats)]
        return _kernel_maker(patterns, self.exact)(table)

    @cached_property
    def _outputs(self) -> frozenset[int]:
        return frozenset(self.output_symbols)

    @cached_property
    def _support_masks(self) -> tuple[list, list]:
        """(nxt, pre) for is_admissible, built once per instance, every
        weight treated as positive: output y steps jitter state s to t when
        d <= y - t + s <= k.  A mask holds bit j for JITTER[j]; nxt[y][mask]
        is the mask of the states y steps some state of mask to, and
        pre[y][j] the mask of the states y steps to JITTER[j]."""
        d, k = self.d, self.k
        nxt, pre = [], []
        for y in self.output_symbols:
            steps = [[d <= y - t + s <= k for t in JITTER] for s in JITTER]
            reach = [sum(1 << j for j in range(3) if row[j]) for row in steps]
            nxt.append([(mask & 1 and reach[0]) | (mask & 2 and reach[1])
                        | (mask & 4 and reach[2]) for mask in range(8)])
            pre.append([sum(1 << i for i in range(3) if steps[i][j]) for j in range(3)])
        return nxt, pre

    @cached_property
    def _float_model(self) -> tuple[np.ndarray, np.ndarray]:
        """(init, mats) of _forward_model as read-only float arrays of shape
        (3,) and (n_sym, 3, 3), for the numpy paths; every caller shares them.
        Each entry is num / den on the model's own numbers: int / int rounds
        once, so an exact model gives float() of each Fraction entry, and a
        float model its own entries."""
        import numpy as np
        init, mats, den0, den = self._forward_model
        model = (np.array([v / den0 for v in init]),
                 np.array([[v / den for v in m] for m in mats]).reshape(-1, 3, 3))
        for a in model:
            a.flags.writeable = False
        return model


def apply_channel(x: Sequence[int], omega: Sequence[int]) -> tuple[int, ...]:
    """Channel output for input x and jitter omega; omega carries one extra
    leading entry (the jitter just before the window)."""
    if len(omega) != len(x) + 1:
        raise ValueError("omega needs exactly one more entry than x")
    for w in omega:
        if w not in JITTER:
            raise ValueError(f"jitter value {w} outside {{-1,0,1}}")
    return tuple(x[i] + omega[i + 1] - omega[i] for i in range(len(x)))


def transition_matrices(params: ChannelParams) -> dict[int, list[list[Prob]]]:
    """mats[y][t][s] = P(jitter = t) * P(input = y - t + s); states ordered -1,0,1."""
    return {y: [[params.jitter_weight(t) * params.p_of(y - t + s) for s in JITTER]
                for t in JITTER]
            for y in params.output_symbols}


def _check_word(params: ChannelParams, y: Sequence[int]) -> tuple[int, ...]:
    word = _symbols(y, "output symbol")
    if not word:
        raise ValueError("empty output word")
    if not params._outputs.issuperset(word):
        bad = next(v for v in word if not 0 <= v <= params.k + 2)
        raise ValueError(f"output symbol {bad} outside 0..{params.k + 2}")
    return word


_KERNEL = """\
def make(table):
    def fold(alpha, ys):
        a0, a1, a2 = alpha
        e = 0
        for i, m in map(table.__getitem__, ys):
{fold_step}
        return (a0, a1, a2), e

    def step(alpha, y):
        a0, a1, a2 = alpha
        i, m = table[y]
{step}
        return (a0, a1, a2) if a0 or a1 or a2 else None

    return fold, step
"""

# each entry is at most the rounded sum, so this is `0 < a0 + a1 + a2 < TINY`,
# mostly decided by the first compare
_RESCALE = [
    "if a0 < TINY and a1 < TINY and a2 < TINY and 0 < a0 + a1 + a2 < TINY:",
    "    k = frexp(a0 + a1 + a2)[1] - 1",
    "    a0, a1, a2 = ldexp(a0, -k), ldexp(a1, -k), ldexp(a2, -k)",
    "    e += k",
]


def _kernel_source(patterns: tuple[int, ...], exact: bool) -> str:
    """Source of make(table) -> (fold, step), the forward recursion on
    symbol matrices whose zero patterns are patterns: bit 3t + s of a
    pattern is set where entry [t][s] is nonzero, and table[y] is
    (i, (c...)) for the symbol of patterns[i], its nonzero entries in
    row-major order.  Each row keeps only its nonzero terms, added left to
    right; an omitted term is a +0 of the mode's type on a nonnegative
    vector, so the bits are the dense loop's, and a row with no terms is
    the mode's zero.  Only patterns and exact reach the text."""
    lines = []
    for i, mask in enumerate(patterns):
        live = [j for j in range(9) if mask >> j & 1]
        rows = [" + ".join(f"c{j} * a{j % 3}" for j in live if j // 3 == t)
                or ("0" if exact else "0.0") for t in range(3)]
        names = ", ".join(f"c{j}" for j in live) + "," * (len(live) == 1)
        body = [f"{names} = m"] if live else []
        body.append(f"a0, a1, a2 = {', '.join(rows)}")
        # dispatch on the pattern id, dense patterns first; there are at least
        # two: symbol 0 has no entry but [0][2], and y = x of a positive p(x) has [1][1]
        last = i == len(patterns) - 1
        lines.append("else:" if last else f"{'elif' if i else 'if'} i == {i}:")
        lines += ["    " + line for line in body]
    fold_step = lines if exact else lines + _RESCALE
    return _KERNEL.format(fold_step="\n".join(" " * 12 + line for line in fold_step),
                          step="\n".join(" " * 8 + line for line in lines))


@lru_cache(maxsize=32)
def _kernel_maker(patterns: tuple[int, ...], exact: bool):
    """make of _kernel_source, compiled once per pattern set and mode."""
    namespace = {"TINY": TINY, "frexp": math.frexp, "ldexp": math.ldexp}
    exec(compile(_kernel_source(patterns, exact), "<bitshift kernel>", "exec"), namespace)
    return namespace["make"]


def _close(params: ChannelParams, word: Sequence[int]) -> tuple:
    """(j, den, e), probability j 2^e / den, of BitShiftMeasure's fold."""
    init, _, den0, den = params._forward_model
    alpha, e = params._kernel[0](init, word)
    return _LEAF[params.exact](alpha), den0 * den ** len(word), e


def cylinder_prob(params: ChannelParams, y: Sequence[int]) -> Prob:
    """Output-cylinder probability, with BitShiftMeasure.prob's bits in both modes."""
    return _fold_quotient(_close(params, _check_word(params, y)))


def cylinder_log_prob(params: ChannelParams, y: Sequence[int]) -> float:
    """log cylinder_prob, with BitShiftMeasure.log_prob's bits: finite where it underflows."""
    return _fold_log(_close(params, _check_word(params, y)), "output word")


@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    x: tuple[int, ...] | None
    omega: tuple[int, ...] | None


def is_admissible(params: ChannelParams, y: Sequence[int]) -> AdmissibilityResult:
    """Structural admissibility (all weights treated as positive), with witness.

    Runs the support version of the forward recursion, one _support_masks
    lookup per symbol, then backtracks from the last symbol, taking the
    least state that steps to the one after it, into a preimage (x, omega).
    """
    word = _check_word(params, y)
    nxt, pre = params._support_masks
    masks = [7]  # masks[i]: the states a chain can be in before symbol i
    for v in word:
        masks.append(nxt[v][masks[-1]])
    mask = masks[-1]
    if not mask:  # an empty mask stays empty
        return AdmissibilityResult(False, None, None)
    chain = []
    for v, prev in zip(reversed(word), masks[-2::-1]):
        t = JITTER[(mask & -mask).bit_length() - 1]  # the state of mask's lowest bit
        chain.append(t)
        mask = prev & pre[v][t + 1]  # JITTER[t + 1] is t
    chain.append(JITTER[(mask & -mask).bit_length() - 1])
    omega = tuple(reversed(chain))
    x = tuple(word[i] - omega[i + 1] + omega[i] for i in range(len(word)))
    return AdmissibilityResult(True, x, omega)


def simulate(params: ChannelParams, n: int, rng: Rng) -> np.ndarray:
    """Sample one output word of length n (input and jitter drawn i.i.d.)."""
    import numpy as np
    return _simulate(params, n, 1, rng.generator())[0].astype(np.int64)


def _scratch(size: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's pair (a, b) of flat float64 scratch buffers, each of at
    least size doubles, for the transient products of the numpy paths.  A
    pair is kept for the thread's life and replaced only by a larger one, so
    a sweep or a sampler reuses the same memory call after call instead of
    allocating, freeing and faulting it in again chunk after chunk.  Their
    contents are whatever the last user left: a caller writes before it reads."""
    pair = getattr(_SCRATCH, "pair", None)
    if pair is None or pair[0].size < size:
        import numpy as np
        pair = _SCRATCH.pair = (np.empty(size), np.empty(size))
    return pair


def _simulate(params: ChannelParams, n: int, count: int, gen) -> np.ndarray:
    """count output words of length n, one per row, drawn from gen as small
    unsigned ints: all count * n input draws, then all count * (n + 1)
    jitter draws, each in blocks of at most 3 * BLOCK_ROWS doubles, drawn
    into the thread's first scratch buffer (_scratch).  A draw
    u picks the symbol whose cdf interval holds it, counted as the number of
    cdf steps c <= u added into the words; a jitter adds its count to the
    output on its left and subtracts it from the one on its right (its -1
    offset cancels), and no partial sum leaves [0, k + 2]."""
    Rng.check_draws(count, n + 1)
    import numpy as np
    x_cdf = np.cumsum([float(w) for w in params.p])
    w_cdf = np.cumsum([float(params.jitter_weight(w)) for w in JITTER])
    dtype = np.min_scalar_type(params.k + 2)
    y = np.full((count, n), params.d, dtype=dtype)
    w = np.zeros((count, n + 1), dtype=dtype)
    block = 3 * BLOCK_ROWS
    u = _scratch(block)[0]
    for counts, cdf in ((y.reshape(-1), x_cdf), (w.reshape(-1), w_cdf)):
        for start in range(0, counts.size, block):
            part = counts[start:start + block]
            draws = gen.random(out=u[:part.size])
            for c in cdf[:-1]:
                part += draws >= c
    y += w[:, 1:]
    y -= w[:, :-1]
    return y


class BitShiftMeasure(MeasureProvider):
    """Stationary output law of the channel, as a cylinder-measure provider."""

    def __init__(self, params: ChannelParams):
        self.params = params
        self.alphabet = Alphabet(params.output_symbols)
        self.label = (f"bitshift(d={params.d},k={params.k},"
                      f"eps={format_prob(params.eps)})")

    def _walker(self, lo: int) -> tuple:
        """(start, step, close) of the forward recursion over output words
        on [lo, hi], on the numbers of cylinder_prob: a prefix's state is
        its forward vector, dropped once it is zero (the kernel's step), and
        close(hi) gives a word's numerator as the vector's sum over
        den0 * den^(hi - lo + 1)."""
        init, _, den0, den = self.params._forward_model
        leaf = _LEAF[self.params.exact]
        return init, self.params._kernel[1], lambda hi: (leaf, den0 * den ** (hi - lo + 1))

    def _fold(self, alpha: tuple, step, word: Sequence[int], i: int, n: int) -> tuple:
        """The kernel's fold along word[i:n], with a float model's lazy rescale."""
        return self.params._kernel[0](alpha, word[i:n])


@dataclass(frozen=True)
class BadConfigRow:
    n: int
    p_joint: Prob       # nu([0, 2^n])
    p_run: Prob         # nu([2^n])
    conditional: Prob   # nu(0 | 2^n)
    scaled: Prob        # n * conditional


def bad_config_table(params: ChannelParams, n_max: int) -> tuple[BadConfigRow, ...]:
    """Decay table for nu(0 | 2^n), the one-sided conditional of a 0 given
    the run of n 2s to its right (2 and 3 must be inputs), from rescaled
    folds along 2^n_max and [0, 2^n_max], finite in float mode past underflow.

    For eps < 1/3 it decays exponentially, by about eps / (1 - 2 eps) per
    row, and the n * nu(0 | 2^n) column goes to 0; for eps > 1/3 it decays
    like 1/n, the column stays away from 0, and nu([2^n]) has the order of
    its lower bound n p2^(n-1) p3 eps^(n+1).  Gibbsianity asks two-sided
    questions, and the two-sided gap at 2^n (the law of y_0 given 2^n on
    both sides, over boundary words) goes the other way: it stays away from
    0 at eps <= 1/4 and fades like 1/n at eps = 2/5.
    """
    if not (params.d <= 2 <= params.k and params.d <= 3 <= params.k):
        raise ValueError("table needs symbols 2 and 3 in the input alphabet")
    nu = BitShiftMeasure(params)
    run = _cylinder_fold(nu, 1, (2,) * n_max)
    joint = _cylinder_fold(nu, 0, (0,) + (2,) * n_max)
    rows = []
    for n in range(1, n_max + 1):
        r, j = run(n), joint(n)
        cond = _fold_quotient(j, r, nu.label)
        rows.append(BadConfigRow(n, _fold_quotient(j), _fold_quotient(r), cond, n * cond))
    return tuple(rows)


def block_distribution(params: ChannelParams, n: int) -> dict[tuple[int, ...], Prob]:
    """Distribution over admissible length-n output words, from one walk that
    steps each distinct forward vector once and prunes zero ones.  An exact
    walk stops one site short and closes the last site itself, with the
    integer column sums of each symbol's matrix (the C1 of _sweep_sums); a
    float one steps it, as column sums round differently."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > BLOCK_WORD_CAP:
        raise EnumerationCapError(f"block distribution capped at n <= {BLOCK_WORD_CAP}")
    start, step, close = BitShiftMeasure(params)._walker(1)
    leaf, den = close(n)
    if not params.exact:
        return next(prefix_walk(params.output_symbols, n, start, step,
                                {n: lambda alpha: leaf(alpha) / den}))
    quotient = cache(lambda v: Fraction(v, den))  # one Fraction per distinct numerator
    cols = [((y,), m[0] + m[3] + m[6], m[1] + m[4] + m[7], m[2] + m[5] + m[8])
            for y, m in zip(params.output_symbols, params._forward_model[1])]

    def last(alpha):
        a0, a1, a2 = alpha
        return [(s, quotient(v)) for s, c0, c1, c2 in cols if (v := c0 * a0 + c1 * a1 + c2 * a2)]

    walk = prefix_walk(params.output_symbols, n - 1, start, step, {n - 1: last})
    ends = next(walk) if n > 1 else {(): last(start)}
    return {word + s: v for word, end in ends.items() for s, v in end}


def _neg_entropy_sum(w: np.ndarray, terms: np.ndarray) -> float:
    """-sum of w log w over the entries of w, zeros contributing nothing: a
    zero is read as the least subnormal, whose log times 0 adds -0.0, so no
    copy of the positive entries is made.  The terms are formed in place in
    terms, an array of w's shape that does not overlap it."""
    import numpy as np
    np.maximum(w, math.ulp(0.0), out=terms)
    np.log(terms, out=terms)
    terms *= w
    return -float(terms.sum())


def _sweep_model(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(step, c1, c2), the products a sweep takes of the stacked symbol
    matrices: rows @ step lays each row's children side by side, and c1 and
    c2 hold the column sums of each M_y and of each M_y2 M_y1 (see
    _sweep_sums).  Both sweeps of one _entropy_sweeps call share them."""
    n_sym = mats.shape[0]
    # step[s, 3y + t] = M_y[t, s]
    step = mats.transpose(2, 0, 1).reshape(3, 3 * n_sym)
    # c1[s, y] and c2[s, n_sym * y1 + y2]: column s sums of M_y and of
    # M_y2 M_y1, the latter as (column sums of M_y2) M_y1
    c1 = mats.sum(axis=1).T
    c2 = (mats.transpose(0, 2, 1) @ c1).transpose(1, 0, 2).reshape(3, n_sym * n_sym)
    return step, c1, c2


def _sweep_sums(model: tuple[np.ndarray, np.ndarray, np.ndarray], init: np.ndarray,
                n: int, block_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, c, c_log_c) of one depth-first sweep from forward vector init,
    on the _sweep_model of the symbol matrices.

    Rows are forward vectors of admissible words.  Words up to length n - 2
    are materialised, one matmul against the stacked symbol matrices per
    chunk of rows.  A child with no positive entry is pruned, and a child
    c * e_s with one positive entry is closed, not expanded: its subtree is
    c times the words from state s, which _closed_levels adds from the pinned
    levels; c[l] and c_log_c[l] sum c and c log c over the children closed
    at word length l.  The last two levels are never materialised: the
    weights of a row's one- and two-symbol extensions are its products with
    the column sums C1 of each M_y and C2 of each M_y2 M_y1; zero weights add
    nothing, so nothing is pruned or closed there.  h[m] is -sum of w log w
    over the length-(m + 1) words of the expanded rows.  Rows go through in
    chunks, so no product holds more than 3 * block_rows doubles (or one
    row's products, if those are more), and every product is written into
    the thread's scratch pair (_scratch), not into a fresh array; only the
    closed weights and the expanded rows are copied out of it, before the
    level recurses into the rows it expands.  Each level keeps its
    chunks' sums and adds them exactly (math.fsum), so the chunk boundaries
    move a level by a few ulps, not by one rounding per chunk.  Traversal
    order is fixed, so float accumulation is reproducible.
    """
    import numpy as np
    h, c, c_log_c = ([[] for _ in range(n)] for _ in range(3))  # chunk sums per level
    step, c1, c2 = model
    n_sym = c1.shape[1]
    step_chunk = max(1, block_rows // n_sym)
    tail_chunk = max(1, 3 * block_rows // (n_sym * n_sym))
    a, b = _scratch(max(3 * block_rows, 3 * n_sym, n_sym * n_sym))

    def rows_of(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
        return buf[:rows * cols].reshape(rows, cols)

    # a chunk's product goes into a; w and its terms, or a tail product's terms, into b
    step_out = rows_of(a, step_chunk, 3 * n_sym)
    c1_out, c1_terms = rows_of(a, tail_chunk, n_sym), rows_of(b, tail_chunk, n_sym)
    c2_out, c2_terms = rows_of(a, tail_chunk, n_sym * n_sym), rows_of(b, tail_chunk, n_sym * n_sym)

    def sweep(rows: np.ndarray, level: int) -> None:
        if level >= n - 2:
            for start in range(0, rows.shape[0], tail_chunk):
                part = rows[start:start + tail_chunk]
                r = part.shape[0]
                h[level].append(_neg_entropy_sum(np.matmul(part, c1, out=c1_out[:r]),
                                                 c1_terms[:r]))
                if level + 1 < n:
                    h[level + 1].append(_neg_entropy_sum(np.matmul(part, c2, out=c2_out[:r]),
                                                         c2_terms[:r]))
            return
        for start in range(0, rows.shape[0], step_chunk):
            chunk = rows[start:start + step_chunk]
            children = np.matmul(chunk, step, out=step_out[:chunk.shape[0]]).reshape(-1, 3)
            a0, a1, a2 = children.T  # column adds: an axis-1 sum of 3-wide rows costs ~12x
            w = np.add(a0, a1, out=b[:a0.size])
            w += a2
            h[level].append(_neg_entropy_sum(w, b[w.size:2 * w.size]))
            live = np.add(a0 > 0.0, a1 > 0.0, dtype=np.int8) + (a2 > 0.0)
            closed = w[live == 1]
            c[level + 1].append(float(closed.sum()))
            c_log_c[level + 1].append(float(closed @ np.log(closed)))
            expand = children[live > 1]  # a copy: the recursion overwrites a and b
            del live, closed  # the recursion holds only expand
            sweep(expand, level + 1)

    sweep(init.reshape(1, 3), 0)
    return tuple(np.array([math.fsum(v) for v in sums]) for sums in (h, c, c_log_c))


def _closed_levels(sums: tuple[np.ndarray, np.ndarray, np.ndarray], sigma: float,
                   pinned: np.ndarray | None = None) -> np.ndarray:
    """H_1..H_n from a sweep's sums, adding each closed row's subtree.

    The words u v below a row c * e_s closed at word length l weigh c P_s(v),
    and P_s gives the block entropies and masses of the sweep pinned in state
    0 (the shift bijection of entropy_bound_table), so the row adds
    c H^pin_j - (c log c) S_j to H_(l + j).  Every state puts the same
    one-step mass sigma on the outputs (a state only shifts them), so
    S_j = sigma^j; sigma is 1 only up to how p and eps sum, so it is
    carried.  pinned is H^pin; None solves the pinned sweep for its own
    levels, each from the lower ones (l >= 1).  The n <= cap levels are
    closed on Python floats, which costs less than numpy calls at this size.
    """
    import numpy as np
    h, c, c_log_c = (a.tolist() for a in sums)
    pin = h if pinned is None else pinned.tolist()
    for m in range(1, len(h)):
        h[m] += _left_sum(c[l] * pin[m - l] - c_log_c[l] * sigma ** (m - l + 1)
                          for l in range(1, m + 1))
    return np.array(h)


def _entropy_sweeps(mats: np.ndarray, init: np.ndarray, n: int,
                    block_rows: int = BLOCK_ROWS) -> tuple[np.ndarray, np.ndarray]:
    """(H_1..H_n from forward vector init, H_1..H_n pinned in state 0).

    The pinned sweep runs first and closes on its own lower levels; the sweep
    from init then closes on the pinned levels.
    """
    import numpy as np
    sigma = float(mats[:, :, 1].sum())  # the one-step mass from state 0
    model = _sweep_model(mats)
    start = np.array([0.0, 1.0, 0.0])  # the forward vector of the empty word in jitter state 0
    pinned = _closed_levels(_sweep_sums(model, start, n, block_rows), sigma)
    return _closed_levels(_sweep_sums(model, init, n, block_rows), sigma, pinned), pinned


def _check_entropy_depth(n: int, cap: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise EnumerationCapError(
            f"block entropy at n={n} exceeds cap {cap} "
            f"(cost grows like the expanded rows, ~ 3.4^n at k=3)")


def entropy_levels(params: ChannelParams, n: int,
                   cap: int = BLOCK_ENTROPY_CAP) -> np.ndarray:
    """Block entropies H_1..H_n of the stationary output law, in nats, from
    the stationary sweep closed on the pinned one (_entropy_sweeps)."""
    _check_entropy_depth(n, cap)
    init, mats = params._float_model
    return _entropy_sweeps(mats, init, n)[0]


def block_entropy(params: ChannelParams, n: int) -> float:
    return float(entropy_levels(params, n)[n - 1])


@dataclass(frozen=True)
class EntropyBoundsRow:
    n: int
    lower: float
    upper: float


def entropy_bound_table(params: ChannelParams, n_max: int,
                        cap: int = BLOCK_ENTROPY_CAP) -> tuple[EntropyBoundsRow, ...]:
    """Conditional-entropy bounds bracketing the entropy rate (Cover & Thomas,
    Thm 4.5.1), from the two sweeps of entropy_levels.

    upper(n) = H_n - H_{n-1} is nonincreasing and >= h; conditioning on the
    pre-window jitter state S severs the past, so lower(n), the jitter-averaged
    H(Y_n | Y_1..Y_{n-1}, S), is nondecreasing and <= h.  The sweep pinned in
    state 0 gives the average: from state s the first output is
    x_1 + w_1 - s, so s only shifts the first symbol by -s, a bijection on
    words, and H(Y_1..Y_n | S = s) is the same for every s.  The same
    bijection lets either sweep close a row c * e_s from the pinned levels.
    """
    _check_entropy_depth(n_max, cap)
    init, mats = params._float_model
    levels, pinned = _entropy_sweeps(mats, init, n_max)
    rows = []
    for n in range(1, n_max + 1):
        upper = levels[n - 1] - (levels[n - 2] if n > 1 else 0.0)
        lower = pinned[n - 1] - (pinned[n - 2] if n > 1 else 0.0)
        rows.append(EntropyBoundsRow(n, float(lower), float(upper)))
    return tuple(rows)


def entropy_bounds(params: ChannelParams, n: int) -> tuple[float, float]:
    row = entropy_bound_table(params, n)[-1]
    return row.lower, row.upper


@dataclass(frozen=True)
class SmbEstimate:
    mean: float
    stderr: float
    samples: int
    word_length: int


def smb_estimate(params: ChannelParams, n: int, samples: int, rng: Rng) -> SmbEstimate:
    """Monte-Carlo entropy-rate estimate: mean of -(1/n) log nu(y) over
    simulated words, drawn in deterministic per-task batches.  Each batch steps
    the float model in column layout, dividing by each sum z and adding log z."""
    if n < 1 or samples < 2:
        raise ValueError("need n >= 1 and samples >= 2")
    import numpy as np
    init, mats = params._float_model
    flat = mats.reshape(-1, 9).T  # column s: the row-major matrix of symbol s
    batch = 2048
    vals = []
    for task, start in enumerate(range(0, samples, batch)):
        count = min(batch, samples - start)
        y = _simulate(params, n, count, rng.task_generator(task))
        a, logp = [np.full(count, v) for v in init], 0.0
        for m in (flat.take(col, axis=1) for col in y.T):
            a = [m[t] * a[0] + m[t + 1] * a[1] + m[t + 2] * a[2] for t in (0, 3, 6)]
            z = a[0] + a[1] + a[2]
            logp += np.log(z)
            a = [v / z for v in a]
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
    Raises EnumerationCapError, before any point is enumerated, when the
    interior grid points plus refine rounds of moves exceed CAPACITY_EVAL_CAP.
    """
    parts = k - d + 1
    if parts - 1 > 3:
        raise EnumerationCapError("capacity search supports k - d <= 3")
    if grid < parts:
        raise ValueError("grid must be at least the number of input symbols")
    # every interior grid point, then each round's moves around the incumbent
    deltas = [delta for delta in itertools.product((-1, 0, 1), repeat=parts)
              if sum(delta) == 0 and any(delta)]
    evaluations = math.comb(grid - 1, parts - 1) + refine * len(deltas)
    if evaluations > CAPACITY_EVAL_CAP:
        raise EnumerationCapError(
            f"capacity search with grid={grid}, refine={refine} over {parts} inputs "
            f"needs up to {evaluations} evaluations, over cap {CAPACITY_EVAL_CAP}")
    eps = as_prob(eps)

    def evaluate(p: tuple[Fraction, ...]) -> tuple[float, float]:
        params = ChannelParams(d, k, p, eps)
        return entropy_bounds(params, n_eval)

    def rank(cand):
        # higher midpoint wins; exact ties go to the lexicographically smaller p
        p, (lower, upper) = cand
        return -(lower + upper) / 2, p

    # zero weights leave input symbols unused; skip them
    interior = [p for p in _simplex_grid(parts, grid) if all(w > 0 for w in p)]
    best = min(((p, evaluate(p)) for p in interior), key=rank)
    step = Fraction(1, grid)
    for _ in range(refine):
        step /= 2
        p0 = best[0]
        moves = [tuple(a + step * b for a, b in zip(p0, delta)) for delta in deltas]
        best = min([best] + [(q, evaluate(q)) for q in moves if all(w > 0 for w in q)],
                   key=rank)
    p, (lower, upper) = best
    return CapacityResult(p, lower, upper, (lower + upper) / 2, n_eval, grid, refine)
