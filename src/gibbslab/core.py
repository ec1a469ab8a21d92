"""Shared primitives: alphabets, windows, configurations, cylinder measures.

Probabilities travel in one of two modes.  Rational mode hands out
`fractions.Fraction`s (forward recursions step integer numerators over a
common denominator inside, see `integer_scaled`), so marginalization
identities hold exactly and tests can compare with `==`.  Float mode uses
IEEE doubles.  Mode is carried by the values themselves (Fraction vs float),
not by a global switch.  Each measure is one walker per first site lo
(`MeasureProvider._walker(lo)`): a start state, a step(state, symbol)
that takes a prefix to its one-symbol extension, and a close that gives
each window [lo, hi] its leaf and denominator.  The step is told nothing
of where it is: a provider whose step depends on the site keeps the site
in its state.  `prob` folds the step along one word and closes once, one
walk steps each distinct state once per site and closes every window from
lo it passes (`prefix_walk`), and `regularity_probe` fetches one walker
per fold, folds it once along a growing word and closes it at every n.
Every cylinder fold (`prob`, `log_prob`, `density_ratio` and the
conditionals) steps through the provider's `_fold`, if it names one: a
float provider whose states can underflow rescales them by powers of two.
"""
from __future__ import annotations

import enum
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

Prob = Fraction | float

FLOAT_TOL = 1e-12

# cap on the words one whole-window distribution may list
WORD_CAP = 1 << 21
DRAW_CAP = 1 << 28  # cap on the bytes one array of random draws may take


class ZeroProbabilityError(ArithmeticError):
    """Conditioning event has probability zero.

    Distinct from invalid input: the query was well formed, the measure just
    puts no mass on the conditioning cylinder.
    """


class EnumerationCapError(RuntimeError):
    """Requested enumeration exceeds the configured cap."""


def is_exact(x: Prob) -> bool:
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


def as_prob(x) -> Prob:
    """Coerce a number (or 'num/den' / decimal string) into Fraction or float."""
    if isinstance(x, bool):
        raise TypeError("bool is not a probability")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return x + 0.0  # -0.0 becomes 0.0, so equal weights share their bits
    if isinstance(x, str):
        return Fraction(x)  # accepts "3/4", "0.25", "2"
    raise TypeError(f"cannot interpret {x!r} as a probability")


def check_finite(values: Iterable[Prob], what: str) -> None:
    """Reject NaN and infinite weights, which every `<`, `>` and `!=` range
    test lets through (NaN compares False both ways)."""
    for v in values:
        if not is_exact(v) and not math.isfinite(v):
            raise ValueError(f"{what} must be finite, got {v!r}")


def check_weight_vector(weights: Sequence[Prob], what: str) -> None:
    """Reject a weight vector that is not a probability vector: an entry that
    is not finite or is negative, or a total other than 1 (exactly when every
    entry is exact, within FLOAT_TOL otherwise)."""
    check_finite(weights, what)
    for w in weights:
        if w < 0:
            raise ValueError(f"{what} must be non-negative, got {w!r}")
    total = sum(weights)  # exact only when every entry is
    if total != 1 if is_exact(total) else abs(total - 1.0) > FLOAT_TOL:
        raise ValueError(f"{what} sum to {total}, expected 1")


def integer_scaled(values: Sequence[Prob], exact: bool) -> tuple[list, int | float]:
    """(nums, den) with nums[i] / den == values[i], for forward recursions.

    Exact: each value's rational value (a float reads as the dyadic rational
    it stores) times the least common denominator, as an int, so a recursion
    over them steps Python ints and divides once at the end.  Float: the
    values as floats over 1.0; multiplying and dividing by 1.0 is exact, so
    the same recursion gives the same float bits as one on the raw values.
    """
    if not exact:
        return [float(v) for v in values], 1.0
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _left_sum(values: Iterable, start=0) -> Prob:
    """start + v0 + v1 + ..., added left to right as sum() adds on Python 3.11.
    From 3.12 sum() compensates float additions, which rounds differently."""
    return reduce(operator.add, values, start)


def scaled_quotient(num: int | float, den: int | float) -> Prob:
    """num / den for sums over integer_scaled weights: one lowest-terms
    Fraction for an int den, a float division otherwise."""
    return Fraction(num, den) if isinstance(den, int) else num / den


def scaled_quotients(nums: Mapping, den: int | float) -> dict:
    """scaled_quotient of every value of nums over one den, keys kept.  For
    an int den each distinct numerator becomes one Fraction, which every key
    holding it shares (a window's words hold far fewer distinct numerators
    than words)."""
    if isinstance(den, int):
        fracs = {v: Fraction(v, den) for v in set(nums.values())}
        return {k: fracs[v] for k, v in nums.items()}
    return {k: v / den for k, v in nums.items()}


def prefix_walk(symbols: Sequence[int], n: int, start, step, leaves: Mapping,
                last=None) -> Iterator[dict]:
    """Yield {word: leaves[l](state)} for each l in 1..n that leaves maps, in
    order: the words of length l over symbols, lexicographic, where a word's
    state is step(...step(start, w[0])..., w[l - 1]).  A step that returns
    None drops that prefix and all its extensions.  last, if given, closes
    the last site instead: last(state) lists ((s,), value) for the live
    extensions of a state one site short.

    The walk goes one site at a time and numbers the distinct states at each
    site: step runs once per distinct state and symbol, each prefix carries
    only its state's number, and a leaf runs once per distinct state of its
    level.  States must be hashable, and states that compare equal must be
    interchangeable (same type and bits), since one stands for all."""
    states, level = [start], [((), 0)]  # level: (word, number of its state)
    for l in range(1, n + 1):
        if l == n and last is not None:  # close the states one site short
            ends = list(map(last, states))
            yield {word + s: v for word, j in level for s, v in ends[j]}
            return
        ids: dict = {}
        moves = [[((s,), ids.setdefault(nxt, len(ids))) for s in symbols
                  if (nxt := step(state, s)) is not None]
                 for state in states]
        states = list(ids)
        if l == n:  # the last level's words go straight into the result
            values = list(map(leaves[n], states))
            yield {word + s: values[k] for word, j in level for s, k in moves[j]}
            return
        level = [(word + s, k) for word, j in level for s, k in moves[j]]
        if l in leaves:
            values = list(map(leaves[l], states))
            yield {word: values[k] for word, k in level}


def format_prob(x: Prob) -> str:
    """Serialize: rationals as num/den in lowest terms, floats shortest round-trip."""
    if is_exact(x):
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    return repr(float(x))


def parse_prob(text: str) -> Prob:
    text = text.strip()
    try:
        return Fraction(text)
    except ValueError:
        return float(text)


def _symbols(values: Iterable, what: str = "symbol") -> tuple[int, ...]:
    """values as a tuple of int symbols: numpy integers and integral floats
    such as 2.0 read as ints, and anything else (a bool, a str, 2.5) is a
    TypeError that names it.  A word of plain ints needs no per-symbol pass."""
    word = tuple(values)
    if {int}.issuperset(map(type, word)):
        return word
    for v in word:
        if not (isinstance(v, float) and v.is_integer() or (
                isinstance(v, numbers.Integral) and not isinstance(v, bool))):
            raise TypeError(f"{what} {v!r} is not an integer")
    return tuple(map(int, word))


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered symbol set.  Symbols are small ints."""

    symbols: tuple[int, ...]

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    def __contains__(self, s) -> bool:
        return s in self.symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)


BINARY = Alphabet((0, 1))


@dataclass(frozen=True)
class Window:
    """Closed integer interval [lo, hi], both ends inclusive."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window [{self.lo},{self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, i: int) -> bool:
        return self.lo <= i <= self.hi

    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    def contains_window(self, other: "Window") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


class Tail(enum.Enum):
    """Convention for sites beyond a configuration's window."""

    ZERO_FILL = "zero-fill"
    UNSPECIFIED = "unspecified"


@dataclass(frozen=True)
class Configuration:
    """Symbols on a window, plus a convention for everything outside it.

    ZERO_FILL configurations stand for a fully specified point of the product
    space (symbol 0 everywhere outside the window); UNSPECIFIED ones are plain
    cylinder supports.
    """

    alphabet: Alphabet
    window: Window
    values: tuple[int, ...]
    tail: Tail = Tail.UNSPECIFIED

    def __post_init__(self):
        if len(self.values) != self.window.size:
            raise ValueError(
                f"{len(self.values)} values for window of size {self.window.size}"
            )
        object.__setattr__(self, "values", _symbols(self.values))
        for v in self.values:
            if v not in self.alphabet:
                raise ValueError(f"symbol {v!r} not in alphabet {self.alphabet.symbols}")
        if self.tail is Tail.ZERO_FILL and 0 not in self.alphabet:
            raise ValueError("zero-fill tail requires 0 in the alphabet")

    def value_at(self, i: int) -> int:
        if i in self.window:
            return self.values[i - self.window.lo]
        if self.tail is Tail.ZERO_FILL:
            return 0
        raise KeyError(f"site {i} outside window [{self.window.lo},{self.window.hi}] "
                       "and tail is unspecified")

    def defined_at(self, i: int) -> bool:
        return i in self.window or self.tail is Tail.ZERO_FILL

    def restrict(self, lo: int, hi: int) -> "Configuration":
        """Restriction to [lo, hi]; may reach into a zero-fill tail."""
        win = Window(lo, hi)
        vals = tuple(self.value_at(i) for i in win.indices())
        tail = self.tail if (self.tail is Tail.ZERO_FILL and hi >= self.window.hi) \
            else Tail.UNSPECIFIED
        return Configuration(self.alphabet, win, vals, tail)


def config(alphabet: Alphabet, lo: int, values: Sequence[int],
           tail: Tail = Tail.UNSPECIFIED) -> Configuration:
    vals = tuple(values)
    return Configuration(alphabet, Window(lo, lo + len(vals) - 1), vals, tail)


def binary_config(values: Sequence[int] | str, lo: int = 0,
                  tail: Tail = Tail.ZERO_FILL) -> Configuration:
    if isinstance(values, str):
        values = [int(c) for c in values]
    return config(BINARY, lo, values, tail)


def glue(left: Configuration, right: Configuration) -> Configuration:
    """Join two configurations on adjacent windows, over one alphabet, into
    one on the union of their windows.  They may come in either order; the
    joined configuration takes the right-hand piece's tail."""
    if left.alphabet != right.alphabet:
        raise ValueError("alphabet mismatch between glued pieces")
    if right.window.lo < left.window.lo:
        left, right = right, left
    a, b = left.window, right.window
    if a.hi >= b.lo:
        raise ValueError(f"windows overlap: [{a.lo},{a.hi}] and [{b.lo},{b.hi}]")
    if a.hi + 1 != b.lo:
        raise ValueError(f"gap between windows: [{a.lo},{a.hi}] and [{b.lo},{b.hi}]")
    return Configuration(left.alphabet, Window(a.lo, b.hi), left.values + right.values,
                         right.tail)


def _cylinder_fold(provider: MeasureProvider, lo: int, word: Sequence[int]):
    """num(hi) -> (numerator, den, e) of the cylinder word[:hi - lo + 1] on
    [lo, hi], which has probability numerator * 2^e / den, for hi that never
    decrease.  The walker is fetched once, on the first call; each call
    checks its window against the provider's support, steps the new sites
    (with one provider._fold, if it has one) and closes with close(hi)."""
    support, fold = provider.support_window, provider._fold
    state, step, close, done, e = None, None, None, 0, 0  # done: the sites stepped so far

    def num(hi: int):
        nonlocal state, step, close, done, e
        if support is not None and not support.lo <= lo <= hi <= support.hi:
            provider.check_window(Window(lo, hi))  # raises, naming both windows
        if close is None:  # only a window that passed its check fetches the walker
            state, step, close = provider._walker(lo)
        n = hi - lo + 1
        if fold is None:  # inline, no call per close: regularity_probe adds one site each
            while done < n:
                state = step(state, word[done])
                done += 1
        else:
            state, k = fold(state, step, word, done, n)
            done, e = n, e + k
        leaf, den = close(hi)
        return leaf(state), den, e

    return num


def _rescale(acc: float) -> tuple[float, int]:
    """(acc / 2^e, e) with acc / 2^e in [2^52, 2^53): times any weight w in
    [2^-1074, 1] that stays normal, so each step keeps 53 bits (at [1, 2) a
    subnormal weight's product would keep only its bits above 2^-1074)."""
    e = math.frexp(acc)[1] - 53
    return math.ldexp(acc, -e), e


def _fold_quotient(joint: tuple, given: tuple | None = None, label: str = "") -> Prob:
    """P(joint) / P(given) from two _cylinder_fold closes (given defaults to
    the sure event): a lowest-terms Fraction for two int dens, else the
    quotient of the rescaled probabilities times 2^(e_joint - e_given), which
    stays finite where both underflow and has the plain quotient's bits where
    no step leaves the normal range.  ZeroProbabilityError if given has no mass."""
    j, den_j, e_j = joint
    if given is None:
        return Fraction(j, den_j) if isinstance(den_j, int) else math.ldexp(j / den_j, e_j)
    g, den_g, e_g = given
    if g == 0:
        raise ZeroProbabilityError(f"{label}: conditioning cylinder has probability zero")
    if isinstance(den_j, int) and isinstance(den_g, int):  # equal dens cancel
        return Fraction(j, g) if den_j == den_g else Fraction(j * den_g, g * den_j)
    return math.ldexp(j / den_j / (g / den_g), e_j - e_g)


def _fold_log(close: tuple, label: str) -> float:
    """log(j 2^e / den) of a _cylinder_fold close (j, den, e), on exact ints."""
    j, den, e = close
    if j == 0:
        raise ZeroProbabilityError(f"{label}: zero-probability cylinder")
    return math.log(j) - math.log(den) + e * math.log(2)


class MeasureProvider:
    """Exact cylinder-probability source.

    Subclasses give one walker per first site, `_walker(lo) -> (start,
    step, close)`, in the arithmetic their parameters were given in; `prob`,
    `log_prob`, `distribution` and `regularity_probe` all walk it.  How a
    provider rescales a state depends on its arithmetic, not on where a
    walk starts, so it lives in the provider's `_fold`, not in a walker.
    A provider with no `support_window` takes cylinders anywhere.
    """

    alphabet: Alphabet
    label: str
    support_window: Window | None = None
    # _fold(state, step, word, i, n) -> (state, e), state 2^e being state stepped
    # along word[i:n]: a provider whose step can drop a prefix (return None) or
    # whose float states can underflow defines it; None steps the walker plainly
    _fold = None

    def _walker(self, lo: int) -> tuple:
        """(start, step, close) for the words on windows [lo, hi].
        step(state, s) is the state after symbol s is appended to the prefix
        whose state is state, or None once the prefix has no mass; a step
        that depends on the site reads it from the state.  close(hi) is
        (leaf, den) for the window [lo, hi]: leaf(state) is the probability
        of the word whose state it is, times den.  Exact providers step ints
        over an int den; the others step floats over a float den.

        States are hashable, and states that compare equal can be swapped
        for each other: same type and bits, so the same steps and leaf.
        `prefix_walk` steps one state for all the prefixes that reach an
        equal one (which is why the containers store -0.0 as 0.0).

        Only close sees hi: a state folded along a word on [lo, hi] is the
        state of that word's prefixes too, so one walker serves every window
        that starts at lo (`regularity_probe` fetches it once per fold and
        closes a growing window at each hi)."""
        raise NotImplementedError

    def prob(self, cfg: Configuration) -> Prob:
        """j * 2^e / den from one rescaled fold's close (j, den, e)."""
        self.check_config(cfg)
        return _fold_quotient(_cylinder_fold(self, cfg.window.lo, cfg.values)(cfg.window.hi))

    def log_prob(self, cfg: Configuration) -> float:
        """log(j * 2^e / den) from one rescaled fold's close (j, den, e), so
        a float word whose prob underflows keeps its finite log."""
        self.check_config(cfg)
        return _fold_log(_cylinder_fold(self, cfg.window.lo, cfg.values)(cfg.window.hi),
                         self.label)

    def check_window(self, window: Window) -> None:
        if self.support_window is not None and not self.support_window.contains_window(window):
            raise ValueError(
                f"{self.label}: window [{window.lo},{window.hi}] outside "
                f"supported [{self.support_window.lo},{self.support_window.hi}]")

    def check_config(self, cfg: Configuration) -> None:
        if cfg.alphabet != self.alphabet:
            raise ValueError(f"{self.label}: alphabet mismatch")
        self.check_window(cfg.window)

    def words(self, window: Window) -> Iterator[tuple[int, ...]]:
        """All words over the alphabet on the given window, lexicographic."""
        yield from itertools.product(self.alphabet.symbols, repeat=window.size)

    def _check_words(self, window: Window) -> None:
        """The WORD_CAP and support checks of a whole-window distribution."""
        if len(self.alphabet) ** window.size > WORD_CAP:
            raise EnumerationCapError(
                f"{len(self.alphabet)}^{window.size} words exceeds the cap")
        self.check_window(window)

    def _scaled_levels(self, lo: int, first: int, n: int) -> Iterator[tuple[dict, int | float]]:
        """(nums, den) for each window [lo, lo + l - 1], l = first..n, from one
        walk closing level l with close(lo + l - 1): every word on the window,
        lexicographic, mapped to the numerator over den of its unrescaled fold
        (`prob`'s bits wherever every state stays normal); a dropped prefix's
        words list 0.  The caller checks each window first (_check_words)."""
        start, step, close = self._walker(lo)
        closes = {l: close(lo + l - 1) for l in range(first, n + 1)}
        walk = prefix_walk(self.alphabet.symbols, n, start, step,
                           {l: leaf for l, (leaf, _) in closes.items()})
        for (l, (_, den)), nums in zip(closes.items(), walk):
            if len(nums) < len(self.alphabet) ** l:
                nums = {w: nums.get(w, 0) for w in self.words(Window(lo, lo + l - 1))}
            yield nums, den

    def distribution(self, window: Window) -> dict[tuple[int, ...], Prob]:
        """Full cylinder distribution on the window, zero entries included."""
        self._check_words(window)
        return scaled_quotients(*next(self._scaled_levels(window.lo, window.size, window.size)))


class BernoulliMeasure(MeasureProvider):
    """I.i.d. product measure with one weight per symbol.

    Zero weights are allowed (useful as a deliberately deficient reference
    measure); negative weights and a bad total are not.
    """

    def __init__(self, alphabet: Alphabet, weights: Sequence[Prob], label: str = ""):
        if len(weights) != len(alphabet):
            raise ValueError("one weight per symbol required")
        ws = [as_prob(w) for w in weights]
        check_weight_vector(ws, "weights")
        self.alphabet = alphabet
        self.weights = {s: w for s, w in zip(alphabet.symbols, ws)}
        self.exact = all(is_exact(w) for w in ws)
        self.label = label or f"bernoulli{tuple(format_prob(w) for w in ws)}"
        nums, self._den = integer_scaled(ws, self.exact)
        self._nums = dict(zip(alphabet.symbols, nums))

    def _walker(self, lo: int) -> tuple:
        """Products of integer_scaled weights over den^n, multiplied in site
        order; in float mode the weights themselves over 1.0.  A product of
        weights <= 1 cannot underflow before its final value does."""
        nums, den = self._nums, self._den
        return (den ** 0, lambda acc, s: acc * nums[s],
                lambda hi: (lambda acc: acc, den ** (hi - lo + 1)))

    def _fold(self, acc, step, word: Sequence, i: int, n: int) -> tuple:
        """The product along word[i:n]; float weights rescale it after every step."""
        e = 0
        for s in word[i:n]:
            acc = step(acc, s)
            if not self.exact:
                acc, k = _rescale(acc)
                e += k
        return acc, e


def fair_coin() -> BernoulliMeasure:
    return BernoulliMeasure(BINARY, (Fraction(1, 2), Fraction(1, 2)), "fair-coin")


class TableMeasure(MeasureProvider):
    """Finite-volume measure given by an explicit weight table on one window.

    Weights need not be normalized; queries on sub-windows marginalize.  Used
    for randomized cross-checks and tiny hand-built examples.
    """

    def __init__(self, alphabet: Alphabet, window: Window,
                 table: Mapping[tuple[int, ...], Prob], label: str = "table"):
        if set(table) != set(itertools.product(alphabet.symbols, repeat=window.size)):
            raise ValueError("table must cover every word on the window")
        ws = {w: as_prob(v) for w, v in table.items()}
        check_finite(ws.values(), "table weights")
        for w in ws.values():
            if w < 0:
                raise ValueError("negative weight")
        total = _left_sum(ws.values())
        if total == 0:
            raise ValueError("all weights zero")
        self.alphabet = alphabet
        self.support_window = window
        self.label = label
        # the weights as numerators over one den: ints over their sum when
        # every weight is exact, else the weights over their float total
        if is_exact(total):
            nums, _ = integer_scaled(list(ws.values()), True)
            self._entries, self._den, self._zero = tuple(zip(ws, nums)), sum(nums), 0
        else:
            self._entries, self._den, self._zero = tuple(ws.items()), total, 0.0

    def _walker(self, lo: int) -> tuple:
        """A prefix's state is the prefix itself.  close(hi) marginalises the
        table onto [lo, hi], one pass over the entries that adds each word's
        weights in table order, and a word's numerator is its entry there."""
        first = lo - self.support_window.lo

        def close(hi: int) -> tuple:
            cut = slice(first, hi - self.support_window.lo + 1)
            marginal: dict = {}
            get, zero = marginal.get, self._zero
            for w, x in self._entries:
                key = w[cut]
                marginal[key] = get(key, zero) + x
            return marginal.__getitem__, self._den

        return (), lambda word, s: word + (s,), close


def conditional_prob(provider: MeasureProvider, target: Configuration,
                     given: Configuration) -> Prob:
    """P(target | given) for adjacent cylinders, as P(target and given)/P(given),
    from one rescaled fold of the provider's walker along each cylinder, so
    a float conditional stays finite where both cylinders underflow."""
    joint = glue(target, given)
    provider.check_config(given)
    g = _cylinder_fold(provider, given.window.lo, given.values)(given.window.hi)
    j = _cylinder_fold(provider, joint.window.lo, joint.values)(joint.window.hi)
    return _fold_quotient(j, g, provider.label)


def tv_distance(p: Mapping, q: Mapping) -> Prob:
    """Total-variation distance as the plain L1 sum (no 1/2 factor)."""
    if set(p.keys()) != set(q.keys()):
        raise ValueError("distributions must share the same outcome set")
    keys = sorted(p.keys())
    exact = all(is_exact(p[k]) and is_exact(q[k]) for k in keys)
    acc = Fraction(0) if exact else 0.0
    for k in keys:
        acc += abs(p[k] - q[k])
    return acc


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a conditional-probability convergence probe."""

    ns: tuple[int, ...]
    values: tuple[Prob, ...]
    converged: bool
    limit: Prob | None
    failed_at: int | None  # first n whose conditioning cylinder had probability 0


def regularity_probe(provider: MeasureProvider, target: Configuration,
                     omega: Configuration, n_range: Iterable[int],
                     tol: float = 1e-6, stability_window: int = 4) -> ProbeResult:
    """Track P(target | omega on (target, n]) as the conditioning window grows.

    Verdict is a Cauchy check: converged iff every consecutive gap among the
    last `stability_window + 1` values is within `tol`; a stability_window
    below 1 or a tol that is not finite and >= 0 decides nothing and is a
    ValueError.  A zero-probability
    conditioning cylinder truncates the sequence and is reported via failed_at.

    Each value is conditional_prob(provider, target, omega on [lo, n]), from
    one rescaled fold of the provider's walker along target + omega and one
    along omega: the conditioning words are nested prefixes of one omega, so
    each n only steps its new sites and closes both cylinders.
    """
    if stability_window < 1:
        raise ValueError(f"stability_window must be >= 1, got {stability_window}")
    if not 0 <= tol < math.inf:  # NaN fails both comparisons
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    lo = target.window.hi + 1
    given: list[int] = []
    joint = list(target.values)
    given_num = _cylinder_fold(provider, lo, given)
    joint_num = _cylinder_fold(provider, target.window.lo, joint)
    ns: list[int] = []
    values: list[Prob] = []
    failed_at = None
    for n in sorted(n_range):
        if n < lo:
            raise ValueError(f"probe index {n} precedes conditioning window start {lo}")
        for i in range(lo + len(given), n + 1):
            v = omega.value_at(i)  # KeyError past an unspecified tail, as restrict raises
            given.append(v)
            joint.append(v)
        if not ns:  # the alphabets never change, so the first n checks them for all
            if target.alphabet != omega.alphabet:
                raise ValueError("alphabet mismatch between glued pieces")
            if omega.alphabet != provider.alphabet:
                raise ValueError(f"{provider.label}: alphabet mismatch")
        g = given_num(n)
        try:
            values.append(_fold_quotient(joint_num(n), g, provider.label))
        except ZeroProbabilityError:
            failed_at = n
            break
        ns.append(n)
    tail = values[-(stability_window + 1):]
    converged = (
        failed_at is None
        and len(tail) >= 2
        and all(abs(float(a) - float(b)) <= tol for a, b in zip(tail, tail[1:]))
    )
    return ProbeResult(tuple(ns), tuple(values), converged,
                       values[-1] if converged else None, failed_at)


@dataclass(frozen=True)
class Rng:
    """Deterministic random source keyed by (seed, stream).

    Equal keys give equal draw sequences; distinct stream ids give independent
    streams.  Parallel work must derive one stream per task via task_generator,
    so results never depend on scheduling.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        import numpy as np
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((self.seed, self.stream))))

    def task_generator(self, task: int) -> np.random.Generator:
        import numpy as np
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((self.seed, self.stream, task))))

    @staticmethod
    def check_draws(rows: int, cols: int) -> None:
        """EnumerationCapError, before any draw, if rows x cols 8-byte draws pass DRAW_CAP."""
        if 8 * rows * cols > DRAW_CAP:
            raise EnumerationCapError(f"{rows} x {cols} random draws need {8 * rows * cols} "
                                      f"bytes, over the cap of {DRAW_CAP}")
