"""Shared primitives: alphabets, windows, configurations, cylinder measures.

Probabilities travel in one of two modes.  Rational mode hands out
`fractions.Fraction`s (forward recursions step integer numerators over a
common denominator inside, see `integer_scaled`, and whole-window
distributions share each prefix's step, see `prefix_walk`), so marginalization
identities hold exactly and tests can compare with `==`.  Float mode uses
IEEE doubles; long products go through log space.  Mode is carried by the
values themselves (Fraction vs float), not by a global switch.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Prob = Fraction | float

# float-mode products longer than this are accumulated in log space
LOG_PRODUCT_CUTOFF = 64

FLOAT_TOL = 1e-12

# default cap on the words one whole-window distribution may list
WORD_CAP = 1 << 21


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
        return x
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


def scaled_quotient(num: int | float, den: int | float) -> Prob:
    """num / den for sums over integer_scaled weights: one lowest-terms
    Fraction for an int den, a float division otherwise."""
    return Fraction(num, den) if isinstance(den, int) else num / den


def scaled_quotients(nums: Mapping, den: int | float) -> dict:
    """scaled_quotient of every value of nums over one den, keys kept."""
    if isinstance(den, int):
        return {k: Fraction(v, den) for k, v in nums.items()}
    return {k: v / den for k, v in nums.items()}


def prefix_walk(symbols: Sequence[int], n: int, start,
                step) -> list[tuple[tuple[int, ...], object]]:
    """(word, state) for the words of length n over symbols, in lexicographic
    order, where a word's state is step(...step(start, 0, w[0])..., n - 1,
    w[n - 1]).  The walk goes one site at a time, so each prefix's state is
    computed once and shared by every word that extends it.  A step that
    returns None drops that prefix and all its extensions."""
    level = [((), start)]
    for i in range(n):
        level = [(word + (s,), nxt) for word, state in level for s in symbols
                 if (nxt := step(state, i, s)) is not None]
    return level


def format_prob(x: Prob) -> str:
    """Serialize: rationals as num/den in lowest terms, floats shortest round-trip."""
    if is_exact(x):
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    return repr(float(x))


def parse_prob(text: str) -> Prob:
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    try:
        return Fraction(text)
    except ValueError:
        return float(text)


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

    def overlaps(self, other: "Window") -> bool:
        return not (self.hi < other.lo or other.hi < self.lo)


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


def glue(inner: Configuration, middle: Configuration | None,
         outer: Configuration | Tail) -> Configuration:
    """Concatenate configurations on adjacent windows into one.

    `middle` may be None (empty).  `outer` may be a plain Tail value, meaning
    the glued configuration just adopts that tail convention past `inner` and
    `middle`.  Windows must be pairwise disjoint with a contiguous union; the
    result's tail is the rightmost piece's.
    """
    pieces = [p for p in (inner, middle) if p is not None]
    tail_override: Tail | None = None
    if isinstance(outer, Tail):
        tail_override = outer
    elif isinstance(outer, Configuration):
        pieces.append(outer)
    else:
        raise TypeError("outer must be a Configuration or a Tail")
    if not pieces:
        raise ValueError("nothing to glue")
    alphabet = pieces[0].alphabet
    for p in pieces[1:]:
        if p.alphabet != alphabet:
            raise ValueError("alphabet mismatch between glued pieces")
    pieces.sort(key=lambda p: p.window.lo)
    for a, b in zip(pieces, pieces[1:]):
        if a.window.hi >= b.window.lo:
            raise ValueError(
                f"windows overlap: [{a.window.lo},{a.window.hi}] and "
                f"[{b.window.lo},{b.window.hi}]")
        if a.window.hi + 1 != b.window.lo:
            raise ValueError(
                f"gap between windows: [{a.window.lo},{a.window.hi}] and "
                f"[{b.window.lo},{b.window.hi}]")
    values: list[int] = []
    for p in pieces:
        values.extend(p.values)
    tail = tail_override if tail_override is not None else pieces[-1].tail
    win = Window(pieces[0].window.lo, pieces[-1].window.hi)
    return Configuration(alphabet, win, tuple(values), tail)


class MeasureProvider:
    """Exact cylinder-probability source.

    Subclasses answer `prob` for any legal cylinder, in the arithmetic their
    parameters were given in, and `_scaled` for whole windows.  `stationary`
    providers accept cylinders at any location; others expose
    `support_window`.
    """

    alphabet: Alphabet
    label: str
    stationary: bool = False
    support_window: Window | None = None

    def prob(self, cfg: Configuration) -> Prob:
        raise NotImplementedError

    def _scaled(self, window: Window) -> tuple[dict, int | float]:
        """(nums, den): every word on the window, lexicographic, mapped to the
        numerator of its probability over one common denominator.  Exact
        providers give ints over an int den; the others give values whose
        quotient by den is the float `prob` returns for that word."""
        raise NotImplementedError

    def log_prob(self, cfg: Configuration) -> float:
        p = self.prob(cfg)
        if p == 0:
            raise ZeroProbabilityError(f"{self.label}: zero-probability cylinder")
        return math.log(p)

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

    def _scaled_distribution(self, window: Window, cap: int) -> tuple[dict, int | float]:
        """`_scaled` after the cap and support checks."""
        if len(self.alphabet) ** window.size > cap:
            raise EnumerationCapError(
                f"{len(self.alphabet)}^{window.size} words exceeds the cap")
        self.check_window(window)
        return self._scaled(window)

    def distribution(self, window: Window,
                     cap: int = WORD_CAP) -> dict[tuple[int, ...], Prob]:
        """Full cylinder distribution on the window, zero entries included."""
        return scaled_quotients(*self._scaled_distribution(window, cap))


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
        self.stationary = True
        self.label = label or f"bernoulli{tuple(format_prob(w) for w in ws)}"

    def prob(self, cfg: Configuration) -> Prob:
        self.check_config(cfg)
        return self._product(cfg.values)

    def _product(self, word: tuple[int, ...]) -> Prob:
        ws = [self.weights[v] for v in word]
        if self.exact:
            out = Fraction(1)
            for w in ws:
                out *= w
            return out
        if len(ws) > LOG_PRODUCT_CUTOFF:
            if any(w == 0 for w in ws):
                return 0.0
            return math.exp(math.fsum(math.log(float(w)) for w in ws))
        out = 1.0
        for w in ws:
            out *= float(w)
        return out

    def _scaled(self, window: Window) -> tuple[dict, int | float]:
        """Products of integer_scaled weights over den^n; in float mode the
        weights themselves, multiplied in site order as `prob` does."""
        n = window.size
        if not self.exact and n > LOG_PRODUCT_CUTOFF:
            return {w: self._product(w) for w in self.words(window)}, 1.0  # log space
        nums, den = integer_scaled(list(self.weights.values()), self.exact)
        weight = dict(zip(self.weights, nums))
        leaves = prefix_walk(self.alphabet.symbols, n, 1 if self.exact else 1.0,
                             lambda acc, i, s: acc * weight[s])
        return dict(leaves), den ** n

    def log_prob(self, cfg: Configuration) -> float:
        self.check_config(cfg)
        ws = [self.weights[v] for v in cfg.values]
        if any(w == 0 for w in ws):
            raise ZeroProbabilityError(f"{self.label}: zero-probability cylinder")
        return math.fsum(math.log(float(w)) for w in ws)


def bernoulli_provider(alphabet: Alphabet, weights: Sequence[Prob],
                       label: str = "") -> BernoulliMeasure:
    return BernoulliMeasure(alphabet, weights, label)


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
        total = sum(ws.values())
        if total == 0:
            raise ValueError("all weights zero")
        self.alphabet = alphabet
        self.support_window = window
        self.label = label
        # the weights as numerators over one den: ints over their sum when
        # every weight is exact, else the weights over their float total
        if is_exact(total):
            nums, _ = integer_scaled(list(ws.values()), True)
            self._nums, self._den, self._zero = dict(zip(ws, nums)), sum(nums), 0
        else:
            self._nums, self._den, self._zero = ws, total, 0.0

    def prob(self, cfg: Configuration) -> Prob:
        self.check_config(cfg)
        off = cfg.window.lo - self.support_window.lo
        n = cfg.window.size
        acc = self._zero
        for word, w in self._nums.items():
            if word[off:off + n] == cfg.values:
                acc += w
        return scaled_quotient(acc, self._den)

    def _scaled(self, window: Window) -> tuple[dict, int | float]:
        """The table marginalised onto the window in one pass; each word's
        weights are added in table order, as `prob` adds them."""
        off = window.lo - self.support_window.lo
        cut = slice(off, off + window.size)
        nums = dict.fromkeys(self.words(window), self._zero)
        for word, w in self._nums.items():
            nums[word[cut]] += w
        return nums, self._den


def conditional_prob(provider: MeasureProvider, target: Configuration,
                     given: Configuration) -> Prob:
    """P(target | given) for adjacent cylinders, as P(target and given)/P(given)."""
    joint = glue(target, None, given) if target.window.lo < given.window.lo \
        else glue(given, None, target)
    denom = provider.prob(given)
    if denom == 0:
        raise ZeroProbabilityError(
            f"{provider.label}: conditioning cylinder has probability zero")
    return provider.prob(joint) / denom


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
    last `stability_window + 1` values is within `tol`.  A zero-probability
    conditioning cylinder truncates the sequence and is reported via failed_at.
    """
    lo = target.window.hi + 1
    ns: list[int] = []
    values: list[Prob] = []
    failed_at = None
    for n in sorted(n_range):
        if n < lo:
            raise ValueError(f"probe index {n} precedes conditioning window start {lo}")
        given = omega.restrict(lo, n)
        try:
            values.append(conditional_prob(provider, target, given))
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
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((self.seed, self.stream))))

    def task_generator(self, task: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((self.seed, self.stream, task))))

    def derive(self, stream: int) -> "Rng":
        return Rng(self.seed, stream)
