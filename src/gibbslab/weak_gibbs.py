"""Run-length interaction on binary sequences over the non-negative integers.

The potential couples site 0 to even sites: with N(2n) the length of the
maximal 1-run ending at site 2n (zero when site 2n holds a 0),

    U(2n) = omega_0 * omega_{2n} * rho^(n - N(2n)) * [N(2n) <= n]

and H(omega) = sum over 2n <= m of U(2n).  A run reaching back past site n
kills the term, which is what makes long 1-runs "bad": they carry order-one
energy arbitrarily far out.  Note U(0) == 0 identically: a 1 at site 0 gives
N(0) = 1 > 0, and a 0 kills the product.

The single-site kernel at the origin is

    gamma(1 | tail) = e^{-H(1 tail)} / (1 + e^{-H(1 tail)}),

the conditional of the density e^{-H} against the fair-coin measure.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .core import (
    BINARY,
    Configuration,
    EnumerationCapError,
    MeasureProvider,
    Prob,
    Rng,
    Tail,
    Window,
    as_prob,
    check_finite,
    format_prob,
    integer_scaled,
    is_exact,
    scaled_quotient,
    _cylinder_fold,
    _fold_quotient,
    _left_sum,
    _symbols,
)

VOLUME_CAP = 20  # largest finite volume [0, m] a provider will take by default
TAIL_CAP = 24  # most free tail sites, m - n, kernel_radius_enumerated takes


@dataclass(frozen=True)
class InteractionParams:
    """rho: decay of the run-length potential, in (0,1); m: truncation depth."""

    rho: Prob
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", _symbols((self.m,), "m")[0])  # 4.0 is 4
        object.__setattr__(self, "rho", as_prob(self.rho))
        check_finite((self.rho,), "rho")
        if not (0 < self.rho < 1):
            raise ValueError(f"rho must lie in (0,1), got {self.rho}")
        if self.m < 0 or self.m % 2:
            raise ValueError(f"truncation depth must be even and >= 0, got {self.m}")

    @property
    def exact(self) -> bool:
        return is_exact(self.rho)

    @cached_property
    def _weights(self) -> tuple[list, int | float, Prob]:
        """(nums, den, zero): rho^e == nums[e] / den for e = 0..m/2, from
        integer_scaled, and a zero of rho's type.  Built on first use and kept
        on the instance, not in a cache keyed on the params, because an exact
        instance and its float twin compare and hash equal."""
        nums, den = integer_scaled([_rho_pow(self.rho, e) for e in range(self.m // 2 + 1)],
                                   self.exact)
        return nums, den, Fraction(0) if self.exact else 0.0


@lru_cache(maxsize=None, typed=True)  # 1/2 and 0.5 hash equal; keep their powers apart
def _rho_pow(rho: Prob, e: int) -> Prob:
    return rho ** e


def run_length(omega: Configuration, two_n: int) -> int:
    """Length of the maximal 1-run ending at site two_n; 0 if that site holds 0.

    The run cannot extend below site 0.
    """
    if two_n < 0 or two_n % 2:
        raise ValueError(f"site index must be even and >= 0, got {two_n}")
    if not omega.defined_at(two_n):
        raise ValueError(f"omega undefined at site {two_n}")
    if omega.value_at(two_n) != 1:
        return 0
    j = two_n
    while j > 0 and omega.value_at(j - 1) == 1:
        j -= 1
    return two_n - j + 1


def interaction_term(params: InteractionParams, omega: Configuration, n: int) -> Prob:
    """The potential's contribution from the pair (site 0, site 2n)."""
    zero = Fraction(0) if params.exact else 0.0
    if n < 0:
        raise ValueError("n must be >= 0")
    if omega.value_at(0) != 1 or omega.value_at(2 * n) != 1:
        return zero
    big_n = run_length(omega, 2 * n)
    if big_n > n:
        return zero
    return _rho_pow(params.rho, n - big_n)


def _scan(values: tuple[int, ...], params: InteractionParams | None = None,
          depth: int = 0, state: tuple | None = None, hi: int | None = None) -> tuple:
    """One pass over site values of a configuration, values[i] at site i.

    Returns the scan state after site hi (by default the last site), the
    tuple (hi, run, energy, past, worst).  run is the length of the 1-run
    ending at hi; energy is H_{<=depth} as a numerator over the params'
    weight table (den in float mode is 1.0, so the same doubles are added in
    the same site order); past is the exact sum, in rho's type, of the terms
    with depth < 2n <= hi; worst is the largest k whose bad set B_k is hit,
    0 if none.  B_k (all 1s on floor(3k/2) .. 2k) is hit iff the run of 1s
    ending at site 2k is at least 2k - floor(3k/2) + 1 long.  Without
    params, or without a 1 at site 0, every energy term vanishes; depth must
    not pass params.m, the reach of the table.

    Without a state the scan starts at site 0.  With one it resumes at the
    site after the state's, adding on to the state's sums, and every term
    counts (params given): only the state of a scan whose site 0 held a 1 is
    resumed.  energy and past grow by +=, so a state holding _Terms in their
    place collects the terms it would add, in site order.
    """
    if hi is None:
        hi = len(values) - 1
    if state is None:
        live = params is not None and values[0] == 1
        zero = params._weights[2] if params is not None else 0
        state = (0, 1 if values and values[0] == 1 else 0, 0, zero, 0)
    else:
        live = params is not None
    site, run, energy, past, worst = state
    if live:
        weight, _, _ = params._weights
        rho = params.rho
    for i in range(site + 1, hi + 1):
        if values[i] != 1:
            run = 0
            continue
        run += 1
        if i & 1:
            continue
        n = i >> 1
        if run > 2 * n - 3 * n // 2:
            worst = n
        if live and run <= n:
            if i <= depth:
                energy += weight[n - run]
            else:
                past += _rho_pow(rho, n - run)
    return hi, run, energy, past, worst


class _Terms(list):
    """Stands in for a sum in a scan state: += appends the term."""

    def __iadd__(self, term):
        self.append(term)
        return self


def hamiltonian(params: InteractionParams, omega: Configuration) -> Prob:
    """Truncated energy H_{<=m}(omega), summing terms with 2n <= m.

    omega must start at site 0; sites past its window come from a zero-fill
    tail (those terms vanish, so only the in-window part is scanned).
    """
    if omega.window.lo != 0:
        raise ValueError("hamiltonian needs a configuration starting at site 0")
    if omega.tail is not Tail.ZERO_FILL and omega.window.hi < params.m:
        raise ValueError(
            f"omega must be defined through site {params.m} (or carry a zero-fill tail)")
    _, _, energy, _, _ = _scan(omega.values[:params.m + 1], params, params.m)
    return scaled_quotient(energy, params._weights[1])


def _past_window(params: InteractionParams, bound: Prob, hi: int, depth: int,
                 n_prime: int) -> Prob:
    """bound plus a bound on the terms past site hi of an unspecified tail.

    Outside every bad set B_k with k >= n_prime, the run ending at 2k has
    length at most ceil(k/2), so U(2k) <= rho^floor(k/2), which sums
    geometrically; terms before n_prime, if any, are bounded by 1.  Terms at
    2n <= depth belong to the truncated energy and are not counted.
    """
    rho = params.rho
    q = max(hi // 2 + 1, depth // 2 + 1)
    if n_prime > q:
        bound += (n_prime - q) * (Fraction(1) if params.exact else 1.0)
        q = n_prime
    # sum of rho^floor(p/2) over p >= q
    a0 = q // 2
    if q % 2 == 0:
        geo = 2 * _rho_pow(rho, a0) / (1 - rho)
    else:
        geo = _rho_pow(rho, a0) + 2 * _rho_pow(rho, a0 + 1) / (1 - rho)
    return bound + geo


def hamiltonian_tail_bound(params: InteractionParams, omega: Configuration,
                           n_prime: int) -> Prob:
    """Upper bound on the energy past the truncation depth, H - H_{<=m}.

    Terms still inside omega's window are summed exactly.  Past the window a
    zero-fill tail contributes nothing; an unspecified tail is bounded through
    the run constraint (see _past_window), which must hold inside the window:
    no bad set B_k with k >= n_prime may be hit there.
    """
    if omega.window.lo != 0:
        raise ValueError("tail bound needs a configuration starting at site 0")
    if n_prime < 1:
        raise ValueError("n_prime must be >= 1")
    _, _, _, past, worst = _scan(omega.values, params, params.m)
    if worst >= n_prime:
        raise ValueError(f"run constraint violated inside the window for some k >= {n_prime}")
    if omega.values[0] != 1 or omega.tail is Tail.ZERO_FILL:
        return past
    return _past_window(params, past, omega.window.hi, params.m, n_prime)


@dataclass(frozen=True)
class KernelValue:
    """A kernel probability with a certified error radius."""

    value: float
    radius: float


def _logistic(h: float) -> float:
    # e^{-h} / (1 + e^{-h}), stable for h >= 0
    return 1.0 / (1.0 + math.exp(h))


def _check_tail(tail: Configuration, name: str) -> None:
    if tail.window.lo != 1:
        raise ValueError(f"{name} must start at site 1")
    if tail.alphabet != BINARY:
        raise ValueError(f"{name} must be a binary configuration")


def _bracket(params: InteractionParams, energy: int | float,
             tb: Prob) -> tuple[float, float]:
    """(gamma(1 | tail), radius) from the truncated energy's numerator and a
    bound tb on the rest: the midpoint and half-width of the interval the
    logistic maps [H_{<=m}, H_{<=m} + tb] to."""
    h = energy / params._weights[1]  # correctly rounded, as float(Fraction) is
    g_hi = _logistic(h)
    g_lo = _logistic(h + float(tb))
    return (g_hi + g_lo) / 2.0, (g_hi - g_lo) / 2.0


def _kernel(params: InteractionParams, values: tuple[int, ...],
            zero_fill: bool) -> tuple[float, float]:
    """(gamma(1 | tail), radius) for values = (1,) + tail on sites 0..hi, from
    one scan; gamma(0 | tail) is 1 - gamma(1 | tail) with the same radius.

    The energy is computed through depth m; the tail bound brackets the rest,
    and the radius is half the width of the resulting interval.  An
    unspecified tail shorter than m is truncated at its last even site and
    certified through the run constraint observed inside it: n' is 1 + the
    last bad set hit, so the constraint holds by construction.
    """
    hi = len(values) - 1
    depth = params.m if zero_fill or hi >= params.m else hi // 2 * 2
    _, _, energy, past, worst = _scan(values, params, depth)
    tb = past if zero_fill else _past_window(params, past, hi, depth, worst + 1)
    return _bracket(params, energy, tb)


def single_site_kernel(params: InteractionParams, symbol: int,
                       tail: Configuration) -> KernelValue:
    """gamma(symbol | tail) for the site-0 kernel, with certified radius.

    For zero-fill tails contained in [0, m] the radius is exactly 0.  A tail
    that is unspecified past its window is certified through the run
    constraint observed inside it (see _kernel).
    """
    symbol, = _symbols((symbol,))
    if symbol not in (0, 1):
        raise ValueError(f"symbol must be 0 or 1, got {symbol}")
    _check_tail(tail, "tail")
    value1, radius = _kernel(params, (1,) + tail.values, tail.tail is Tail.ZERO_FILL)
    return KernelValue(value1 if symbol == 1 else 1.0 - value1, radius)


class FiniteVolumeMeasure(MeasureProvider):
    """Gibbs measure on the volume [0, m]: density e^{-H} against fair coins.

    Cylinder sums run through a forward pass over (site, current run length)
    states, which is exact and equivalent to summing all 2^(m+1) words; the
    brute-force oracle re-derives small volumes the literal way.  In rational
    mode each factor e^{-rho^e} is the IEEE-double value reinterpreted as an
    exact dyadic rational, so marginalization identities hold exactly while
    the weights sit within 1 ulp of the transcendental truth; the pass runs
    on their integer numerators over a common power-of-two denominator.

    Two read-only tables, built once here, shorten every sum to the sites it
    fixes: `_prefix[lo]`, the state at site lo after the free sites
    0..lo-1, and `_suffix[i]`, the scaled weight that the free sites i..m
    add to each branch entering site i.  A sum steps its fixed sites from
    the prefix state and closes with one dot product against the suffix row
    of the site its state has reached (`_close`).
    """

    def __init__(self, params: InteractionParams, mode: str = "float",
                 cap: int = VOLUME_CAP):
        if mode not in ("rational", "float"):
            raise ValueError(f"unknown mode {mode!r}")
        if params.m > cap:
            raise EnumerationCapError(
                f"volume [0,{params.m}] exceeds cap m <= {cap}")
        if mode == "float" and params.m > 1022:  # the sigma_0 = 0 branch alone weighs 2^m
            raise EnumerationCapError(
                f"float volume [0,{params.m}] exceeds m <= 1022, past which its "
                "weights overflow a double; use rational mode")
        if mode == "rational" and not params.exact:
            raise ValueError("rational mode requires a rational rho")
        self.params = params
        self.mode = mode
        self.alphabet = BINARY
        self.support_window = Window(0, params.m)
        self.label = f"weak-gibbs(rho={format_prob(params.rho)},m={params.m})"
        # ints add exactly in any order, and fastest by sum(); floats keep
        # the additions sum() makes on 3.11
        self._add = sum if mode == "rational" else _left_sum
        self._weight, self._den = integer_scaled(
            [math.exp(-float(_rho_pow(params.rho, e))) for e in range(params.m // 2 + 1)],
            mode == "rational")
        prefix = [(0, 0, ())]
        for _ in range(params.m + 1):
            prefix.append(self._step(prefix[-1], None))
        self._prefix = tuple(prefix)
        self._suffix = self._suffix_table()
        self._total = self._close(prefix[1])

    def _step(self, state: tuple, v: int | None) -> tuple:
        """The state (i + 1, zero, runs) after the site i of state (i, zero,
        runs) holds v, or either symbol if v is None.  zero is the scaled
        weight of the sigma_0 = 0 branch, where every term vanishes; runs[r]
        is that of the sigma_0 = 1 paths whose trailing 1-run is r long.
        Before site 0 the state is (0, 0, ()), no mass yet; site 0 starts
        both branches.

        Every even site past 0 multiplies each path by den: by a weight
        numerator where an interaction term fires, by den itself where none
        does.  So the pass steps ints in rational mode (den is 1.0 in float
        mode), and the scale cancels in the quotient of two sums.
        """
        i, zero, runs = state
        den = self._den
        if i == 0:  # den ** 0 keeps float mode's weights floats
            return 1, (den ** 0 if v != 1 else 0), ((0, den ** 0) if v != 0 else ())
        n, odd = divmod(i, 2)
        scale = 1 if odd else den
        zero *= scale if v is not None else 2 * scale
        if not runs:  # only the sigma_0 = 0 branch carries mass
            return i + 1, zero, runs
        ended = self._add(runs) * scale if v != 1 else 0  # a 0 ends every run
        if v == 0:
            return i + 1, zero, (ended,)
        if not odd:  # a 1 extends every run; U(i) fires if it stays <= n
            weight = self._weight
            runs = tuple(acc * (weight[n - r - 1] if r < n else den)
                         for r, acc in enumerate(runs))
        return i + 1, zero, (ended,) + runs

    def _suffix_table(self) -> tuple:
        """_suffix[i] = (Z, R) for i = 1..m+1: Z is the scaled weight the free
        sites i..m give one unit of the sigma_0 = 0 branch, R[r] the same for
        one unit of a run r long entering site i; _suffix[m + 1] is all ones.
        Built from site m down, by the recursion of _step read backwards."""
        m, den, weight = self.params.m, self._den, self._weight
        zero, runs = den ** 0, (den ** 0,) * (m + 2)
        rows = [(zero, runs)]
        for i in range(m, 0, -1):
            n, odd = divmod(i, 2)
            scale = 1 if odd else den
            zero *= 2 * scale
            ended = runs[0] * scale
            runs = tuple(ended + (runs[r + 1] if odd else
                                  runs[r + 1] * (weight[n - r - 1] if r < n else den))
                         for r in range(i + 1))
            rows.append((zero, runs))
        rows.append(None)  # no sum closes before site 1
        return tuple(reversed(rows))

    def _close(self, state: tuple) -> int | float:
        """Scaled weight of every word on [0, m] that extends state, the
        state (i, zero, runs) after sites 0..i-1: one dot product with
        _suffix[i]."""
        i, zero, runs = state
        z, r = self._suffix[i]
        return zero * z + self._add(map(operator.mul, runs, r))

    def _walker(self, lo: int) -> tuple:
        """_step itself from the prefix state at lo, and _close itself for
        every window: a state carries its site, so neither needs lo or hi.
        No rescale: up to VOLUME_CAP no word's mass is near underflow (at
        most m/2 + 1 factors in [1/e, e])."""
        closed = self._close, self._total
        return self._prefix[lo], self._step, lambda hi: closed

    prob = MeasureProvider.prob  # bound here: bench/spans.py wraps it from the class __dict__

    def event_prob(self, fixed: dict[int, int]) -> Prob:
        """Probability that the listed sites (not necessarily contiguous) hold
        the listed values: one fold, whose _step reads a None as either symbol."""
        for i, v in fixed.items():
            if not 0 <= i <= self.params.m:
                raise ValueError(f"site {i} outside the volume [0,{self.params.m}]")
            if v not in (0, 1):
                raise ValueError("binary symbols only")
        lo, hi = min(fixed, default=0), max(fixed, default=0)
        fold = _cylinder_fold(self, lo, [fixed.get(i) for i in range(lo, hi + 1)])
        return _fold_quotient(fold(hi))


def in_bad_set(omega: Configuration, k: int) -> bool:
    """True iff sites floor(3k/2) .. 2k all hold 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for i in range(3 * k // 2, 2 * k + 1):
        if not omega.defined_at(i):
            raise ValueError(f"omega undefined at site {i}")
        if omega.value_at(i) != 1:
            return False
    return True


def correlation_length(omega: Configuration) -> int:
    """Smallest K >= 1 with omega outside every bad set B_k, k >= K.

    Needs a zero-fill tail (then B_k is automatically missed once 2k passes
    the window, so K always exists; all-zeros gives 1).
    """
    if omega.tail is not Tail.ZERO_FILL:
        raise ValueError("correlation length needs a zero-fill tail")
    lo = omega.window.lo  # sites 0..hi; those below the window hold 0
    values = (0,) * lo + omega.values if lo >= 0 else omega.values[-lo:]
    return _scan(values)[4] + 1


def _sup_diff(cur1: float, ref1: float) -> float:
    """sup over both symbols of |gamma(. | cur) - gamma(. | ref)| from the
    two gamma(1 | .); gamma(0 | .) = 1.0 - gamma(1 | .) rounds on its own."""
    return max(abs((1.0 - cur1) - (1.0 - ref1)), abs(cur1 - ref1))


@dataclass(frozen=True)
class GluedRow:
    n: int
    sup_diff: float
    radius: float  # certified evaluation radius carried by the two kernel calls


def glued_convergence_table(params: InteractionParams, omega: Configuration,
                            eta: Configuration, n_list: list[int]) -> tuple[GluedRow, ...]:
    """sup over symbols of |gamma(. | omega[1..n] eta[n+1..)) - gamma(. | omega)|,
    one row per glue point n in n_list, in its order.

    Both tails must start at site 1 and be zero-fill (finite representatives of
    points of the product space); for irregular inputs there is no finite
    certificate, so unspecified tails are rejected.  Glue points are read as
    ints by the rule configurations read symbols by, and must be >= 1.

    Each tail is scanned once.  The head (1,) + omega is scanned through
    every glue point in turn, keeping the scan state at each.  A row resumes
    omega's state at n and steps eta's sites up to eta's first 0 past n: the
    leading 1s extend omega's run across the glue point.  Past that 0 every
    run is eta's own, so the row adds eta's own terms from there on, which
    one scan of eta recorded in site order.  Each row's sums thus receive
    the same terms in the same site order as a scan of its glued tail, and
    its float bits are that scan's.
    """
    for c, name in ((omega, "omega"), (eta, "eta")):
        _check_tail(c, name)
        if c.tail is not Tail.ZERO_FILL:
            raise ValueError(f"{name} must carry a zero-fill tail")
    n_list = _symbols(n_list, "glue point")
    for n in n_list:
        if n < 1:
            raise ValueError(f"glue point n must be >= 1, got {n}")
    if not n_list:
        return ()
    depth = params.m
    # trailing zeros of a zero-fill tail change nothing, so both tails may be
    # padded: omega through the last glue point, and eta so that a 0 follows
    # every glue point
    last = max(n_list)
    head = (1,) + omega.values + (0,) * (last - len(omega.values))
    state, at = None, {}
    for n in sorted(set(n_list)):
        state = at[n] = _scan(head, params, depth, state, n)
    _, _, energy, past, _ = _scan(head, params, depth, state)
    ref1, ref_radius = _bracket(params, energy, past)
    own = (1,) + eta.values + (0,) * (max(last - len(eta.values), 0) + 1)
    first_zero = bytes(own).find
    stop = {n: first_zero(0, n + 1) for n in at}  # eta's first 0 past each glue point
    # eta's own terms past the first of those 0s, with how many precede each
    energy_terms, past_terms = _Terms(), _Terms()
    state, marks = (min(stop.values()), 0, energy_terms, past_terms, 0), {}
    for z in sorted(set(stop.values())):
        state = _scan(own, params, depth, state, z)
        marks[z] = len(energy_terms), len(past_terms)
    _scan(own, params, depth, state)
    rows = {}
    for n, state in at.items():
        z = stop[n]
        _, _, energy, past, _ = _scan(own, params, depth, state, z)
        k_energy, k_past = marks[z]
        energy = _left_sum(energy_terms[k_energy:], energy)
        past = _left_sum(past_terms[k_past:], past)
        cur1, cur_radius = _bracket(params, energy, past)
        rows[n] = GluedRow(n, _sup_diff(cur1, ref1), cur_radius + ref_radius)
    return tuple(rows[n] for n in n_list)


@dataclass(frozen=True)
class FractionEstimate:
    """Monte-Carlo frequency with its standard error."""

    value: float
    stderr: float
    samples: int


def bad_tail_fraction(params: InteractionParams, omega: Configuration, eps: float,
                      n: int, samples: int, rng: Rng,
                      tail_depth: int = 128) -> FractionEstimate:
    """Fraction of fair-coin tails eta whose glued kernel moves by more than eps.

    Estimates the mass of {eta : sup_xi |gamma(xi | omega[1..n] eta) -
    gamma(xi | omega)| > eps} by sampling eta on (n, n + tail_depth], the
    sup taken as glued_convergence_table takes it (_sup_diff).  n is read
    as an int by the rule configurations read symbols by.  The head
    (1,) + omega[1..n] is scanned once, and each sample resumes its state.
    """
    if not 0 <= eps <= 2:
        raise ValueError("eps must lie in [0, 2]")
    n, = _symbols((n,), "n")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_tail(omega, "omega")
    if tail_depth < 1:
        raise ValueError("tail_depth must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    head = (1,) + omega.restrict(1, n).values
    ref1, _ = _kernel(params, (1,) + omega.values, omega.tail is Tail.ZERO_FILL)
    state = _scan(head, params, params.m)  # each sample resumes after site n
    bits = rng.generator().integers(0, 2, size=(samples, tail_depth))
    hits = 0
    for row in bits.tolist():
        _, _, energy, past, _ = _scan(head + tuple(row), params, params.m, state)
        hits += _sup_diff(_bracket(params, energy, past)[0], ref1) > eps
    f = hits / samples
    return FractionEstimate(f, math.sqrt(f * (1 - f) / samples), samples)


def bad_set_frequency(k: int, samples: int, rng: Rng) -> FractionEstimate:
    """Fair-coin frequency of the bad set B_k (all 1s on floor(3k/2) .. 2k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    width = 2 * k - 3 * k // 2 + 1
    Rng.check_draws(samples, width)
    bits = rng.generator().integers(0, 2, size=(samples, width))
    hits = int(bits.all(axis=1).sum())
    f = hits / samples
    return FractionEstimate(f, math.sqrt(f * (1 - f) / samples), samples)


def kernel_radius_enumerated(params: InteractionParams, prefix: Configuration,
                             m: int) -> dict[int, float]:
    """Max over all zero-filled tails on (n, m] of the glued kernel's movement.

    prefix sits on [1, n].  This is the exact finite-volume envelope used to
    sandwich conditional probabilities of the volume-[0, m] measure.

    The 2^(m-n) tails are not scanned one by one.  What a site adds to the
    scan depends only on the site and the run of 1s ending there, and a
    tail's kernel only on its final (energy, past) pair.  So the head
    (1,) + prefix is scanned once, and the set of distinct (run, energy,
    past) states is stepped through sites n+1..m, each state to both
    symbols: a 0 ends the run and adds nothing, and a 1 resumes _scan from
    the state (the head starts with 1, so every term counts).  States merge
    only when equal, and equal states receive the same additions in the
    same site order, so every leaf carries the float bits its tails' own
    scans would; the max is taken over distinct leaves.
    """
    _check_tail(prefix, "prefix")
    n = prefix.window.hi
    if m < n:
        raise ValueError("volume must contain the prefix")
    if m - n > TAIL_CAP:
        raise EnumerationCapError(f"2^{m - n} tails is past the enumeration cap")
    head = (1,) + prefix.values
    _, run, energy, past, _ = _scan(head, params, params.m)  # the zero-filled prefix
    ref1, ref_radius = _bracket(params, energy, past)
    ref0 = 1.0 - ref1
    ones = (1,) * (m + 1)  # every 1-branch steps a 1 at its site through _scan
    states = {(run, energy, past)}
    for i in range(n + 1, m + 1):
        step = set()
        for run, energy, past in states:
            step.add((0, energy, past))
            step.add(_scan(ones, params, params.m, (i - 1, run, energy, past, 0), i)[1:4])
        states = step
    # the leaves hold the zero-filled prefix itself (the empty tail if m == n,
    # else the all-zero tail), so each max is at least 2 * ref_radius
    leaves = [_bracket(params, energy, past) for energy, past in
              {(energy, past) for _, energy, past in states}]
    return {0: max(abs((1.0 - cur1) - ref0) + cur_radius + ref_radius
                   for cur1, cur_radius in leaves),
            1: max(abs(cur1 - ref1) + cur_radius + ref_radius for cur1, cur_radius in leaves)}
