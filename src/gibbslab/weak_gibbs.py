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

import itertools
import math
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
)

VOLUME_CAP = 20  # largest finite volume [0, m] a provider will take by default


@dataclass(frozen=True)
class InteractionParams:
    """rho: decay of the run-length potential, in (0,1); m: truncation depth."""

    rho: Prob
    m: int

    def __post_init__(self):
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
          depth: int = 0) -> tuple[int | float, Prob | int, int]:
    """One pass over the site values 0..hi of a configuration.

    Returns (energy, past, worst).  energy is H_{<=depth} as a numerator over
    the params' weight table (den in float mode is 1.0, so the same doubles
    are added in the same site order); past is the exact sum, in rho's type,
    of the terms with depth < 2n <= hi; worst is the largest k whose bad set
    B_k is hit, 0 if none.  B_k (all 1s on floor(3k/2) .. 2k) is hit iff the
    run of 1s ending at site 2k is at least 2k - floor(3k/2) + 1 long.
    Without params, or without a 1 at site 0, every energy term vanishes;
    depth must not pass params.m, the reach of the table.
    """
    energy, past, worst = 0, 0, 0
    live = params is not None and values[0] == 1
    if params is not None:
        weight, _, past = params._weights
        rho = params.rho
    run = 1 if values and values[0] == 1 else 0
    for i in range(1, len(values)):
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
    return energy, past, worst


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
    energy, _, _ = _scan(omega.values[:params.m + 1], params, params.m)
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
    _, past, worst = _scan(omega.values, params, params.m)
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
    energy, past, worst = _scan(values, params, depth)
    h = energy / params._weights[1]  # correctly rounded, as float(Fraction) is
    tb = past if zero_fill else _past_window(params, past, hi, depth, worst + 1)
    g_hi = _logistic(h)
    g_lo = _logistic(h + float(tb))
    return (g_hi + g_lo) / 2.0, (g_hi - g_lo) / 2.0


def single_site_kernel(params: InteractionParams, symbol: int,
                       tail: Configuration) -> KernelValue:
    """gamma(symbol | tail) for the site-0 kernel, with certified radius.

    For zero-fill tails contained in [0, m] the radius is exactly 0.  A tail
    that is unspecified past its window is certified through the run
    constraint observed inside it (see _kernel).
    """
    if symbol not in (0, 1):
        raise ValueError("symbol must be 0 or 1")
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
    """

    def __init__(self, params: InteractionParams, mode: str = "float",
                 cap: int = VOLUME_CAP):
        if mode not in ("rational", "float"):
            raise ValueError(f"unknown mode {mode!r}")
        if params.m > cap:
            raise EnumerationCapError(
                f"volume [0,{params.m}] exceeds cap m <= {cap}")
        if mode == "rational" and not params.exact:
            raise ValueError("rational mode requires a rational rho")
        self.params = params
        self.mode = mode
        self.alphabet = BINARY
        self.support_window = Window(0, params.m)
        self.label = f"weak-gibbs(rho={format_prob(params.rho)},m={params.m})"
        self._weight, self._den = integer_scaled(
            [math.exp(-float(_rho_pow(params.rho, e))) for e in range(params.m // 2 + 1)],
            mode == "rational")
        self._total = self._forward_sum({})

    def _forward_sum(self, fixed: dict[int, int]) -> int | float:
        """Sum of e^{-H} over all words on [0, m] matching `fixed`, times
        den^(m/2).

        Every even site past 0 multiplies each path by den: by a weight
        numerator where an interaction term fires, by den itself where none
        does.  So the pass steps ints in rational mode (den is 1.0 in float
        mode), and the scale cancels in the quotient of two sums.
        """
        m, den, weight = self.params.m, self._den, self._weight
        # branch sigma_0 = 0: every term vanishes, weight 1 per word
        zero_branch = 0
        if fixed.get(0, 0) == 0:
            free = sum(1 for i in range(1, m + 1) if i not in fixed)
            zero_branch = 2 ** free * den ** (m // 2)
        # branch sigma_0 = 1: forward pass over trailing-run states
        one_branch = 0
        if fixed.get(0, 1) == 1:
            states = {1: 1}
            for i in range(1, m + 1):
                n, odd = divmod(i, 2)
                nxt: dict[int, int | float] = {}
                if fixed.get(i, 0) == 0:  # a 0 ends every run
                    nxt[0] = sum(states.values()) * (1 if odd else den)
                if fixed.get(i, 1) == 1:  # a 1 extends every run; U(i) fires if it stays <= n
                    for r, acc in states.items():
                        nxt[r + 1] = acc if odd else acc * (weight[n - r - 1] if r < n else den)
                states = nxt
            one_branch = sum(states.values())
        return zero_branch + one_branch

    def prob(self, cfg: Configuration) -> Prob:
        self.check_config(cfg)
        fixed = {i: cfg.value_at(i) for i in cfg.window.indices()}
        return scaled_quotient(self._forward_sum(fixed), self._total)

    def event_prob(self, fixed: dict[int, int]) -> Prob:
        """Probability that the listed sites (not necessarily contiguous) hold
        the listed values."""
        for i, v in fixed.items():
            if not 0 <= i <= self.params.m:
                raise ValueError(f"site {i} outside the volume [0,{self.params.m}]")
            if v not in (0, 1):
                raise ValueError("binary symbols only")
        return scaled_quotient(self._forward_sum(dict(fixed)), self._total)


def finite_volume_measure(params: InteractionParams, mode: str = "float",
                          cap: int = VOLUME_CAP) -> FiniteVolumeMeasure:
    return FiniteVolumeMeasure(params, mode, cap)


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
    return _scan(values)[2] + 1


@dataclass(frozen=True)
class GluedRow:
    n: int
    sup_diff: float
    radius: float  # certified evaluation radius carried by the two kernel calls


def glued_convergence_table(params: InteractionParams, omega: Configuration,
                            eta: Configuration, n_list: list[int]) -> tuple[GluedRow, ...]:
    """sup over symbols of |gamma(. | omega[1..n] eta[n+1..)) - gamma(. | omega)|.

    Both tails must start at site 1 and be zero-fill (finite representatives of
    points of the product space); for irregular inputs there is no finite
    certificate, so unspecified tails are rejected.
    """
    for c, name in ((omega, "omega"), (eta, "eta")):
        _check_tail(c, name)
        if c.tail is not Tail.ZERO_FILL:
            raise ValueError(f"{name} must carry a zero-fill tail")
    if any(n < 1 for n in n_list):
        raise ValueError("glue points must be >= 1")
    # omega[1..n] eta[n+1..) as values on sites 0..hi; trailing zeros of a
    # zero-fill tail change nothing, so the glued tail needs no padding past eta
    head = (1,) + omega.values + (0,) * (max(n_list, default=0) - len(omega.values))
    ref1, ref_radius = _kernel(params, head, True)
    rows = []
    for n in n_list:
        cur1, cur_radius = _kernel(params, head[:n + 1] + eta.values[n:], True)
        # sup over both symbols: gamma(0 | .) = 1.0 - gamma(1 | .) rounds on its own
        diff = max(abs((1.0 - cur1) - (1.0 - ref1)), abs(cur1 - ref1))
        rows.append(GluedRow(n, diff, cur_radius + ref_radius))
    return tuple(rows)


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
    gamma(xi | omega)| > eps} by sampling eta on (n, n + tail_depth].
    """
    if not 0 <= eps <= 2:
        raise ValueError("eps must lie in [0, 2]")
    _check_tail(omega, "omega")
    if tail_depth < 1:
        raise ValueError("tail_depth must be >= 1")
    head = (1,) + omega.restrict(1, n).values
    ref1, _ = _kernel(params, (1,) + omega.values, omega.tail is Tail.ZERO_FILL)
    bits = rng.generator().integers(0, 2, size=(samples, tail_depth))
    hits = sum(abs(_kernel(params, head + tuple(row), True)[0] - ref1) > eps
               for row in bits.tolist())
    f = hits / samples
    return FractionEstimate(f, math.sqrt(f * (1 - f) / samples), samples)


def bad_set_frequency(k: int, samples: int, rng: Rng) -> FractionEstimate:
    """Fair-coin frequency of the bad set B_k (all 1s on floor(3k/2) .. 2k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    width = 2 * k - 3 * k // 2 + 1
    gen = rng.generator()
    bits = gen.integers(0, 2, size=(samples, width))
    hits = int(bits.all(axis=1).sum())
    f = hits / samples
    return FractionEstimate(f, math.sqrt(f * (1 - f) / samples), samples)


def kernel_radius_enumerated(params: InteractionParams, prefix: Configuration,
                             m: int) -> dict[int, float]:
    """Max over all zero-filled tails on (n, m] of the glued kernel's movement.

    prefix sits on [1, n].  This is the exact finite-volume envelope used to
    sandwich conditional probabilities of the volume-[0, m] measure.
    """
    _check_tail(prefix, "prefix")
    n = prefix.window.hi
    if m < n:
        raise ValueError("volume must contain the prefix")
    if m - n > 24:
        raise EnumerationCapError(f"2^{m - n} tails is past the enumeration cap")
    head = (1,) + prefix.values
    ref1, ref_radius = _kernel(params, head, True)  # the zero-filled prefix
    ref0 = 1.0 - ref1
    out0 = out1 = 2 * ref_radius
    for word in itertools.product((0, 1), repeat=m - n):
        if not word:
            continue  # empty tail: glued config equals the zero-filled prefix
        cur1, cur_radius = _kernel(params, head + word, True)
        out0 = max(out0, abs((1.0 - cur1) - ref0) + cur_radius + ref_radius)
        out1 = max(out1, abs(cur1 - ref1) + cur_radius + ref_radius)
    return {0: out0, 1: out1}
