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
from functools import lru_cache

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
    binary_config,
    check_finite,
    config,
    format_prob,
    glue,
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
    zero = Fraction(0) if params.exact else 0.0
    if omega.value_at(0) != 1:
        return zero
    h = zero
    limit = min(params.m, omega.window.hi)
    run = 0
    for i in range(0, limit + 1):
        run = run + 1 if omega.value_at(i) == 1 else 0
        if i % 2 == 0 and run > 0:  # site holds a 1
            n = i // 2
            if run <= n:
                h += _rho_pow(params.rho, n - run)
    return h


def _run_constraint_ok(omega: Configuration, n_prime: int) -> bool:
    """No bad set B_k is hit for any k >= n_prime checkable within the window."""
    for k in range(max(1, n_prime), omega.window.hi // 2 + 1):
        if in_bad_set(omega, k):
            return False
    return True


def hamiltonian_tail_bound(params: InteractionParams, omega: Configuration,
                           n_prime: int) -> Prob:
    """Upper bound on the energy past the truncation depth, H - H_{<=m}.

    Terms still inside omega's window are summed exactly.  Past the window a
    zero-fill tail contributes nothing; an unspecified tail is bounded through
    the run constraint: outside every bad set B_k with k >= n_prime, the run
    ending at 2k has length at most ceil(k/2), so U(2k) <= rho^floor(k/2),
    which sums geometrically.  (Terms before n_prime, if any, are bounded by 1.)
    """
    if omega.window.lo != 0:
        raise ValueError("tail bound needs a configuration starting at site 0")
    if n_prime < 1:
        raise ValueError("n_prime must be >= 1")
    if not _run_constraint_ok(omega, n_prime):
        raise ValueError(f"run constraint violated inside the window for some k >= {n_prime}")
    zero = Fraction(0) if params.exact else 0.0
    if omega.value_at(0) != 1:
        return zero
    rho = params.rho
    hi = omega.window.hi
    p_start = params.m // 2 + 1
    # exact part: window terms past the truncation depth
    bound = zero
    run = 0
    for i in range(0, hi + 1):
        run = run + 1 if omega.value_at(i) == 1 else 0
        if i % 2 == 0 and i > params.m and run > 0:
            n = i // 2
            if run <= n:
                bound += _rho_pow(rho, n - run)
    if omega.tail is Tail.ZERO_FILL:
        return bound
    # unknown part past the window
    q0 = hi // 2 + 1
    q = max(q0, p_start)
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


@dataclass(frozen=True)
class KernelValue:
    """A kernel probability with a certified error radius."""

    value: float
    radius: float


def _logistic(h: float) -> float:
    # e^{-h} / (1 + e^{-h}), stable for h >= 0
    return 1.0 / (1.0 + math.exp(h))


def _observed_correlation(omega: Configuration) -> int:
    """1 + the largest k whose bad set B_k is hit inside the window."""
    worst = 0
    for k in range(1, omega.window.hi // 2 + 1):
        if in_bad_set(omega, k):
            worst = k
    return worst + 1


def single_site_kernel(params: InteractionParams, symbol: int,
                       tail: Configuration) -> KernelValue:
    """gamma(symbol | tail) for the site-0 kernel, with certified radius.

    The energy of (1, tail) is computed through depth m; the tail bound brackets
    the rest, and the radius is half the width of the resulting interval.  For
    zero-fill tails contained in [0, m] the radius is exactly 0.  A tail that is
    unspecified past its window gets truncated at the window edge and certified
    through the run constraint observed inside it.
    """
    if symbol not in (0, 1):
        raise ValueError("symbol must be 0 or 1")
    if tail.window.lo != 1:
        raise ValueError("tail must start at site 1")
    one = config(BINARY, 0, (1,))
    zeta = glue(one, None, tail)
    if zeta.tail is not Tail.ZERO_FILL and zeta.window.hi < params.m:
        params = InteractionParams(params.rho, zeta.window.hi // 2 * 2)
    h = hamiltonian(params, zeta)
    n_prime = _observed_correlation(zeta)
    tb = hamiltonian_tail_bound(params, zeta, n_prime)
    g_hi = _logistic(float(h))
    g_lo = _logistic(float(h) + float(tb))
    value1 = (g_hi + g_lo) / 2.0
    radius = (g_hi - g_lo) / 2.0
    if symbol == 1:
        return KernelValue(value1, radius)
    return KernelValue(1.0 - value1, radius)


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
    worst = 0
    for k in range(1, omega.window.hi // 2 + 1):
        if in_bad_set(omega, k):
            worst = k
    return worst + 1


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
        if c.window.lo != 1:
            raise ValueError(f"{name} must start at site 1")
        if c.tail is not Tail.ZERO_FILL:
            raise ValueError(f"{name} must carry a zero-fill tail")
    ref = {s: single_site_kernel(params, s, omega) for s in (0, 1)}
    rows = []
    for n in n_list:
        if n < 1:
            raise ValueError("glue points must be >= 1")
        glued = glue(omega.restrict(1, n), None,
                     eta.restrict(n + 1, max(n + 1, eta.window.hi)))
        cur = {s: single_site_kernel(params, s, glued) for s in (0, 1)}
        diff = max(abs(cur[s].value - ref[s].value) for s in (0, 1))
        radius = max(cur[s].radius + ref[s].radius for s in (0, 1))
        rows.append(GluedRow(n, diff, radius))
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
    gen = rng.generator()
    bits = gen.integers(0, 2, size=(samples, tail_depth))
    ref = single_site_kernel(params, 1, omega)
    prefix = omega.restrict(1, n)
    hits = 0
    for row in bits:
        eta = config(BINARY, n + 1, tuple(int(b) for b in row), Tail.ZERO_FILL)
        glued = glue(prefix, None, eta)
        cur = single_site_kernel(params, 1, glued)
        if abs(cur.value - ref.value) > eps:
            hits += 1
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
    if prefix.window.lo != 1:
        raise ValueError("prefix must start at site 1")
    n = prefix.window.hi
    if m < n:
        raise ValueError("volume must contain the prefix")
    if m - n > 24:
        raise EnumerationCapError(f"2^{m - n} tails is past the enumeration cap")
    base = prefix if prefix.tail is Tail.ZERO_FILL else Configuration(
        BINARY, prefix.window, prefix.values, Tail.ZERO_FILL)
    ref = {s: single_site_kernel(params, s, base) for s in (0, 1)}
    out = {s: 2 * ref[s].radius for s in (0, 1)}
    for word in itertools.product((0, 1), repeat=m - n):
        if not word:
            continue  # empty tail: glued config equals the zero-filled prefix
        eta = config(BINARY, n + 1, word, Tail.ZERO_FILL)
        glued = glue(prefix.restrict(1, n), None, eta)
        for s in (0, 1):
            cur = single_site_kernel(params, s, glued)
            out[s] = max(out[s], abs(cur.value - ref[s].value)
                         + cur.radius + ref[s].radius)
    return out
