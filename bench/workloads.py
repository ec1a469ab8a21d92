"""Seeded workloads for the gibbslab benchmark.

A workload is a fixed list of public library calls (ops) built from the seed
alone, the canonical CLI jobs that go with it, and the parameter containers a
fresh process builds before its first call.  Each of the two workloads joins
two op groups: channel-exact and volume-relent make `rational`, channel-float
and gibbs-kernel make `float-kernel`.  Every op carries a check that
compares its result with an answer derived another way: the brute-force
oracle on small instances, an exact identity, rational mode for float
answers, or an exact bracket for sampled estimates.  A check computes its
reference once and is only ever called outside the timed region.

The op mix of each workload is chosen so that the median and the 90th
percentile of op latency fall where many ops have similar latencies, not in
a gap between op kinds, and word lengths follow a fixed schedule with seeded
contents: the latency quantiles then hardly depend on the seed.
"""
from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from gibbslab import bitshift as bs
from gibbslab import core
from gibbslab import oracle
from gibbslab import relent as rel
from gibbslab import weak_gibbs as wg

TOL = 1e-12  # float answers against rational mode or the oracle

# False-alarm rate of one sampled check on a correct program.  Three standard
# errors would fail about one seeded run in 370, and the benchmark is run
# with many seeds, so the sampled checks are held at this rate instead.
ALPHA = 1e-6
Z_ALPHA = statistics.NormalDist().inv_cdf(1 - ALPHA / 2)

ORACLE_WORD = 4  # longest channel word checked against the brute-force oracle


class Mismatch(Exception):
    """A result disagrees with its independently derived reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class CliJob:
    argv: list[str]                 # subcommand and flags; the runner adds --config and --out
    config: dict
    check: Callable[[str], None]    # receives the text the job wrote


@dataclass
class Workload:
    ops: list[Op]
    cli_jobs: list[CliJob]


@dataclass(frozen=True)
class Spec:
    containers: Callable[[], tuple]
    build: Callable[[int], Workload]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _bits(rnd: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rnd.getrandbits(1) for _ in range(n))


def _csv_rows(text: str) -> list[list[str]]:
    """Data rows of a CLI CSV output, without comments and header."""
    return list(csv.reader(line for line in text.splitlines()
                           if not line.startswith("#")))[1:]


# ---------------------------------------------------------------- channels

def _channel_a(exact: bool = True) -> bs.ChannelParams:
    if exact:
        return bs.ChannelParams(2, 3, (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 4))
    return bs.ChannelParams(2, 3, (0.5, 0.5), 0.25)


def _channel_b(exact: bool = True) -> bs.ChannelParams:
    if exact:
        return bs.ChannelParams(2, 4, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)),
                                Fraction(1, 8))
    return bs.ChannelParams(2, 4, (0.25, 0.5, 0.25), 0.125)


def _channel_word(rnd: random.Random, params: bs.ChannelParams, n: int) -> tuple[int, ...]:
    """An output word drawn from the channel itself, so it is admissible."""
    x = rnd.choices(params.input_symbols, weights=[float(p) for p in params.p], k=n)
    e = float(params.eps)
    w = rnd.choices((-1, 0, 1), weights=(e, 1 - 2 * e, e), k=n + 1)
    return tuple(x[i] + w[i + 1] - w[i] for i in range(n))


def _cylinder_reference(params: bs.ChannelParams) -> Callable[[tuple], Fraction]:
    """P(word) from the oracle for short words, else from the identity
    P(w) = sum over y of P(w y)."""
    @functools.cache
    def ref(word: tuple[int, ...]) -> Fraction:
        if len(word) <= ORACLE_WORD:
            return oracle.brute_channel_cylinder(params, word)
        return sum(bs.cylinder_prob(params, word + (y,)) for y in params.output_symbols)
    return ref


def _check_cylinder(ref, word):
    def check(res):
        expect(res == ref(word), f"P({word}) = {res}, reference {ref(word)}")
    return check


def _check_admissible(params, ref, word):
    def check(res):
        expect(res.admissible == (ref(word) > 0), f"admissibility of {word}")
        if res.admissible:
            x, om = res.x, res.omega
            expect(len(x) == len(word) and len(om) == len(word) + 1
                   and all(params.d <= v <= params.k for v in x)
                   and all(v in bs.JITTER for v in om)
                   and all(x[i] + om[i + 1] - om[i] == word[i] for i in range(len(word))),
                   f"witness does not produce {word}")
    return check


def _check_conditional(params, ref, symbol, given):
    @functools.cache
    def reference():
        words = [(t,) + given for t in params.output_symbols]
        joint = [ref(w) if len(w) <= ORACLE_WORD else bs.cylinder_prob(params, w) for w in words]
        expect(sum(joint) == ref(given), f"sum over t of P(t {given}) != P({given})")
        return joint[symbol] / ref(given)

    def check(res):
        expect(res == reference(), f"P({symbol} | {given}) = {res}")
    return check


def _check_bad_config(params, ref, n_max):
    def check(rows):
        expect([r.n for r in rows] == list(range(1, n_max + 1)), "bad-config row indices")
        for r in rows:
            expect(r.conditional == r.p_joint / r.p_run and r.scaled == r.n * r.conditional,
                   f"bad-config row {r.n} is inconsistent")
            if r.n + 1 <= ORACLE_WORD or r.n % 10 == 0:
                expect(r.p_run == ref((2,) * r.n) and r.p_joint == ref((0,) + (2,) * r.n),
                       f"bad-config row {r.n} disagrees with its reference")
        for a, b in zip(rows, rows[1:]):
            # cylinders shrink as the word grows; [0 2^n] sits inside a shift of [2^n]
            expect(0 < b.p_run <= a.p_run and b.p_joint <= a.p_joint <= a.p_run,
                   f"bad-config rows {a.n}, {b.n} are not nested")
    return check


def _check_block_distribution(params, n, rnd):
    spot = None

    @functools.cache
    def marginal_ref():
        return oracle.brute_channel_distribution(params, n - 1)

    def check(dist):
        nonlocal spot
        expect(sum(dist.values()) == 1, "block distribution does not sum to 1")
        expect(all(len(w) == n and p > 0 for w, p in dist.items()), "block distribution entries")
        marginal: dict = {}
        for w, p in dist.items():
            marginal[w[:-1]] = marginal.get(w[:-1], 0) + p
        expect(marginal == marginal_ref(), "block distribution marginal differs from the oracle")
        if spot is None:
            spot = {w: bs.cylinder_prob(params, w) for w in rnd.sample(sorted(dist), 20)}
        expect(all(dist.get(w) == p for w, p in spot.items()),
               "block distribution entry differs from cylinder_prob")
    return check


def _exact_containers() -> tuple:
    a, b = _channel_a(), _channel_b()
    return a, b, bs.BitShiftMeasure(a), bs.BitShiftMeasure(b)


def _build_exact(seed: int) -> Workload:
    rnd = _rng("channel-exact", seed)
    a, b, meas_a, meas_b = _exact_containers()
    ops: list[Op] = []
    for params, meas in ((a, meas_a), (b, meas_b)):
        ref = _cylinder_reference(params)
        alphabet = meas.alphabet
        for n in range(2, 13):
            for rep in range(3):
                sampled = _channel_word(rnd, params, n)
                uniform = tuple(rnd.choices(params.output_symbols, k=n))
                for word in (sampled, uniform):
                    ops.append(Op("cylinder_prob",
                                  lambda p=params, w=word: bs.cylinder_prob(p, w),
                                  _check_cylinder(ref, word)))
                # one cheap admissibility op per two cylinder ops keeps the
                # median op latency among the cylinder and conditional ops
                word = sampled if rep == 0 else uniform
                ops.append(Op("is_admissible",
                              lambda p=params, w=word: bs.is_admissible(p, w),
                              _check_admissible(params, ref, word)))
                symbol = rnd.choice(params.output_symbols)
                target = core.config(alphabet, 0, (symbol,))
                given = core.config(alphabet, 1, sampled)
                ops.append(Op("conditional_prob",
                              lambda m=meas, t=target, g=given: core.conditional_prob(m, t, g),
                              _check_conditional(params, ref, symbol, sampled)))
    for params, n_max in ((a, 60), (b, 40)):
        ops.append(Op("bad_config_table",
                      lambda p=params, k=n_max: bs.bad_config_table(p, k),
                      _check_bad_config(params, _cylinder_reference(params), n_max)))
    ops.append(Op("block_distribution", lambda: bs.block_distribution(a, 6),
                  _check_block_distribution(a, 6, rnd)))

    cyl_cfg = {"d": 2, "k": 3, "p": ["1/2", "1/2"], "eps": "1/4", "queries": [
        {"y": [2, 3, 2]}, {"y": [0, 2, 2, 2]}, {"y": [0, 0]}, {"y": [4, 3, 5, 2, 3]},
        {"y": [0], "given": [2, 2, 2, 2]}, {"y": [3], "given": [2, 4, 3, 3]},
        {"y": [1, 2], "given": [3, 3]}]}

    @functools.cache
    def cyl_ref():
        out = []
        for q in cyl_cfg["queries"]:
            y = tuple(q["y"])
            adm = bs.is_admissible(a, y).admissible
            if "given" in q:
                g = tuple(q["given"])
                out.append((adm, bs.cylinder_prob(a, y + g) / bs.cylinder_prob(a, g)))
            else:
                out.append((adm, bs.cylinder_prob(a, y)))
        return out

    def check_cyl(text):
        got = [(e["admissible"], core.parse_prob(e["conditional" if "given" in e else "prob"]))
               for e in json.loads(text)["results"]]
        expect(got == cyl_ref(), "bs-cylinder output differs from the API")

    bad_cfg = {"d": 2, "k": 3, "p": ["1/2", "1/2"], "eps": "1/4", "n_max": 30}

    @functools.cache
    def bad_ref():
        return [[str(r.n)] + [core.format_prob(v)
                              for v in (r.p_joint, r.p_run, r.conditional, r.scaled)]
                for r in bs.bad_config_table(a, 30)]

    def check_bad(text):
        expect(_csv_rows(text) == bad_ref(), "bs-badconfig output differs from the API")

    return Workload(ops, [CliJob(["bs-cylinder"], cyl_cfg, check_cyl),
                          CliJob(["bs-badconfig"], bad_cfg, check_bad)])


def _float_containers() -> tuple:
    af, bf = _channel_a(exact=False), _channel_b(exact=False)
    return af, bf, bs.BitShiftMeasure(af), bs.BitShiftMeasure(bf)


@functools.cache
def _oracle_levels(params: bs.ChannelParams, n_max: int) -> tuple[float, ...]:
    """H_1 .. H_n_max in nats from the oracle's materialized distributions."""
    return tuple(oracle.brute_block_entropy(params, n) for n in range(1, n_max + 1))


def _check_levels(exact_twin, n, n_oracle):
    def check(levels):
        expect(len(levels) == n, "entropy level count")
        for h, ref in zip(levels, _oracle_levels(exact_twin, n_oracle)):
            expect(close(float(h), ref), f"block entropy {h} vs oracle {ref}")
        deltas = [levels[0]] + [levels[i] - levels[i - 1] for i in range(1, n)]
        expect(all(d > 0 for d in deltas) and
               all(d2 <= d1 + TOL for d1, d2 in zip(deltas, deltas[1:])),
               "block entropy increments are not positive and nonincreasing")
    return check


def _check_bounds(exact_twin, n_max, n_oracle):
    def check(rows):
        expect([r.n for r in rows] == list(range(1, n_max + 1)), "bound table row indices")
        h = (0.0,) + _oracle_levels(exact_twin, n_oracle)
        for r in rows:
            expect(r.lower <= r.upper + TOL, f"bracket inverted at n={r.n}")
            if r.n <= n_oracle:
                expect(close(r.upper, h[r.n] - h[r.n - 1]), f"upper bound at n={r.n} vs oracle")
        for a, b in zip(rows, rows[1:]):
            expect(b.upper <= a.upper + TOL and b.lower >= a.lower - TOL,
                   f"bounds do not tighten from n={a.n} to n={b.n}")
    return check


def _check_smb(af, exact_twin, n, samples):
    @functools.cache
    def bracket():
        # E[-(1/n) log P(Y_1..n)] = H_n / n, which lies in [h, (H_5 + (n-5) D_5) / n]
        # because the increments D_k = H_k - H_(k-1) do not increase; h >= lower(6)
        h = _oracle_levels(exact_twin, 5)
        lo = bs.entropy_bound_table(af, 6)[-1].lower
        return lo, (h[4] + (n - 5) * (h[4] - h[3])) / n

    def check(est):
        lo, hi = bracket()
        slack = Z_ALPHA * est.stderr
        expect(est.samples == samples and est.word_length == n, "SMB sample shape")
        expect(lo - slack <= est.mean <= hi + slack,
               f"SMB mean {est.mean} outside [{lo}, {hi}] +- {slack}")
    return check


def _check_capacity(d, k, eps):
    @functools.cache
    def bounds(p):
        return bs.entropy_bounds(bs.ChannelParams(d, k, p, eps), 5)

    def check(res):
        expect(sum(res.p) == 1 and all(w > 0 for w in res.p), "capacity weights")
        lo, up = bounds(tuple(res.p))
        expect(res.lower == lo and res.upper == up and res.midpoint == (lo + up) / 2,
               "capacity bounds differ from entropy_bounds at the reported weights")
        ulo, uup = bounds((Fraction(1, 2), Fraction(1, 2)))
        expect(res.midpoint >= (ulo + uup) / 2, "capacity search lost to the uniform input")
    return check


@functools.cache
def _rational_cylinder(params: bs.ChannelParams, word: tuple[int, ...]) -> Fraction:
    return bs.cylinder_prob(params, word)


def _check_float_cylinder(exact_twin, word, log):
    def check(res):
        r = _rational_cylinder(exact_twin, word)
        ref = math.log(r.numerator) - math.log(r.denominator) if log else float(r)
        expect(abs(res - ref) <= TOL * abs(ref), f"float answer {res} vs rational {ref}")
    return check


def _build_float(seed: int) -> Workload:
    rnd = _rng("channel-float", seed)
    af, bf, _, _ = _float_containers()
    a, b = _channel_a(), _channel_b()
    ops: list[Op] = []
    for fparams, twin in ((af, a), (bf, b)):
        for length in range(200, 500, 10):
            word = _channel_word(rnd, twin, length)
            ops.append(Op("cylinder_prob",
                          lambda p=fparams, w=word: bs.cylinder_prob(p, w),
                          _check_float_cylinder(twin, word, log=False)))
            ops.append(Op("cylinder_log_prob",
                          lambda p=fparams, w=word: bs.cylinder_log_prob(p, w),
                          _check_float_cylinder(twin, word, log=True)))
    ops.append(Op("entropy_bound_table", lambda: bs.entropy_bound_table(af, 10),
                  _check_bounds(a, 10, 5)))
    ops.append(Op("entropy_bound_table", lambda: bs.entropy_bound_table(bf, 8),
                  _check_bounds(b, 8, 4)))
    # n=9 is one level past the first BLOCK_ROWS split of this channel's sweep
    ops.append(Op("entropy_levels", lambda: bs.entropy_levels(af, 9), _check_levels(a, 9, 5)))
    smb_rng = core.Rng(seed, 7)
    ops.append(Op("smb_estimate", lambda: bs.smb_estimate(af, 200, 2000, smb_rng),
                  _check_smb(af, a, 200, 2000)))
    ops.append(Op("capacity_search", lambda: bs.capacity_search(2, 3, 0.25),
                  _check_capacity(2, 3, 0.25)))

    cfg = {"experiment": "levels", "d": 2, "k": 3, "p": [0.5, 0.5], "eps": 0.25, "n_max": 9}

    @functools.cache
    def levels_ref():
        return [[str(n + 1), repr(float(h)), repr(float(h) / math.log(2))]
                for n, h in enumerate(bs.entropy_levels(af, 9))]

    def check_levels(text):
        expect(_csv_rows(text) == levels_ref(), "bs-entropy output differs from the API")

    return Workload(ops, [CliJob(["bs-entropy", "--mode", "float"], cfg, check_levels)])


# ---------------------------------------------------------------- weak Gibbs kernel

GLUE_POINTS = [2, 5, 10, 25, 50, 100, 200, 300]
TAIL_EPS = 0.03


def _kernel_containers() -> tuple:
    return wg.InteractionParams(Fraction(1, 2), 400), wg.InteractionParams(Fraction(1, 2), 40)


def _kernel_reference(m: int) -> Callable[[tuple], float]:
    """gamma(1 | tail) for a zero-filled tail on sites 1..len(tail) <= m, from
    the oracle's literal Boltzmann weight of the configuration (1, tail)."""
    params = wg.InteractionParams(0.5, m)  # rho = 1/2 is exact in float

    @functools.cache
    def gamma(tail: tuple[int, ...]) -> float:
        w = oracle._brute_weight(params, (1,) + tail)
        return w / (1 + w)
    return gamma


def _literal_correlation_length(bits: tuple[int, ...]) -> int:
    """Smallest K >= 1 such that no bad set B_k, k >= K, is hit; bits sit on
    sites 1..len(bits) and every later site holds 0."""
    def site(i):
        return bits[i - 1] if 1 <= i <= len(bits) else 0

    def hit(k):
        return all(site(i) == 1 for i in range(3 * k // 2, 2 * k + 1))
    return next(big_k for big_k in itertools.count(1)
                if not any(hit(k) for k in range(big_k, len(bits) + 1)))


def _binomial_pvalue(count: int, trials: int, f: float) -> float:
    """Probability under Binomial(trials, f) of a count no likelier than `count`."""
    pmf = [math.comb(trials, i) * f ** i * (1 - f) ** (trials - i) for i in range(trials + 1)]
    return sum(p for p in pmf if p <= pmf[count] * (1 + 1e-9))


def _build_kernel(seed: int) -> Workload:
    rnd = _rng("gibbs-kernel", seed)
    p400, p40 = _kernel_containers()
    gamma400, gamma40 = _kernel_reference(400), _kernel_reference(40)
    ops: list[Op] = []

    def glued_check(omega_bits, eta_bits):
        def check(rows):
            ref = gamma400(omega_bits)
            expect([r.n for r in rows] == GLUE_POINTS, "glue points")
            for r in rows:
                want = abs(gamma400(omega_bits[:r.n] + eta_bits[r.n:]) - ref)
                expect(r.radius == 0.0 and abs(r.sup_diff - want) <= TOL,
                       f"glued row n={r.n}: {r.sup_diff} vs oracle {want}")
        return check

    for _ in range(50):
        omega_bits, eta_bits = _bits(rnd, 400), _bits(rnd, 400)
        omega, eta = core.binary_config(omega_bits, lo=1), core.binary_config(eta_bits, lo=1)
        ops.append(Op("glued_convergence_table",
                      lambda o=omega, e=eta: wg.glued_convergence_table(p400, o, e, GLUE_POINTS),
                      glued_check(omega_bits, eta_bits)))

    def corr_check(bits):
        want = _literal_correlation_length(bits)

        def check(k):
            expect(k == want, f"correlation length {k}, literal {want}")
        return check

    for _ in range(30):
        bits = list(_bits(rnd, 64))
        k = rnd.randint(3, 20)
        bits[3 * k // 2 - 1:2 * k] = [1] * (2 * k - 3 * k // 2 + 1)  # plant a hit of B_k
        bits = tuple(bits)
        ops.append(Op("correlation_length",
                      lambda c=core.binary_config(bits, lo=1): wg.correlation_length(c),
                      corr_check(bits)))

    def radius_check(prefix_bits, m):
        @functools.cache
        def reference():
            ref = gamma40(prefix_bits)
            return max(abs(gamma40(prefix_bits + t) - ref)
                       for t in itertools.product((0, 1), repeat=m - len(prefix_bits)))

        def check(out):
            expect(sorted(out) == [0, 1] and all(abs(out[s] - reference()) <= TOL for s in (0, 1)),
                   f"kernel radius {out} vs oracle {reference()}")
        return check

    for m in (30, 32):  # 2^10 and 2^12 tails behind a 20-site prefix
        prefix_bits = _bits(rnd, 20)
        ops.append(Op("kernel_radius_enumerated",
                      lambda c=core.binary_config(prefix_bits, lo=1), mm=m:
                      wg.kernel_radius_enumerated(p40, c, mm),
                      radius_check(prefix_bits, m)))

    omega_bits = _bits(rnd, 400)
    omega = core.binary_config(omega_bits, lo=1)
    n, samples, depth = 6, 400, 10
    tail_rng = core.Rng(seed, 11)

    @functools.cache
    def tail_fraction():
        ref = gamma400(omega_bits)
        hits = sum(abs(gamma400(omega_bits[:n] + t) - ref) > TAIL_EPS
                   for t in itertools.product((0, 1), repeat=depth))
        return hits / 2 ** depth

    def tail_check(est):
        count = round(est.value * samples)
        expect(est.samples == samples and 0 <= count <= samples
               and abs(count / samples - est.value) < 1e-9, "tail fraction is not a sample frequency")
        expect(_binomial_pvalue(count, samples, tail_fraction()) >= ALPHA,
               f"tail fraction {est.value} inconsistent with the exact {tail_fraction()}")

    ops.append(Op("bad_tail_fraction",
                  lambda: wg.bad_tail_fraction(p400, omega, TAIL_EPS, n, samples, tail_rng,
                                               tail_depth=depth),
                  tail_check))

    omega_s, eta_s = ("110" * 134)[:400], "1011" * 100
    cfg = {"experiment": "glued", "rho": "1/2", "m": 400, "omega": omega_s, "eta": eta_s,
           "n_list": [5, 10, 20, 50, 100, 200]}

    @functools.cache
    def glued_ref():
        rows = wg.glued_convergence_table(p400, core.binary_config(omega_s, lo=1),
                                          core.binary_config(eta_s, lo=1), cfg["n_list"])
        return [[str(r.n), repr(r.sup_diff), repr(r.radius)] for r in rows]

    def check_glued(text):
        expect(_csv_rows(text) == glued_ref(), "wg-converge glued output differs from the API")

    return Workload(ops, [CliJob(["wg-converge"], cfg, check_glued)])


# ---------------------------------------------------------------- finite volumes and relent

class _GibbsOracle:
    """Cylinder and event probabilities of the volume-[0, m] measure, from the
    oracle's literal weight of every one of the 2^(m+1) configurations."""

    def __init__(self, params: wg.InteractionParams):
        self.m = params.m
        self.weights = {s: oracle._brute_weight(params, s)
                        for s in itertools.product((0, 1), repeat=params.m + 1)}
        self.total = sum(self.weights.values())

    @functools.cache
    def window(self, lo: int, hi: int) -> dict[tuple[int, ...], Fraction]:
        """Distribution of the word on sites lo..hi, each window summed from
        the next larger one."""
        if (lo, hi) == (0, self.m):
            return {s: w / self.total for s, w in self.weights.items()}
        wider, cut = (self.window(lo, hi + 1), slice(None, -1)) if hi < self.m \
            else (self.window(lo - 1, hi), slice(1, None))
        out: dict[tuple[int, ...], Fraction] = {}
        for s, p in wider.items():
            out[s[cut]] = out.get(s[cut], 0) + p
        return out

    def event(self, fixed: dict[int, int]) -> Fraction:
        return sum(w for s, w in self.weights.items()
                   if all(s[i] == v for i, v in fixed.items())) / self.total


def _iid(weights: dict[int, Fraction], word: tuple[int, ...]) -> Fraction:
    return math.prod((weights[v] for v in word), start=Fraction(1))


def _volume_containers() -> tuple:
    nu12 = wg.FiniteVolumeMeasure(wg.InteractionParams(Fraction(1, 2), 12), mode="rational")
    nu10 = wg.FiniteVolumeMeasure(wg.InteractionParams(Fraction(1, 3), 10), mode="rational")
    site = nu10.distribution(core.Window(1, 1))
    marg10 = core.BernoulliMeasure(core.BINARY, [site[(0,)], site[(1,)]], label="marginals")
    channel = bs.BitShiftMeasure(_channel_a())
    one = channel.distribution(core.Window(0, 0))
    marg_ch = core.BernoulliMeasure(channel.alphabet, [one[(s,)] for s in channel.alphabet],
                                    label="channel-marginals")
    return nu12, nu10, core.fair_coin(), marg10, channel, marg_ch


def _probe_check(get_oracle, symbol, omega_bits):
    def check(res):
        o = get_oracle()
        m = len(omega_bits)
        want = tuple(o.window(0, n)[(symbol,) + omega_bits[:n]] / o.window(1, n)[omega_bits[:n]]
                     for n in range(1, m + 1))
        expect(res.ns == tuple(range(1, m + 1)) and res.values == want
               and res.failed_at is None
               and res.limit == (res.values[-1] if res.converged else None),
               "regularity probe differs from the oracle conditionals")
    return check


def _event_check(get_oracle, fixed):
    def check(res):
        expect(res == get_oracle().event(fixed), f"event probability of {fixed}")
    return check


def _build_volume(seed: int) -> Workload:
    rnd = _rng("volume-relent", seed)
    nu12, nu10, fair, marg10, channel, marg_ch = _volume_containers()
    oracles = {nu: functools.cache(functools.partial(_GibbsOracle, nu.params))
               for nu in (nu12, nu10)}

    def density_check(nu, mu, n_max):
        def check(rows):
            o = oracles[nu]()
            expect([r.n for r in rows] == list(range(1, n_max + 1)), "density rows")
            for r in rows:
                p = o.window(1, r.n)
                want = math.fsum(float(pw) * math.log(float(pw / _iid(mu.weights, w)))
                                 for w, pw in p.items() if pw != 0)
                expect(close(r.window_value, want) and close(r.per_site, want / r.n),
                       f"relative entropy on [1,{r.n}]: {r.window_value} vs oracle {want}")
        return check

    def tv_check(res):
        expect(res.exact and res.equal and res.lhs == res.rhs and res.lhs >= 0,
               f"TV identity: lhs {res.lhs} != rhs {res.rhs}")

    def gap_check(nu, mu, n_max):
        def check(rows):
            o = oracles[nu]()
            expect([r.n for r in rows] == list(range(1, n_max + 1)), "gap rows")
            for r in rows:
                p = o.window(0, r.n)
                p_rest: dict = {}
                q_rest: dict = {}
                for w in itertools.product((0, 1), repeat=r.n + 1):
                    p_rest[w[1:]] = p_rest.get(w[1:], 0) + p.get(w, 0)
                    q_rest[w[1:]] = q_rest.get(w[1:], 0) + _iid(mu.weights, w)
                gaps = {rest: sum(abs(p.get((s,) + rest, 0) / p_rest[rest]
                                      - _iid(mu.weights, (s,) + rest) / q_rest[rest])
                                  for s in (0, 1))
                        for rest in p_rest if p_rest[rest] != 0}
                mean = float(sum(p_rest[rest] * g for rest, g in gaps.items()))
                expect(close(r.mean_gap, mean) and close(r.max_gap, float(max(gaps.values())))
                       and r.conditioned_on == len(gaps),
                       f"conditional gap at n={r.n}: {r.mean_gap} vs oracle {mean}")
        return check

    @functools.cache
    def channel_relent():
        p = oracle.brute_channel_distribution(_channel_a(), 3)
        one = oracle.brute_channel_distribution(_channel_a(), 1)
        q = {s: one.get((s,), Fraction(0)) for s in channel.alphabet}
        return math.fsum(float(pw) * math.log(float(pw / _iid(q, w))) for w, pw in p.items())

    def channel_check(rep):
        expect(not rep.infinite and close(rep.value, channel_relent()),
               f"channel relative entropy {rep.value} vs oracle {channel_relent()}")

    ops: list[Op] = []
    for nu, m in ((nu10, 10), (nu12, 12)):
        for _ in range(35):
            symbol = rnd.getrandbits(1)
            omega_bits = _bits(rnd, m)
            ops.append(Op("regularity_probe",
                          lambda v=nu, t=core.config(core.BINARY, 0, (symbol,)),
                          o=core.binary_config(omega_bits, lo=1), mm=m:
                          core.regularity_probe(v, t, o, range(1, mm + 1)),
                          _probe_check(oracles[nu], symbol, omega_bits)))
        for _ in range(20):
            sites = rnd.sample(range(m + 1), rnd.randint(2, 4))
            fixed = {i: rnd.getrandbits(1) for i in sorted(sites)}
            ops.append(Op("event_prob", lambda v=nu, f=fixed: v.event_prob(f),
                          _event_check(oracles[nu], fixed)))
    ops += [
        Op("relative_entropy_density", lambda: rel.relative_entropy_density(nu12, fair, 8),
           density_check(nu12, fair, 8)),
        Op("relative_entropy_density", lambda: rel.relative_entropy_density(nu10, marg10, 8),
           density_check(nu10, marg10, 8)),
        Op("tv_identity_check",
           lambda: rel.tv_identity_check(nu12, fair, core.Window(3, 4), core.Window(1, 8)), tv_check),
        Op("tv_identity_check",
           lambda: rel.tv_identity_check(nu10, marg10, core.Window(1, 1), core.Window(1, 7)), tv_check),
        Op("conditional_gap_probe",
           lambda: rel.conditional_gap_probe(nu12, fair, core.Window(0, 0), 8),
           gap_check(nu12, fair, 8)),
        Op("conditional_gap_probe",
           lambda: rel.conditional_gap_probe(nu10, marg10, core.Window(0, 0), 7),
           gap_check(nu10, marg10, 7)),
        Op("window_relative_entropy",
           lambda: rel.window_relative_entropy(channel, marg_ch, core.Window(1, 3)), channel_check),
    ]

    tv_cfg = {"experiment": "tv_identity", "nu": {"kind": "weak_gibbs", "rho": "1/2", "m": 10},
              "mu": {"kind": "fair_coin"}, "lam": {"lo": 2, "hi": 3}, "delta": {"lo": 1, "hi": 7}}

    @functools.cache
    def tv_ref():
        nu = wg.FiniteVolumeMeasure(wg.InteractionParams(Fraction(1, 2), 10), mode="rational")
        res = rel.tv_identity_check(nu, core.fair_coin(), core.Window(2, 3), core.Window(1, 7))
        return {"lhs": core.format_prob(res.lhs), "rhs": core.format_prob(res.rhs),
                "exact": res.exact, "equal": res.equal}

    def check_tv(text):
        expect(json.loads(text)["result"] == tv_ref(),
               "relent tv_identity output differs from the API")

    probe_omega = "101101101101"
    probe_cfg = {"experiment": "probe", "rho": "1/2", "m": 12, "omega": probe_omega,
                 "n_range": list(range(1, 13))}

    @functools.cache
    def probe_ref():
        nu = wg.FiniteVolumeMeasure(wg.InteractionParams(Fraction(1, 2), 12), mode="rational")
        res = core.regularity_probe(nu, core.config(core.BINARY, 0, (1,)),
                                    core.binary_config(probe_omega, lo=1), range(1, 13))
        return [[str(n), core.format_prob(v)] for n, v in zip(res.ns, res.values)]

    def check_probe(text):
        expect(_csv_rows(text) == probe_ref(), "wg-converge probe output differs from the API")

    return Workload(ops, [CliJob(["relent"], tv_cfg, check_tv),
                          CliJob(["wg-converge"], probe_cfg, check_probe)])


def _union(*specs: Spec) -> Spec:
    """One workload made of several op groups, run in sequence in every pass."""
    def containers():
        return tuple(x for spec in specs for x in spec.containers())

    def build(seed):
        parts = [spec.build(seed) for spec in specs]
        return Workload([op for part in parts for op in part.ops],
                        [job for part in parts for job in part.cli_jobs])
    return Spec(containers, build)


# Op groups: each is seeded from its own stream of the workload seed.
CHANNEL_EXACT = Spec(_exact_containers, _build_exact)
CHANNEL_FLOAT = Spec(_float_containers, _build_float)
GIBBS_KERNEL = Spec(_kernel_containers, _build_kernel)
VOLUME_RELENT = Spec(_volume_containers, _build_volume)

# Two workloads, so that each run can be long: on a shared host whose speed
# drifts over tens of seconds, shorter runs of four workloads did not repeat
# within their bounds.  `rational` runs every Fraction forward recursion and
# relent and no kernel or numpy code; `float-kernel` runs the numpy paths and
# the weak-Gibbs kernel and no rational recursion, distribution() or relent.
WORKLOADS: dict[str, Spec] = {
    "rational": _union(CHANNEL_EXACT, VOLUME_RELENT),
    "float-kernel": _union(CHANNEL_FLOAT, GIBBS_KERNEL),
}
