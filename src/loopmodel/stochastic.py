"""Game-of-chance view of the loop model and a stationary-law sampler.

Player A commits to a boundary link pattern, a uniformly random state
is drawn, and A wins when the state's pattern is the chosen one, so
A's winning probability is count(pattern)/total.  Player B gets a
uniformly random state followed by one random rewiring operation
applied to its pattern, so B's probability is a weighted column of the
transition matrix.  The two probabilities agreeing for every target
pattern is equivalent to the census histogram being stationary for the
Markov chain "pick one of the 2n operations uniformly, apply it",
whose transition matrix is the operator-sum matrix divided by 2n.

All probability computations are exact rationals; floats appear only
in reports.  The sampler uses a small explicit 64-bit generator so
trajectories are reproducible on any platform.  SplitMix64 is
counter-based, so the chain draws its moves in blocks: the states of a
block sit in 128-bit lanes of one Python int and the finalizer mixes
every lane at once (SIMD within a register).  The draws are
bit-identical to calling the scalar generator once per move.
"""
from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Callable
from functools import lru_cache

from . import fpl as _fpl
from . import patterns as _pat
from . import spectra as _spec
from ._record import FORMAT_VERSION, Frozen, set_field
from .patterns import LinkPattern, apply_h

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 4096  # most lanes in one lane-packed block of draws


def _mix(z: int, mask: int) -> int:
    """The splitmix64 finalizer on every 64-bit lane of z at once.

    mask keeps the low 64 bits of each lane; a lane is wide enough for
    a 64 x 64-bit product, so no carry crosses into the next lane.
    Bits shifted down from the lane above are masked off before each
    multiply; after the last shift they sit in the lane's high half.
    """
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def _lane_int(words) -> int:
    """One int whose 128-bit lane i holds words[i] (each below 2**64)."""
    return int.from_bytes(b"".join(w.to_bytes(16, "little") for w in words), "little")


@lru_cache(maxsize=16)
def _lane_constants(count: int) -> tuple[int, int, int]:
    """(ones, steps, mask) over count lanes, holding 1, (i + 1) * gamma
    and 2**64 - 1 in lane i: the lanes of state s are
    (s * ones + steps) & mask."""
    ones = _lane_int([1] * count)
    return ones, _lane_int(range(1, count + 1)) * _GAMMA, ones * _MASK64


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64 finalizer).

    Plain integer arithmetic, identical output on every platform.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        return _mix(self.state, _MASK64)

    def randbelow(self, k: int) -> int:
        """Uniform draw from range(k), 1 <= k <= 2**64, unbiased via rejection."""
        if not 0 < k <= 1 << 64:
            raise ValueError("k must be in 1..2**64")
        limit = (1 << 64) - ((1 << 64) % k)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % k

    def randbelow_many(self, k: int, count: int) -> list[int]:
        """[self.randbelow(k) for _ in range(count)], computed in lanes.

        Lane i of a block holds the state after i + 1 steps; every lane
        is mixed at once and read back as 64-bit words.  A block holds
        at most _BLOCK lanes, so a large count neither mixes one huge
        int nor leaves its lane constants in the cache.  Rejected draws
        are dropped and the shortfall comes from a further block, so the
        draws and the final state match the scalar calls exactly.
        """
        if not 0 < k <= 1 << 64:
            raise ValueError("k must be in 1..2**64")
        limit = (1 << 64) - ((1 << 64) % k)
        out: list[int] = []
        while len(out) < count:
            need = min(count - len(out), _BLOCK)
            ones, steps, mask = _lane_constants(need)
            z = _mix((self.state * ones + steps) & mask, mask)
            words = array("Q", z.to_bytes(16 * need, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            out += [u % k for u in words[::2] if u < limit]
            self.state = (self.state + need * _GAMMA) & _MASK64
        return out


def chain_seed(seed: int, chain: int) -> int:
    """Distinct, reproducible seed for an auxiliary chain."""
    return SplitMix64((seed ^ (0xA5A5A5A5DEADBEEF * (chain + 1))) & _MASK64).next_u64()


class PatternDistribution(Frozen):
    """Exact probability law over the pattern basis for one n."""

    __slots__ = _fields = ("n", "probabilities")
    n: int
    probabilities: dict[int, Fraction]

    def __init__(self, n: int, probabilities: dict[int, Fraction]) -> None:
        set_field(self, "n", n)
        set_field(self, "probabilities", probabilities)
        dim = _pat.catalan(n)
        total = 0
        for r, p in probabilities.items():
            if not (0 <= r < dim):
                raise ValueError(f"rank {r} out of range for n={n}")
            if p < 0:
                raise ValueError(f"negative probability at rank {r}")
            total += p
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def probability(self, rank: int) -> Fraction:
        from fractions import Fraction

        return self.probabilities.get(rank, Fraction(0))

    def float_view(self) -> dict[int, float]:
        return {r: float(p) for r, p in sorted(self.probabilities.items())}

    def tv_distance(self, other: PatternDistribution) -> Fraction:
        """Total-variation distance, exact."""
        from fractions import Fraction

        if self.n != other.n:
            raise ValueError("distributions live on different bases")
        p, q = self.probabilities, other.probabilities
        return sum(
            (abs(p.get(r, 0) - q.get(r, 0)) for r in set(p) | set(q)),
            Fraction(0),
        ) / 2


def stationary_law(n: int, max_n: int | None = None) -> PatternDistribution:
    """The conjectured stationary law count(pattern)/total of the grid
    census, exactly; the census checks n against the ceiling max_n."""
    from fractions import Fraction

    hist = _fpl.histogram(n, max_n=max_n)
    total = hist.total()
    probs = {r: Fraction(c, total) for r, c in hist.counts.items()}
    return PatternDistribution(n, probs)


def player_a_probability(n: int, target: LinkPattern,
                         hist: _fpl.PatternHistogram | None = None) -> Fraction:
    """Probability that a uniform state carries the target pattern."""
    from fractions import Fraction

    if target.n != n:
        raise ValueError("target pattern size does not match n")
    if hist is None:
        hist = _fpl.histogram(n)
    return Fraction(hist.count(_pat.rank(target)), hist.total())


def player_b_probability(n: int, target: LinkPattern,
                         hist: _fpl.PatternHistogram | None = None) -> Fraction:
    """Probability of landing on the target after one random rewiring.

    Sum over source patterns q of (count(q)/total) times the fraction
    of the 2n operation indices sending q to the target, all exact:
    the target's preimage sum over 2n * total.
    """
    from fractions import Fraction

    if target.n != n:
        raise ValueError("target pattern size does not match n")
    if hist is None:
        hist = _fpl.histogram(n)
    pre = _spec.preimage_sums_all(n, hist)[_pat.rank(target)]
    return Fraction(pre, 2 * n * hist.total())


def chain_step(p: LinkPattern, rng: SplitMix64) -> LinkPattern:
    """One move of the chain: uniform operation index, then apply."""
    i = rng.randbelow(2 * p.n) + 1
    return apply_h(i, p)


def _run_chain(n: int, burn_in: int, samples: int, seed: int,
               counts: list[int]) -> None:
    """Accumulate one chain's sample counts in place.

    Moves are drawn in blocks of at most _BLOCK; the walk is the same
    as one randbelow(2n) per step.
    """
    hop = _pat.hop_table(n)
    rng = SplitMix64(seed)
    two_n = 2 * n
    state = 0  # rank of the all-adjacent pattern, the lex minimum
    for start in range(0, burn_in, _BLOCK):
        for i in rng.randbelow_many(two_n, min(_BLOCK, burn_in - start)):
            state = hop[state][i]
    for start in range(0, samples, _BLOCK):
        for i in rng.randbelow_many(two_n, min(_BLOCK, samples - start)):
            state = hop[state][i]
            counts[state] += 1


class SamplerReport(Frozen):
    """Empirical outcome of a stationary-law sampling run."""

    __slots__ = _fields = ("n", "seed", "burn_in", "samples", "chains",
                           "counts", "tolerance", "tv_distance", "passed")
    n: int
    seed: int
    burn_in: int
    samples: int
    chains: int
    counts: tuple[int, ...]
    tolerance: float
    tv_distance: float | None
    passed: bool | None

    def __init__(self, n: int, seed: int, burn_in: int, samples: int,
                 chains: int, counts: tuple[int, ...], tolerance: float,
                 tv_distance: float | None, passed: bool | None) -> None:
        for name, value in zip(self._fields, (n, seed, burn_in, samples, chains,
                                              counts, tolerance, tv_distance,
                                              passed)):
            set_field(self, name, value)

    def empirical(self) -> PatternDistribution:
        from fractions import Fraction

        total = sum(self.counts)
        return PatternDistribution(
            self.n,
            {r: Fraction(c, total) for r, c in enumerate(self.counts) if c},
        )

    def to_json_obj(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": "sampler-report",
            "n": self.n,
            "seed": self.seed,
            "burn_in": self.burn_in,
            "samples": self.samples,
            "chains": self.chains,
            "empirical": {str(r): c for r, c in enumerate(self.counts) if c},
            "tolerance": self.tolerance,
            "tv_distance": self.tv_distance,
            "pass": self.passed,
        }


def default_tv_tolerance(n: int, samples: int) -> float:
    """Three times the worst-case standard error of the TV statistic.

    Each cell's frequency has binomial standard error at most
    0.5/sqrt(N); total variation halves the sum over the Catalan(n)
    cells, so the statistic's worst-case error is C(n)/(4 sqrt(N)).
    """
    return min(1.0, 3 * _pat.catalan(n) / (4 * samples ** 0.5))


def sample_stationary(n: int, burn_in: int = 1000, samples: int = 100_000,
                      seed: int = 0, chains: int = 1,
                      max_n: int | None = None,
                      compare: bool | Callable[..., _fpl.PatternHistogram] = True,
                      tolerance: float | None = None) -> SamplerReport:
    """Run the chain and compare empirical frequencies to the exact law.

    One sample is recorded per step after burn-in, no thinning.  With
    chains > 1 the samples are split across independently seeded
    chains (derived deterministically from the master seed) and the
    counts merged by addition; the result depends only on the
    arguments, never on scheduling.  Set compare=False to skip the
    census and report frequencies alone, or pass a census function to
    call as census(n, max_n=max_n) in place of fpl.histogram.  The
    arguments, then n against the size ceiling (max_n, else
    patterns.MAX_N), are checked before the census.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    if chains <= 0:
        raise ValueError("chains must be positive")
    if tolerance is not None and not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be a finite positive number")
    # n is admitted before any census work; as the first basis call,
    # this one's span in perfbench times the basis build
    _pat.enumerate_patterns(n, max_n)
    census = compare if callable(compare) else _fpl.histogram
    hist = census(n, max_n=max_n) if compare else None
    dim = _pat.catalan(n)
    counts = [0] * dim
    per = [samples // chains] * chains
    for c in range(samples % chains):
        per[c] += 1
    for c in range(chains):
        if per[c] == 0:
            continue
        s = seed if chains == 1 else chain_seed(seed, c)
        _run_chain(n, burn_in, per[c], s, counts)

    tol = default_tv_tolerance(n, samples) if tolerance is None else tolerance
    tv = None
    passed = None
    if hist is not None:
        # the exact TV distance, sum |c/N - h/A| / 2 over N samples and
        # A states, kept in integers; int / int rounds correctly, as
        # float(Fraction) does, so the float is the one the law gives
        total = hist.total()
        diff = sum([abs(c * total - hist.count(r) * samples)
                    for r, c in enumerate(counts)])
        tv = diff / (2 * samples * total)
        passed = tv <= tol
    return SamplerReport(
        n, seed, burn_in, samples, chains, tuple(counts), tol, tv, passed
    )


# -- chain structure check -------------------------------------------------


def is_aperiodic(n: int) -> bool:
    """Every pattern keeps at least one operation fixing it."""
    _pat.check_n(n)
    return all(r in row for r, row in enumerate(_pat.hop_table(n)))
