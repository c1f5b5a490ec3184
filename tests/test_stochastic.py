"""Game identities, chain structure, and the stationary-law sampler."""
from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from exact_reference import strongly_connected
from loopmodel import cli, fpl, patterns, stochastic as st
from loopmodel.stochastic import SplitMix64

# reference first outputs of the 64-bit generator for seed 0 and 1,
# frozen from the published splitmix64 stream
SPLITMIX_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
SPLITMIX_SEED1 = (0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E)


def test_splitmix64_reference_stream():
    r = SplitMix64(0)
    assert tuple(r.next_u64() for _ in range(3)) == SPLITMIX_SEED0
    r = SplitMix64(1)
    assert tuple(r.next_u64() for _ in range(3)) == SPLITMIX_SEED1


def test_randbelow_range_and_determinism():
    r1, r2 = SplitMix64(99), SplitMix64(99)
    draws = [r1.randbelow(7) for _ in range(2000)]
    assert draws == [r2.randbelow(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        SplitMix64(0).randbelow(0)


@pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["seed0", "seed2^64-1"])
@pytest.mark.parametrize("count", [1, 333, 4096, 2 * st._BLOCK + 333])
@pytest.mark.parametrize("k", [1, 7, 20, 2**64 - 1, 2**63 + 1],
                         ids=["k1", "k7", "k20", "k2^64-1", "k2^63+1"])
def test_randbelow_many_matches_repeated_randbelow(k, count, seed):
    # at k = 2**63 + 1 about half the 64-bit draws are rejected; the
    # largest count spans several blocks
    scalar, block = SplitMix64(seed), SplitMix64(seed)
    expected = [scalar.randbelow(k) for _ in range(count)]
    assert block.randbelow_many(k, count) == expected
    assert block.state == scalar.state


def test_randbelow_many_holds_no_memory_after_it_returns():
    # one int of 300,000 lanes peaked at 51 MB and left 15.4 MB of lane
    # constants in the cache; blocks of at most _BLOCK lanes hold neither
    tracemalloc.start()
    try:
        draws = SplitMix64(3).randbelow_many(20, 300_000)
        peak = tracemalloc.get_traced_memory()[1]
        del draws
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1e6
    assert peak < 8e6


def test_randbelow_many_rejects_empty_range():
    for k in (0, -3):
        with pytest.raises(ValueError):
            SplitMix64(0).randbelow_many(k, 5)


def test_randbelow_range_above_two_to_the_64_is_refused():
    # run in a child: a rejection loop that never ends fails on the
    # timeout instead of hanging the suite
    script = """
import pytest
from loopmodel.stochastic import SplitMix64
for k in (2**64 + 1, 2**65):
    with pytest.raises(ValueError):
        SplitMix64(0).randbelow(k)
    with pytest.raises(ValueError):
        SplitMix64(0).randbelow_many(k, 3)
r, ref = SplitMix64(5), SplitMix64(5)
assert r.randbelow(2**64) == ref.next_u64()
assert r.randbelow_many(2**64, 3) == [ref.next_u64() for _ in range(3)]
assert r.state == ref.state
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_player_a_matches_census_share():
    hist = fpl.histogram(4)
    adj = patterns.unrank(4, 0)
    assert st.player_a_probability(4, adj, hist) == Fraction(7, 42) == Fraction(1, 6)
    assert st.player_a_probability(1, patterns.unrank(1, 0)) == 1


def test_player_b_worked_example():
    adj = patterns.unrank(4, 0)
    assert st.player_b_probability(4, adj) == Fraction(1, 6)
    assert st.player_b_probability(1, patterns.unrank(1, 0)) == 1
    for r in range(2):
        t = patterns.unrank(2, r)
        assert st.player_b_probability(2, t) == Fraction(1, 2)


@pytest.mark.parametrize("player", [st.player_a_probability,
                                    st.player_b_probability],
                         ids=["a", "b"])
def test_players_refuse_a_target_of_another_size(player):
    with pytest.raises(ValueError, match="target pattern size does not match n"):
        player(3, patterns.unrank(2, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_players_equal_for_every_target(n):
    hist = fpl.histogram(n)
    for r in range(patterns.catalan(n)):
        t = patterns.unrank(n, r)
        assert st.player_a_probability(n, t, hist) == \
            st.player_b_probability(n, t, hist)


def test_pattern_distribution_invariants():
    d = st.PatternDistribution(2, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert d.probability(0) == Fraction(1, 2)
    assert d.float_view() == {0: 0.5, 1: 0.5}
    with pytest.raises(ValueError):
        st.PatternDistribution(2, {0: Fraction(1, 2)})  # sums to 1/2
    with pytest.raises(ValueError):
        st.PatternDistribution(2, {0: Fraction(3, 2), 1: Fraction(-1, 2)})
    with pytest.raises(ValueError):
        st.PatternDistribution(2, {0: Fraction(1, 2), 7: Fraction(1, 2)})


def test_tv_distance_exact():
    a = st.PatternDistribution(2, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    b = st.PatternDistribution(2, {0: Fraction(3, 4), 1: Fraction(1, 4)})
    assert a.tv_distance(b) == Fraction(1, 4)
    assert a.tv_distance(a) == 0
    c = st.PatternDistribution(1, {0: Fraction(1)})
    with pytest.raises(ValueError):
        a.tv_distance(c)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_exact_one_step_stationarity(n):
    """The census law is exactly invariant under the random-operation chain."""
    from loopmodel import spectra

    law = st.stationary_law(n)
    H = spectra.build_hamiltonian(n)
    two_n = 2 * n
    for r in range(patterns.catalan(n)):
        acc = Fraction(0)
        for (row, col), v in H.entries.items():
            if row == r:
                acc += Fraction(v, two_n) * law.probability(col)
        assert acc == law.probability(r)


def test_chain_step_follows_hop_table():
    rng1, rng2 = SplitMix64(5), SplitMix64(5)
    hop = patterns.hop_table(3)
    p = patterns.unrank(3, 2)
    rk = 2
    for _ in range(300):
        p = st.chain_step(p, rng1)
        rk = hop[rk][rng2.randbelow(6)]
        assert patterns.rank(p) == rk


def test_chain_step_n1_fixed():
    rng = SplitMix64(0)
    p = patterns.unrank(1, 0)
    for _ in range(10):
        assert st.chain_step(p, rng) == p


def test_chain_step_n2_exact_split():
    # from the all-adjacent pattern, half the operations stay put
    hop = patterns.hop_table(2)
    assert sorted(hop[0]) == [0, 0, 1, 1]
    assert sorted(hop[1]) == [0, 0, 1, 1]


def test_sampler_reproducible_and_mergeable():
    a = st.sample_stationary(3, burn_in=50, samples=5000, seed=42)
    b = st.sample_stationary(3, burn_in=50, samples=5000, seed=42)
    assert a.counts == b.counts
    assert a.tv_distance == b.tv_distance
    c = st.sample_stationary(3, burn_in=50, samples=5000, seed=42, chains=3)
    assert sum(c.counts) == 5000
    assert c.counts != a.counts  # different chains, same law
    assert c.passed


def test_sampler_fixed_trajectory_regression():
    # counts pinned from the scalar one-draw-per-step chain
    rep = st.sample_stationary(2, burn_in=10, samples=40, seed=7)
    assert rep.counts == (20, 20)
    rep = st.sample_stationary(4, burn_in=10, samples=40, seed=7)
    assert rep.counts == (11, 4, 1, 2, 1, 3, 1, 2, 0, 4, 0, 8, 3, 0)


def _sampled_file_sha256(argv, tmp_path, monkeypatch) -> str:
    # the digest of the report `sample ... --no-compare --out FILE` writes
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "cache"))
    out = tmp_path / "s.json"
    assert cli.main(["sample", *argv, "--no-compare", "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_sampler_json_pinned_n6_three_chains(tmp_path, monkeypatch):
    argv = ["-n", "6", "--chains", "3", "--burn-in", "1000",
            "--samples", "100000", "--seed", "3"]
    assert _sampled_file_sha256(argv, tmp_path, monkeypatch) == (
        "0ec6731c5d41397ec1c9891cd3339e5d4c6c73df0c3aa04a7eaf6679407e58f2")


def test_sampler_json_pinned_n10(tmp_path, monkeypatch):
    # 1,001,000 steps cross many 4096-draw blocks and a partial last one
    argv = ["-n", "10", "--samples", "1000000", "--seed", "1"]
    assert _sampled_file_sha256(argv, tmp_path, monkeypatch) == (
        "f0505aecaed35d5acc36d981e03eca568f48019355ce64f7f0444f95e002fea1")


def test_sampler_n1_trivial():
    rep = st.sample_stationary(1, burn_in=0, samples=100, seed=0)
    assert rep.counts == (100,)
    assert rep.tv_distance == 0.0
    assert rep.passed


def test_sampler_argument_validation():
    with pytest.raises(ValueError):
        st.sample_stationary(2, samples=0)
    with pytest.raises(ValueError):
        st.sample_stationary(2, burn_in=-1)
    with pytest.raises(ValueError):
        st.sample_stationary(2, chains=0)


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, float("nan"), float("inf")],
                         ids=["negative", "zero", "nan", "inf"])
def test_sampler_rejects_a_tolerance_that_is_not_finite_positive(tolerance):
    # such a bound could never be passed (or never failed), so it is an
    # argument error rather than a FAIL report
    with pytest.raises(ValueError, match="tolerance"):
        st.sample_stationary(2, samples=10, tolerance=tolerance)


def test_sampler_report_json():
    rep = st.sample_stationary(2, burn_in=10, samples=1000, seed=3)
    obj = rep.to_json_obj()
    assert obj["kind"] == "sampler-report"
    assert obj["seed"] == 3 and obj["samples"] == 1000
    assert sum(obj["empirical"].values()) == 1000
    assert obj["pass"] is True
    emp = rep.empirical()
    assert sum(emp.probabilities.values()) == 1


def test_sampler_without_comparison():
    rep = st.sample_stationary(2, burn_in=10, samples=100, seed=1, compare=False)
    assert rep.tv_distance is None and rep.passed is None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sampler_tv_matches_the_exact_law(monkeypatch, n):
    # the sampler compares in integers; the Fraction route is the reference
    rng = random.Random(n)

    def random_counts(n_, burn_in, samples, seed, counts):
        cuts = sorted(rng.randrange(samples + 1) for _ in counts[1:])
        for r, (a, b) in enumerate(zip([0, *cuts], [*cuts, samples])):
            counts[r] += b - a

    monkeypatch.setattr(st, "_run_chain", random_counts)
    law = st.stationary_law(n)
    for _ in range(20):
        samples = rng.choice([1, 7, rng.randrange(1, 10**6),
                              rng.randrange(1, 10**12)])
        rep = st.sample_stationary(n, samples=samples, seed=0,
                                   chains=rng.randrange(1, 4))
        emp = st.PatternDistribution(
            n, {r: Fraction(c, samples) for r, c in enumerate(rep.counts) if c})
        assert rep.tv_distance == float(emp.tv_distance(law))


def test_default_tolerance_shape():
    assert st.default_tv_tolerance(4, 10**6) == pytest.approx(0.0105, abs=1e-4)
    assert st.default_tv_tolerance(1, 100) <= 1.0


@pytest.mark.parametrize("n", list(range(1, 9)))
def test_chain_is_irreducible_and_aperiodic(n):
    assert strongly_connected(patterns.hop_table(n))
    assert st.is_aperiodic(n)


def test_statistical_agreement_small():
    rep = st.sample_stationary(3, burn_in=500, samples=200_000, seed=11)
    assert rep.passed
    assert rep.tv_distance < 0.01
