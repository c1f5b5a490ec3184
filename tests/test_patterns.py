"""Link-pattern basics: construction, ranking, and operator algebra."""
from __future__ import annotations

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopmodel import patterns as pat
from loopmodel.errors import CapacityError
from loopmodel.patterns import LinkPattern, apply_h

CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429, 8: 1430, 9: 4862}


def test_catalan_values():
    for n, c in CATALAN.items():
        assert pat.catalan(n) == c


def test_construction_round_trips():
    p = LinkPattern.from_text("2 1 4 3")
    assert p.n == 2
    assert p.to_text() == "2 1 4 3"
    assert p.to_parens() == "()()"
    assert LinkPattern.from_parens("(())").to_text() == "4 3 2 1"
    assert LinkPattern.from_pairs([(1, 4), (2, 3)]) == LinkPattern.from_parens("(())")
    assert p.partner(1) == 2 and p.partner(4) == 3


def test_rejects_crossings_and_non_involutions():
    with pytest.raises(ValueError):
        LinkPattern.from_pairs([(1, 3), (2, 4)])  # crossing
    with pytest.raises(ValueError):
        LinkPattern(2, (1, 0, 2, 3))  # fixed points
    with pytest.raises(ValueError):
        LinkPattern(2, (1, 0, 3, 1))  # not an involution
    with pytest.raises(ValueError):
        LinkPattern.from_text("2 1 4")  # odd length


@pytest.mark.parametrize("build, message", [
    (lambda: LinkPattern(0, ()), "need n >= 1, got n=0"),
    (lambda: LinkPattern(2, (1, 0)), "match length 2 != 2n = 4"),
    (lambda: LinkPattern.from_pairs([(1, 5), (2, 3)]), "pair (1, 5) out of range 1..4"),
    (lambda: LinkPattern.from_pairs([(1, 2), (1, 2)]), "pairs do not cover every position"),
    (lambda: LinkPattern.from_parens("(()"), "odd length parenthesis word '(()'"),
    (lambda: LinkPattern.from_parens(")("), "unbalanced word ')('"),
    (lambda: LinkPattern.from_parens("(("), "unbalanced word '(('"),
    (lambda: LinkPattern.from_parens("(]"), "unexpected character ']' in '(]'"),
    (lambda: LinkPattern.from_text("2 1").partner(3), "position 3 out of range 1..2"),
    (lambda: LinkPattern.from_text("2 1").partner(0), "position 0 out of range 1..2"),
], ids=["n", "length", "pair-range", "pair-cover", "parens-odd",
        "parens-close", "parens-open", "parens-char", "partner-high",
        "partner-low"])
def test_refusal_messages(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_enumerate_sizes_and_canonical_order():
    for n in range(1, 7):
        basis = pat.enumerate_patterns(n)
        assert len(basis) == CATALAN[n]
        matches = [p.match for p in basis]
        assert matches == sorted(matches), "canonical order is lex on match"
        # rank 0 is the all-adjacent pattern; at n=1 its single chord is
        # cyclically adjacent from both ends
        assert basis[0].adjacent_arcs() == (n if n > 1 else 2)


# sha256 of the basis as `to_text` lines, pinned from the sorted
# enumeration of every noncrossing matching
BASIS_SHA256 = {
    9: "20efce0ab6a4306499ec0253772193e452d34e12f9211425ecd832f5bebb9ba0",
    10: "007e1eacca29c4d7ca4e821aefc514228b719a2eb5d31c74455c6f99aabb1789",
}


@pytest.mark.parametrize("n", sorted(BASIS_SHA256))
def test_basis_order_pinned(n):
    text = "\n".join(p.to_text() for p in pat.enumerate_patterns(n)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == BASIS_SHA256[n]


def test_rank_unrank_round_trip():
    for n in range(1, 7):
        for r in range(pat.catalan(n)):
            assert pat.rank(pat.unrank(n, r)) == r


def test_rank_of_foreign_pattern_value_error():
    with pytest.raises(ValueError):
        pat.unrank(3, pat.catalan(3))
    with pytest.raises(ValueError):
        pat.unrank(3, -1)


def test_capacity_ceiling():
    with pytest.raises(CapacityError):
        pat.enumerate_patterns(pat.MAX_N + 1)  # above the default ceiling


def test_hop_table_matches_apply_h():
    for n in range(1, 9):
        hop = pat.hop_table(n)
        assert len(hop) == pat.catalan(n)
        for r, row in enumerate(hop):
            q = pat.unrank(n, r)
            assert row == tuple(
                pat.rank(apply_h(i, q)) for i in range(1, 2 * n + 1)
            )


# sha256 of the hop table as space-separated rows and of the symmetry
# permutations as one space-separated line, pinned from the table built
# by rewiring every entry and the permutations built through rotate and
# reflect
HOP_SHA256 = {
    9: "8b8005a5902fee7f7442aaaf648857a4a9329142314c0099dbe07df6e3260d8b",
    10: "f33e734462df2fbb31ea3d4e5414cf343cd3f0c07fe5c7e325cdf558323685b2",
}
PERMUTATION_SHA256_N10 = {
    "rotation": "53cae9922a4d91c98e4994b41c9bb347621c7a6419a9d7e7968ebaf3b8ab00fd",
    "reflection": "494c9c913c2b8ccc932d5ca0c13d7f462cc247232498efd9878e8c6952ce962f",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(HOP_SHA256))
def test_hop_table_pinned(n):
    hop = pat.hop_table(n)
    text = "\n".join(" ".join(map(str, row)) for row in hop) + "\n"
    assert _sha256(text) == HOP_SHA256[n]


def test_symmetry_permutations_pinned():
    for name, sigma in (("rotation", pat.rotation_permutation(10)),
                        ("reflection", pat.reflection_permutation(10))):
        text = " ".join(map(str, sigma)) + "\n"
        assert _sha256(text) == PERMUTATION_SHA256_N10[name], name


def test_symmetry_permutations_match_rotate_and_reflect():
    for n in range(1, 9):
        basis = pat.enumerate_patterns(n)
        assert pat.rotation_permutation(n) == tuple(
            pat.rank(pat.rotate(p)) for p in basis)
        assert pat.reflection_permutation(n) == tuple(
            pat.rank(pat.reflect(p)) for p in basis)


def test_apply_h_identity_and_rewiring():
    p = LinkPattern.from_text("2 1 4 3")
    assert apply_h(1, p) is p, "already-linked pair is a fixed point"
    q = apply_h(2, p)
    assert q.to_text() == "4 3 2 1"
    # cyclic index: position 2n pairs with position 1
    r = apply_h(4, p)
    assert r.to_text() == "4 3 2 1"


def test_apply_h_index_range():
    p = LinkPattern.from_text("2 1 4 3")
    with pytest.raises(ValueError):
        apply_h(0, p)
    with pytest.raises(ValueError):
        apply_h(5, p)


# -- operator algebra, exhaustive at small n ------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_idempotence(n):
    for p in pat.enumerate_patterns(n):
        for i in range(1, 2 * n + 1):
            q = apply_h(i, p)
            assert apply_h(i, q) == q


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_contraction(n):
    size = 2 * n
    for p in pat.enumerate_patterns(n):
        for i in range(1, size + 1):
            for j in (i - 1, i + 1):
                jj = (j - 1) % size + 1
                lhs = apply_h(i, apply_h(jj, apply_h(i, p)))
                assert lhs == apply_h(i, p)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_far_commutation(n):
    size = 2 * n
    basis = pat.enumerate_patterns(n)
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            d = (i - j) % size
            if d in (0, 1, size - 1):
                continue
            for p in basis:
                assert apply_h(i, apply_h(j, p)) == apply_h(j, apply_h(i, p))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rotation_equivariance(n):
    size = 2 * n
    for p in pat.enumerate_patterns(n):
        for i in range(1, size + 1):
            i_next = i % size + 1
            assert pat.rotate(apply_h(i, p)) == apply_h(i_next, pat.rotate(p))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_noncrossing_closure(n):
    # construction re-validates, so surviving apply_h is the assertion;
    # we also recheck the invariant explicitly
    for p in pat.enumerate_patterns(n):
        for i in range(1, 2 * n + 1):
            q = apply_h(i, p)
            stack = []
            for k, m in enumerate(q.match):
                if m > k:
                    stack.append(k)
                else:
                    assert stack and stack.pop() == m


def test_rotation_and_reflection_are_permutations():
    for n in range(1, 7):
        dim = pat.catalan(n)
        rot = pat.rotation_permutation(n)
        refl = pat.reflection_permutation(n)
        assert sorted(rot) == list(range(dim))
        assert sorted(refl) == list(range(dim))
        # rotation has order 2n, reflection order 2
        p = list(range(dim))
        for _ in range(2 * n):
            p = [rot[x] for x in p]
        assert p == list(range(dim))
        assert [refl[refl[x]] for x in range(dim)] == list(range(dim))


# -- property tests over random patterns -----------------------------------


@st.composite
def patterns_strategy(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    r = draw(st.integers(min_value=0, max_value=pat.catalan(n) - 1))
    return pat.unrank(n, r)


@given(patterns_strategy())
@settings(max_examples=200)
def test_property_involution_noncrossing(p):
    size = 2 * p.n
    assert all(p.match[p.match[k]] == k and p.match[k] != k for k in range(size))


@given(patterns_strategy(), st.integers(min_value=1))
@settings(max_examples=200)
def test_property_apply_h_idempotent(p, i_raw):
    i = (i_raw - 1) % (2 * p.n) + 1
    q = apply_h(i, p)
    assert apply_h(i, q) == q
    assert q.partner(i) == i % (2 * p.n) + 1


@given(patterns_strategy())
@settings(max_examples=200)
def test_property_rotate_reflect_consistency(p):
    size = 2 * p.n
    full = p
    for _ in range(size):
        full = pat.rotate(full)
    assert full == p
    assert pat.reflect(pat.reflect(p)) == p
    r = pat.rank(p)
    assert pat.rank(pat.rotate(p)) == pat.rotation_permutation(p.n)[r]
    assert pat.rank(pat.reflect(p)) == pat.reflection_permutation(p.n)[r]
