"""Link-pattern basics: construction, ranking, and operator algebra."""
from __future__ import annotations

import hashlib
import itertools
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


def _two_scan_verdict(m) -> bool:
    """The involution scan, then the crossing stack scan, as separate loops."""
    size = len(m)
    for i, j in enumerate(m):
        if not 0 <= j < size or j == i or m[j] != i:
            return False
    stack = []
    for i, j in enumerate(m):
        if j > i:
            stack.append(i)
        elif not stack or stack.pop() != j:
            return False
    return True


def test_one_pass_validation_matches_the_two_scans():
    cases = [m for n in (1, 2)
             for m in itertools.product(range(-1, 2 * n + 1), repeat=2 * n)]
    cases += [m for n in (1, 2, 3, 4)
              for m in itertools.permutations(range(2 * n))]
    for m in cases:
        verdict = _two_scan_verdict(m)
        assert pat._noncrossing_involution(m, len(m)) == verdict, m
        try:
            LinkPattern(len(m) // 2, m)
        except ValueError:
            assert not verdict, m
        else:
            assert verdict, m


def test_non_int_entries_still_raise_type_error():
    # 0.0 == 0, so only indexing with it tells it apart from a partner
    with pytest.raises(TypeError):
        LinkPattern(1, (1, 0.0))
    with pytest.raises(TypeError):
        LinkPattern(1, (1.0, 0))


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


def test_basis_holds_sorted_match_bytes():
    for n in range(1, 9):
        arrays = pat._basis(n)[0]
        assert len(arrays) == pat.catalan(n)
        assert all(type(m) is bytes and len(m) == 2 * n for m in arrays)
        assert all(a < b for a, b in zip(arrays, arrays[1:]))
    with pytest.raises(CapacityError, match=f"n <= {pat.MAX_BASIS_N}"):
        pat._basis(pat.MAX_BASIS_N + 1)


@pytest.fixture
def crossing_rank_zero_at_n3(monkeypatch):
    real = pat._lex_matchings
    crossing = bytes([2, 3, 0, 1, 5, 4])  # chords (1, 3) and (2, 4) cross
    monkeypatch.setattr(pat, "_lex_matchings",
                        lambda n: [crossing, *real(n)[1:]] if n == 3 else real(n))
    pat._basis.cache_clear()
    yield
    monkeypatch.undo()
    pat._basis.cache_clear()


def test_crossing_matching_in_the_basis_fails_the_public_check(
        crossing_rank_zero_at_n3):
    # the basis views build their patterns without re-checking, so a
    # crossing matching in the basis comes back as it is; the public
    # constructor refuses it, which is what the test below relies on
    crossing = (2, 3, 0, 1, 5, 4)
    assert pat.enumerate_patterns(3)[0].match == crossing
    assert pat.unrank(3, 0).match == crossing
    with pytest.raises(ValueError, match="chords cross"):
        LinkPattern(3, crossing)


def test_basis_patterns_pass_the_public_checks():
    # enumerate_patterns and unrank read their patterns off the basis
    # without the constructor's checks; each must equal the pattern that
    # the checking constructor builds from the same match
    for n in range(1, 9):
        basis = pat.enumerate_patterns(n)
        for r, p in enumerate(basis):
            assert type(p.match) is tuple
            assert p == LinkPattern(n, p.match) == pat.unrank(n, r)


def test_only_the_basis_views_skip_the_checks(monkeypatch):
    class Checked(Exception):
        pass

    def refuse(m, size):
        raise Checked

    monkeypatch.setattr(pat, "_noncrossing_involution", refuse)
    basis = pat.enumerate_patterns(5)
    p = pat.unrank(5, 3)
    assert p == basis[3]
    for build in (lambda: LinkPattern(5, p.match),
                  lambda: apply_h(2, basis[0]),
                  lambda: pat.rotate(p),
                  lambda: pat.reflect(p),
                  lambda: LinkPattern.from_text(p.to_text())):
        with pytest.raises(Checked):
            build()


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


def test_hop_table_commutes_with_rotation():
    # apply_h(i + 1, rotate(p)) = rotate(apply_h(i, p)), checked on the
    # table's entries apart from how hop_table fills its rows
    for n in range(1, 9):
        size = 2 * n
        hop = pat.hop_table(n)
        rot = pat.rotation_permutation(n)
        for r, row in enumerate(hop):
            image = hop[rot[r]]
            assert [image[(i + 1) % size] for i in range(size)] == [
                rot[q] for q in row
            ]


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


def test_apply_h_beyond_the_byte_basis():
    # 258 positions: partners no longer fit in the basis bytes
    p = LinkPattern.from_parens("()" * (pat.MAX_BASIS_N + 2))
    q = apply_h(2, p)
    assert (q.partner(1), q.partner(2)) == (4, 3)
    assert q.match[4:] == p.match[4:]


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
