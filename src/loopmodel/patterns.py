"""Noncrossing link patterns on 2n circle positions.

A link pattern is a perfect matching of the positions 1..2n, drawn as
chords of a disk, in which no two chords cross.  Positions are numbered
clockwise; position labels in every public string form are 1-based.
A ``LinkPattern`` stores a 0-based ``match`` tuple, where ``match[i]``
is the partner of position ``i``; the tuple is a fixed-point-free
involution and the noncrossing condition reads: there are no
a < b < c < d with ``match[a] == c`` and ``match[b] == d``.  The
per-n basis behind ranking holds the same matchings as 2n-byte
``bytes`` objects (byte i is ``match[i]``), which take less memory
than tuples and let the symmetry maps relabel a whole matching with
one ``bytes.translate``; 2n must therefore fit in a byte.

The canonical ordering of the Catalan(n) patterns of a given size is
lexicographic on the match tuple, which is also the order of the basis
bytes.  Ranks are positions in that ordering and are stable across runs
and platforms; every tabulated quantity in this package (census counts,
matrix rows, probability vectors) is indexed by them.

The elementary rewiring operators act cyclically: ``apply_h(i, p)``
joins positions i and i+1 (position 2n+1 meaning position 1).  If they
are already linked the pattern is returned unchanged; otherwise their
old partners get linked to each other.  Planarity is preserved, which
the constructor re-checks on every result.

``hop_table(n)`` tabulates every rewiring over the basis once per n; the
operator-sum matrix, the preimage sums, the game probabilities and the
Markov chain all read it.
Rewiring commutes with rotation, so only one pattern per rotation orbit
is rewired and the orbit's other rows are relabelled copies.  Every
rewired, rotated or reflected basis matching stays in bytes and is
looked up in the basis index, and that lookup is its validity check:
only noncrossing matchings are keys.  ``rotate`` and ``reflect`` stay
as the definition-direct references, as ``apply_h`` does beside
``_rewire``.  ``LinkPattern.match`` stays the public tuple form.

``enumerate_patterns`` and ``unrank`` read their patterns off the basis
through the private ``LinkPattern._from_basis``, which skips the
constructor's checks.  That is safe because ``_lex_matchings`` builds
only noncrossing matchings, and ``test_basis_order_pinned`` and
``test_basis_holds_sorted_match_bytes`` pin the basis it builds.  Every
other way to a pattern keeps every check: the constructor, the
``from_*`` parsers, ``apply_h``, ``rotate``, ``reflect`` and
``fpl.link_pattern_of``.
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

from ._record import Frozen, set_field
from .errors import CapacityError

# The one size ceiling.  Every public function that starts per-n work
# from n alone (census, state stream, basis, operator, sampler, chain
# checks) calls check_n first, and its max_n, the CLI's --max-n, lifts
# the ceiling; code handed a per-n object (a pattern, a census) trusts
# its n.  The table in the README's Capacity section gives the time
# and peak memory of the largest commands.
MAX_N = 10


def catalan(n: int) -> int:
    """Catalan number C(n) = binom(2n, n) / (n + 1).

    >>> [catalan(k) for k in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if n < 0:
        raise ValueError(f"catalan undefined for n={n}")
    return math.comb(2 * n, n) // (n + 1)


def check_n(n: int, max_n: int | None = None) -> None:
    """Refuse n < 1 (ValueError) and n above the ceiling (CapacityError).

    The ceiling is max_n when given, else MAX_N.
    """
    ceiling = MAX_N if max_n is None else max_n
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if n > ceiling:
        raise CapacityError(
            f"n={n} exceeds the size ceiling {ceiling} (Catalan({n}) = "
            f"{catalan(n)} patterns); pass max_n={n} (--max-n {n}) to override"
        )


class LinkPattern(Frozen):
    """An immutable noncrossing perfect matching of 2n circle positions.

    ``match`` is 0-based: ``match[i]`` is the partner of position i.
    Every public constructor validates; an invalid array never becomes a
    value.  The one exception is private: ``_from_basis`` builds the
    patterns that ``enumerate_patterns`` and ``unrank`` read off the
    per-n basis without re-checking them.  That is safe because
    ``_lex_matchings`` builds only noncrossing matchings, and
    ``test_basis_order_pinned`` and ``test_basis_holds_sorted_match_bytes``
    pin the basis it builds.
    """

    __slots__ = _fields = ("n", "match")
    n: int
    match: tuple[int, ...]

    def __init__(self, n: int, match: tuple[int, ...]) -> None:
        set_field(self, "n", n)
        set_field(self, "match", match)
        m = match
        size = 2 * n
        if n < 1:
            raise ValueError(f"need n >= 1, got n={n}")
        if len(m) != size:
            raise ValueError(f"match length {len(m)} != 2n = {size}")
        if _noncrossing_involution(m, size):
            return
        # The two scans below only word the refusal.
        for i, j in enumerate(m):
            if not 0 <= j < size or j == i or m[j] != i:
                raise ValueError(
                    f"not a fixed-point-free involution at position {i + 1}"
                )
        # Stack check: scanning left to right, a closing position must
        # close the most recently opened chord, else two chords cross.
        stack: list[int] = []
        for i, j in enumerate(m):
            if j > i:
                stack.append(i)
            elif not stack or stack.pop() != j:
                raise ValueError(
                    f"chords cross near position {i + 1}: {self.to_text()!r}"
                )

    # -- constructors ------------------------------------------------

    @classmethod
    def _from_basis(cls, n: int, match: tuple[int, ...]) -> LinkPattern:
        """A pattern read off the basis, without re-checking.

        The basis holds only noncrossing matchings, so enumerate_patterns
        and unrank skip the constructor's checks, which were most of
        enumerate_patterns' cost.
        """
        pattern = object.__new__(cls)
        set_field(pattern, "n", n)
        set_field(pattern, "match", match)
        return pattern

    @classmethod
    def from_pairs(cls, pairs) -> LinkPattern:
        """Build from 1-based position pairs.

        >>> LinkPattern.from_pairs([(1, 2), (3, 4)]).to_text()
        '2 1 4 3'
        """
        pairs = list(pairs)
        size = 2 * len(pairs)
        m = [-1] * size
        for a, b in pairs:
            if not (1 <= a <= size and 1 <= b <= size):
                raise ValueError(f"pair ({a}, {b}) out of range 1..{size}")
            m[a - 1] = b - 1
            m[b - 1] = a - 1
        if -1 in m:
            raise ValueError("pairs do not cover every position")
        return cls(len(pairs), tuple(m))

    @classmethod
    def from_text(cls, text: str) -> LinkPattern:
        """Parse the 1-based match array form, e.g. ``"2 1 4 3"``."""
        values = [int(tok) for tok in text.split()]
        if len(values) % 2:
            raise ValueError(f"odd number of entries in {text!r}")
        return cls(len(values) // 2, tuple(v - 1 for v in values))

    @classmethod
    def from_parens(cls, text: str) -> LinkPattern:
        """Parse the balanced-parenthesis form, e.g. ``"(())"``.

        Position i opens a chord when its partner lies clockwise ahead.
        """
        text = text.strip()
        if len(text) % 2:
            raise ValueError(f"odd length parenthesis word {text!r}")
        m = [-1] * len(text)
        stack: list[int] = []
        for i, ch in enumerate(text):
            if ch == "(":
                stack.append(i)
            elif ch == ")":
                if not stack:
                    raise ValueError(f"unbalanced word {text!r}")
                j = stack.pop()
                m[i], m[j] = j, i
            else:
                raise ValueError(f"unexpected character {ch!r} in {text!r}")
        if stack:
            raise ValueError(f"unbalanced word {text!r}")
        return cls(len(text) // 2, tuple(m))

    # -- views -------------------------------------------------------

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The chords as sorted 1-based pairs.

        >>> LinkPattern.from_parens("(())").pairs()
        ((1, 4), (2, 3))
        """
        return tuple(
            (i + 1, j + 1) for i, j in enumerate(self.match) if j > i
        )

    def to_text(self) -> str:
        """1-based match array, space separated (round-trips from_text)."""
        return match_text(self.match)

    def to_parens(self) -> str:
        """Balanced-parenthesis word (round-trips from_parens)."""
        return "".join("(" if j > i else ")" for i, j in enumerate(self.match))

    def partner(self, i: int) -> int:
        """1-based partner of 1-based position i."""
        if not 1 <= i <= 2 * self.n:
            raise ValueError(f"position {i} out of range 1..{2 * self.n}")
        return self.match[i - 1] + 1

    def adjacent_arcs(self) -> int:
        """Number of chords joining cyclically adjacent positions."""
        size = 2 * self.n
        return sum(1 for i, j in enumerate(self.match) if j == (i + 1) % size)

    def __str__(self) -> str:
        return self.to_text()


def _noncrossing_involution(m, size: int) -> bool:
    """Whether m is a noncrossing fixed-point-free involution, in one scan.

    An opener's partner lies below size and points back; a closer's
    partner is the opener on top of the stack.  Indexing m[j] at a
    closer too keeps a non-int entry equal to an int (0.0) from passing;
    a TypeError means refusal, so LinkPattern's own scans raise it.
    """
    stack: list[int] = []
    try:
        for i, j in enumerate(m):
            if j > i:
                if j >= size or m[j] != i:
                    return False
                stack.append(i)
            elif not stack or stack.pop() != j or m[j] != i:
                return False
    except TypeError:
        return False
    return True


def match_text(match: tuple[int, ...]) -> str:
    """The 1-based match array form of a 0-based match tuple."""
    return " ".join(str(j + 1) for j in match)


# -- elementary operators ---------------------------------------------


def apply_h(i: int, p: LinkPattern) -> LinkPattern:
    """Join positions i and i+1 (cyclically); re-link their old partners.

    Fixes p when i and i+1 are already partners.  1 <= i <= 2n, and
    i = 2n acts on the pair (2n, 1).

    >>> p = LinkPattern.from_pairs([(1, 2), (3, 4)])
    >>> apply_h(4, p).pairs()
    ((1, 4), (2, 3))
    >>> apply_h(1, p) is p
    True
    """
    size = 2 * p.n
    if not 1 <= i <= size:
        raise ValueError(f"operator index {i} out of range 1..{size}")
    m = _rewire(p.match, i - 1)
    return p if m is p.match else LinkPattern(p.n, m)


def _rewire(m, a: int):
    """m with 0-based positions a, a+1 (cyclically) joined; m itself if already so.

    m is a match tuple or a basis bytes object, and the result has its
    type.  Bytes are copied into a bytearray; a tuple into a list, since
    a LinkPattern may be larger than the basis (n > MAX_BASIS_N).
    """
    b = (a + 1) % len(m)
    if m[a] == b:
        return m
    j, k = m[a], m[b]
    new = bytearray(m) if type(m) is bytes else list(m)
    new[a], new[b] = b, a
    new[j], new[k] = k, j
    return type(m)(new)


def rotate(p: LinkPattern) -> LinkPattern:
    """Relabel every position i as i+1 (cyclically, clockwise shift)."""
    size = 2 * p.n
    m = p.match
    new = [0] * size
    for i in range(size):
        new[(i + 1) % size] = (m[i] + 1) % size
    return LinkPattern(p.n, tuple(new))


def reflect(p: LinkPattern) -> LinkPattern:
    """Relabel every position i as 2n+1-i (mirror through the axis)."""
    size = 2 * p.n
    m = p.match
    new = [0] * size
    for i in range(size):
        new[size - 1 - i] = size - 1 - m[i]
    return LinkPattern(p.n, tuple(new))


# -- canonical basis, ranking -----------------------------------------


def _shift(s: int) -> bytes:
    """bytes.translate table adding s to every byte (mod 256)."""
    return bytes(range(s, 256)) + bytes(range(s))


def _lex_matchings(n: int) -> list[bytes]:
    """The noncrossing matchings of 2n positions as match bytes, in lex order.

    Built from a table indexed by chord count h: position 0 pairs with
    k = 2j + 1, the inner block 1..k-1 holds a j-chord matching shifted
    by 1 and the outer block k+1.. an (h-1-j)-chord one shifted by k+1,
    each shift one bytes.translate.  Ascending k, then inner, then
    outer is lexicographic order, and the halves match independently,
    so no chords cross.
    """
    table: list[list[bytes]] = [[b""]]
    inner = _shift(1)
    for h in range(1, n + 1):
        rows = []
        for j in range(h):
            k = 2 * j + 1
            outer = _shift(k + 1)
            heads = [bytes([k]) + m.translate(inner) + b"\0" for m in table[j]]
            tails = [m.translate(outer) for m in table[h - 1 - j]]
            rows += [a + b for a in heads for b in tails]
        table.append(rows)
    return table[n]


# The basis stores each position's partner in one byte, so 2n <= 255.
MAX_BASIS_N = 127


@lru_cache(maxsize=8)
def _basis(n: int) -> tuple[tuple[bytes, ...], dict[bytes, int]]:
    """(match bytes in lex order, match bytes -> rank).

    Raw bytes only: the census ranks its final matchings and the hop
    table rewires them without a LinkPattern, and the public views
    below build patterns, with tuple matches, on demand.
    """
    if n > MAX_BASIS_N:
        raise CapacityError(
            f"n={n}: the byte-packed pattern basis handles n <= {MAX_BASIS_N}"
        )
    arrays = tuple(_lex_matchings(n))
    return arrays, {m: r for r, m in enumerate(arrays)}


def enumerate_patterns(n: int, max_n: int | None = None) -> list[LinkPattern]:
    """All noncrossing patterns of size n in canonical (ranked) order."""
    check_n(n, max_n)
    return [LinkPattern._from_basis(n, tuple(m)) for m in _basis(n)[0]]


def rank(p: LinkPattern) -> int:
    """Position of p in the canonical ordering (0-based, stable)."""
    return _basis(p.n)[1][bytes(p.match)]


def unrank(n: int, r: int) -> LinkPattern:
    """Inverse of rank: the pattern with the given rank."""
    return LinkPattern._from_basis(n, _match_of(n, r))


def _match_of(n: int, r: int) -> tuple[int, ...]:
    """The match tuple of rank r, without building a LinkPattern."""
    arrays = _basis(n)[0]
    if not 0 <= r < len(arrays):
        raise ValueError(f"rank {r} out of range 0..{len(arrays) - 1}")
    return tuple(arrays[r])


@lru_cache(maxsize=8)
def rotation_permutation(n: int) -> tuple[int, ...]:
    """sigma[r] = rank(rotate(unrank(n, r))), via new[j] = m[j-1] + 1 mod 2n.

    Each basis matching is rotated as a slice and relabelled with one
    bytes.translate, then looked up in the basis index.
    """
    index, size = _basis(n)[1], 2 * n
    succ = bytes(range(1, size)) + b"\0" + bytes(range(size, 256))
    return tuple([index[(m[-1:] + m[:-1]).translate(succ)] for m in index])


@lru_cache(maxsize=8)
def reflection_permutation(n: int) -> tuple[int, ...]:
    """sigma[r] = rank(reflect(unrank(n, r))), via new[j] = 2n-1 - m[2n-1-j].

    Each basis matching is reversed as a slice and relabelled with one
    bytes.translate, then looked up in the basis index.
    """
    index, size = _basis(n)[1], 2 * n
    mirror = bytes(range(size - 1, -1, -1)) + bytes(range(size, 256))
    return tuple([index[m[::-1].translate(mirror)] for m in index])


@lru_cache(maxsize=8)
def hop_table(n: int) -> tuple[tuple[int, ...], ...]:
    """hop[r][i-1] = rank(apply_h(i, unrank(n, r))), one rewired row per rotation orbit.

    Since apply_h(i+1, rotate(p)) = rotate(apply_h(i, p)), i cyclic,
    the next row of an orbit is the previous one shifted one column and
    mapped through rotation_permutation; only each orbit's first row is
    rewired on the basis bytes and looked up in the basis index.
    """
    index = _basis(n)[1]
    rot = rotation_permutation(n)
    # shift(row) is row[-1:] + row[:-1] without the two slice temporaries
    shift = itemgetter(2 * n - 1, *range(2 * n - 1))
    rows: list = [None] * len(index)
    for first, m in enumerate(index):
        if rows[first] is not None:
            continue
        r, row = first, tuple(index[_rewire(m, a)] for a in range(2 * n))
        while rows[r] is None:
            rows[r] = row
            r = rot[r]
            row = tuple(map(rot.__getitem__, shift(row)))
    return tuple(rows)
