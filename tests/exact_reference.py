"""Exact references for the tests.

Dense rows and fraction-free elimination, independent of the
Perron–Frobenius certificate: quadratic fill makes these
small-dimension tools, and the tests compare the certified eigenvector
with them for n up to 5.

The per-key census sweep advances every (v, frontier) key through every
row move on its own, with no shape groups, by walking the row's cells
one at a time; the tests compare the grouped sweep, which chases paths
through row ends instead, with it for n up to 8, and compare each
chase with the cell walk and its stub marking.

The per-column row shapes walk one row column by column; the tests
compare the bit-parallel fpl._row_shapes with them for every (v, v2,
parity) up to n = 7 and build the brute-force row-move table from
them.

The closed-form stub numbers give each side's numbered stubs by
arithmetic; the tests compare the clockwise walk of fpl.stub_positions
with them.

The two-way strong-connectivity search assumes nothing of the graph;
the tests check the chain's irreducibility with it and set it beside
the certificate's one forward search, which needs equal column sums.
"""
from __future__ import annotations

import math
from fractions import Fraction

from loopmodel import fpl, patterns
from loopmodel.errors import ConjectureViolation


def top_stub(n: int, c: int) -> int | None:
    return (c + 1) // 2 if c % 2 == 1 else None


def right_stub(n: int, r: int) -> int | None:
    return (n + r + 1) // 2 if (n + r) % 2 == 1 else None


def bottom_stub(n: int, c: int) -> int | None:
    return (3 * n - c) // 2 + 1 if (n + c) % 2 == 0 else None


def left_stub(n: int, r: int) -> int | None:
    return 2 * n + 1 - r // 2 if r % 2 == 0 else None


def row_shapes(n: int, v: int, v2: int, row_parity: int) -> tuple[int, ...] | None:
    """Shape masks for one row, one column at a time; None if invalid.

    v and v2 are the downward-arrow masks above and below the row, and
    row_parity is r mod 2.  The horizontal arrow enters at 1 and must
    leave at 0; a column whose vertical arrow flips takes the arrow
    from the bit above, which must differ from the arrow entering it.
    """
    shapes = []
    l = 1
    for j in range(n):
        a = (v >> j) & 1
        b = (v2 >> j) & 1
        if b != a:
            if l != 1 - a:
                return None
            rgt = a
        else:
            rgt = l
        p = (row_parity + j + 1) & 1  # checkerboard parity of (r, j+1)
        mask = (
            (fpl.U if a == p else 0)
            | (fpl.L if l == p else 0)
            | (fpl.B if b != p else 0)
            | (fpl.R if rgt != p else 0)
        )
        shapes.append(mask)
        l = rgt
    if l != 0:
        return None
    return tuple(shapes)


def apply_row(F: list, shapes: tuple[int, ...], pend, right_stub: int | None,
               new_arcs: list) -> None:
    """Advance the frontier linkage through one row of shape masks.

    F is mutated in place; completed (stub, stub) arcs are appended to
    new_arcs.  pend is the far token of the path end moving rightward
    along the row (the left stub's token, or None).  A slot whose path
    end is currently pend may hold a stale token; it is never read in
    that window (the join that could read it is exactly the closed-loop
    case, detected through pend itself).  A path end leaving the row
    must land on a numbered right stub and a numbered right stub must
    catch one; otherwise ConjectureViolation is raised.
    """
    PEND = len(F)  # placeholder far-token for a partner still in flight
    for j, mask in enumerate(shapes):
        if mask == 10 or mask == 5:  # L|R pass-through, U|B straight down
            continue
        if mask == 3:  # U|L: join the up end with the incoming end
            t = F[j]
            F[j] = None
            if pend == j:  # both ends of one segment: a closed loop
                pend = None
                continue
            u, pend = pend, None
            if t >= 0:
                F[t] = u
                if u >= 0:
                    F[u] = t
            elif u >= 0:
                F[u] = t
            else:
                new_arcs.append((-t, -u) if -t < -u else (-u, -t))
        elif mask == 9:  # U|R: the up end turns rightward
            pend = F[j]
            F[j] = None
        elif mask == 6:  # L|B: the incoming end lands in the frontier
            t = pend
            pend = None
            F[j] = t
            if t >= 0:
                F[t] = j
        else:  # mask == 12, B|R: a fresh segment is born
            F[j] = PEND
            pend = j
    if pend is not None:
        if right_stub is None:
            raise ConjectureViolation(
                "a path end leaves the row at an unnumbered right stub",
                {"shapes": shapes}, check="census-sweep",
            )
        if pend >= 0:
            F[pend] = -right_stub
        else:
            new_arcs.append(
                (-pend, right_stub) if -pend < right_stub else (right_stub, -pend)
            )
    elif right_stub is not None:
        raise ConjectureViolation(
            f"numbered right stub {right_stub} catches no path end",
            {"shapes": shapes}, check="census-sweep",
        )


def marked_advance(n: int, r: int, Fs: tuple, shapes) -> tuple[tuple, tuple]:
    """(stub effect, next marked frontier) of one group through one row.

    The group's marked frontier Fs gets the placeholder label
    2n + 1 + j at its stub in column j, apply_row walks the row's
    shapes, and one pass over the result maps every stub label to its
    index into X (the member's stubs, then the row's own) and marks it
    -1.  The effect is (those indices in column order, the new arcs as
    index pairs in the order the walk closed them).
    """
    top = 2 * n
    left, right = fpl._row_tokens(n, r)
    tail = [s for s in (None if left is None else -left, right) if s is not None]
    cols = [j for j, t in enumerate(Fs) if t == -1]
    at = {-top - 1 - j: i for i, j in enumerate(cols)}
    at.update({-s: len(cols) + i for i, s in enumerate(tail)})
    F = [-top - 1 - j if t == -1 else t for j, t in enumerate(Fs)]
    new: list[tuple[int, int]] = []
    apply_row(F, tuple(shapes), left, right, new)
    idx = []
    for j, t in enumerate(F):
        if t is not None and t < 0:
            idx.append(at[t])
            F[j] = -1
    return (tuple(idx), tuple([(at[-a], at[-b]) for a, b in new])), tuple(F)


def census_per_key(n: int) -> dict[int, int]:
    """rank -> count by one apply_row call per (v, frontier, move)."""
    moves = fpl._row_moves(n)
    full = (1 << n) - 1
    level: dict = {(0, fpl._initial_frontier(n)): {0: 1}}
    for r in range(1, n + 1):
        last = r == n
        left, right = fpl._row_tokens(n, r)
        nxt: dict = {}
        for (v, Ft), bucket in level.items():
            for v2, shapes in fpl._moves_from(moves, n, v, r & 1):
                if last and v2 != full:
                    continue
                F = list(Ft)
                new: list[tuple[int, int]] = []
                apply_row(F, shapes, left, right, new)
                if last:
                    new += fpl._bottom_arcs(n, F)
                    F = []
                add = fpl._pack(new)
                target = nxt.setdefault((v2, tuple(F)), {})
                for p, m in bucket.items():
                    target[p + add] = target.get(p + add, 0) + m
        level = nxt
    rank_of = patterns._basis(n)[1]
    counts: dict[int, int] = {}
    for packed, mult in level.get((full, ()), {}).items():
        rank = fpl._pattern_rank(n, packed, rank_of)
        counts[rank] = counts.get(rank, 0) + mult
    return counts


def strongly_connected(adj) -> bool:
    """Whether the directed graph v -> w for w in adj[v] is strongly connected.

    A search from vertex 0 must reach every vertex, both along the
    edges and against them.
    """
    dim = len(adj)

    def reaches_all(succ) -> bool:
        seen = [False] * dim
        seen[0] = True
        stack = [0]
        while stack:
            v = stack.pop()
            for w in succ[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)

    rev: list[list[int]] = [[] for _ in range(dim)]
    for v, row in enumerate(adj):
        for w in row:
            rev[w].append(v)
    return reaches_all(adj) and reaches_all(rev)


def dense_rows(H, shift: int = 0) -> list[list[int]]:
    """Dense row-major copy of (H - shift * I) for a SparseIntMatrix H."""
    rows = [[0] * H.dim for _ in range(H.dim)]
    for (r, c), v in H.entries.items():
        rows[r][c] = v
    if shift:
        for i in range(H.dim):
            rows[i][i] -= shift
    return rows


def kernel_bareiss(rows: list[list[int]]) -> list[int]:
    """Kernel vector by fraction-free elimination over big integers.

    Intermediate entries are exact minors (Bareiss division is exact),
    so nothing is ever rounded.  Raises ConjectureViolation when the
    nullity is not 1.
    """
    M = [list(r) for r in rows]
    d = len(M)
    prev = 1
    pivots: list[tuple[int, int]] = []
    free_cols: list[int] = []
    r = 0
    for c in range(d):
        pr = next((i for i in range(r, d) if M[i][c]), None)
        if pr is None:
            free_cols.append(c)
            continue
        if pr != r:
            M[r], M[pr] = M[pr], M[r]
        for i in range(r + 1, d):
            mic = M[i][c]
            mrc = M[r][c]
            row_i, row_r = M[i], M[r]
            for j in range(c + 1, d):
                row_i[j] = (mrc * row_i[j] - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = M[r][c]
        pivots.append((r, c))
        r += 1
        if r == d:
            free_cols.extend(range(c + 1, d))
            break
    if r == d:
        raise ConjectureViolation(
            "matrix minus its expected top eigenvalue is invertible",
            {"rank": r, "dim": d, "engine": "bareiss"},
        )
    if r < d - 1:
        raise ConjectureViolation(
            "kernel dimension exceeds 1",
            {"rank": r, "dim": d, "engine": "bareiss"},
        )
    x = [Fraction(0)] * d
    x[free_cols[0]] = Fraction(1)
    for rr, cc in reversed(pivots):
        s = sum((Fraction(M[rr][j]) * x[j] for j in range(cc + 1, d)), Fraction(0))
        x[cc] = -s / M[rr][cc]
    lcm = 1
    for fr in x:
        lcm = lcm * fr.denominator // math.gcd(lcm, fr.denominator)
    ints = [int(fr * lcm) for fr in x]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    ints = [v // g for v in ints]
    if sum(1 for v in ints if v < 0) * 2 > len(ints):
        ints = [-v for v in ints]
    return ints
