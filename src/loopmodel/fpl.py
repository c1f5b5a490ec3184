"""Fully packed loop states on the n-by-n grid.

Geometry and conventions
------------------------

The states live on the "tic-tac-toe" graph: an n-by-n array of internal
degree-4 vertices, addressed (row, col) with row 1 at the top and col 1
at the left, plus 4n external degree-1 stub vertices, one beyond every
boundary vertex on each open side.  A state selects a subset of edges
such that every internal vertex lies on exactly two selected edges.
Walking the boundary stubs clockwise from the top-left corner stub and
numbering every other stub 1, 2, ..., 2n, a state must occupy all the
numbered stubs and none of the unnumbered ones (stub_positions lists
them).  Selected edges then form n open paths joining the numbered
stubs in pairs (plus closed loops in the interior, which are allowed);
the pairing of stub numbers is the state's boundary link pattern, a
noncrossing matching.

Each internal vertex is summarized by a 4-bit shape mask over its
selected edge directions (U=1, L=2, B=4, R=8); exactly two bits are
set, so six shapes occur.  A state stores the n-by-n grid of masks;
edge sets, alternating-sign matrices, and diagrams are derived views.

Ice-rule sweep
--------------

Enumeration works row by row through the equivalent ice model: every
lattice edge carries an arrow, each vertex has two arrows in and two
out, horizontal boundary arrows point into the grid and vertical ones
out.  The sweep state is the bitmask v of downward vertical arrows
entering the current row.  A row transition v -> v2 is valid iff,
reading columns left to right, the flipped bits alternate
0->1, 1->0, ..., 0->1 (starting and ending with 0->1); each valid
transition fixes the whole row, including every shape mask.  Selected
edges are the arrows leaving vertices of even checkerboard parity
(row+col even), equivalently the arrows entering odd vertices; this is
the orientation convention under which the numbered-stub boundary rule
holds, which `_row_moves` checks for every generated row.  The row
table is built bit-parallel, once per call: `_row_shapes` gets the
horizontal arrows of a row as a prefix xor of its flips and each of the
four shape bits as one n-bit word, spread to one byte per column, and
`_row_moves` checks the convention on that packed odd row with a few
integer comparisons.  The even row is the odd one with all four bits
flipped, so a check at even parity would restate the odd one, and the
table stores per v the sorted v2 values as one array('H') and one bytes
of their odd rows, n + 2 bytes a move; `_moves_from` flips an even row
as it reads it.

The census keeps, along the sweep, a frontier linkage: for every live
vertical edge crossing the sweep line, the far end of its open path
(another live column or an already-reached numbered stub), plus the set
of completed stub-stub arcs.  The future of a sweep state depends only
on (v, linkage); the arcs only ride along, and the arcs a row completes
are added to every entry that shares its (v, linkage).  An arcs set is
packed into one integer: the smaller stub a of each arc holds its
partner b in an ARC_BITS-wide field at bit ARC_BITS * (a - 1).  A
disjoint union is then integer addition, and equal sets pack to equal
integers without sorting.

How a row move rewires a linkage depends only on which slots are empty,
which column each live slot points to and which slots reach a stub,
never on the stub numbers.  A level is therefore kept in shape groups,
a shape being (v, linkage) with every stub token replaced by one
marker, so a member is its stub numbers in column order alone.  A level
is keyed by v first, {v: {marked linkage: group}}, so the row paths out
of each (row, v) are built once and shared by all of its groups,
2**n - 1 builds a census.  A level numbers its members' stub tuples,
and it numbers its distinct keys, stub code << ARC_BITS * 2n | packed
arcs, once: a group is one flat dict {key id: multiplicity}, so each
big-integer key is held once a level and every merge hashes a small
integer.  A move's row paths are read off its U and B words: a column
in both runs straight down and joins its top and bottom, and the ends
of the columns in one of them pair up in order along the row's
horizontal runs, after the row's left stub and before its right one.
Each (shape, move) is advanced once by a chase over those paths: from
each bottom column in order, up through the row to a top column, on
through the shape's partner column and through the row again, until the
path reaches a bottom column (a new pair of the shape) or a stub.  The
stubs reached, in column order, as sources (a member's stub, by
ordinal, or one of the row's own), and the new arcs as pairs of
sources, chased from the stubs that reach no bottom column, are the
move's stub effect.  An effect sends a stub code to the same new code
and arcs, and a key to the same new key, in every group of the row, so
each distinct effect of a row memoizes both maps.  Many moves of a
group share one effect, so a popped group is re-keyed once per effect
through its memos into one dict, and each move with that effect adds
that dict into its target group in a plain loop over its entries.  A
group is released once advanced, and a row's key list and memos once
the row is done, so one level shrinks while the next grows.
Rows 1..n are the same step, `_sweep_row`.  Every move raises the
count of down arrows by one, so every move out of row n ends at the
all-down mask; `_close`, one short pass over the last level, then
reads each key back through the level's key list, rebuilds its
linkage, closes it onto the numbered bottom stubs and checks and ranks
each final value as a perfect noncrossing matching.  Totals are exact
integers throughout.  The sweep is one pass in one process, since a
level split into slices cannot merge across them.  `enumerate_states`
streams the individual states instead and never merges, and `state_at`
picks one of them by its index from the number of completions below
each (row, v).
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

from . import patterns as _pat
from ._record import FORMAT_VERSION, Frozen, set_field
from .errors import CapacityError, ConjectureViolation
from .patterns import LinkPattern

# Shape-mask bits (selected edge directions at an internal vertex).
U, L, B, R = 1, 2, 4, 8
_SHAPES = frozenset({U | L, U | B, U | R, L | B, L | R, B | R})

# Width of one packed arc field: the census stores each arc's larger
# stub in the field of its smaller one, so stub numbers must stay below
# 2**ARC_BITS, that is n <= 15.
ARC_BITS = 5


def asm_count(n: int) -> int:
    """Number of n-by-n alternating-sign matrices (= loop states).

    Product formula: prod_{k=0}^{n-1} (3k+1)! / (n+k)!.

    >>> [asm_count(k) for k in range(1, 8)]
    [1, 2, 7, 42, 429, 7436, 218348]
    """
    if n < 0:
        raise ValueError(f"asm_count undefined for n={n}")
    num = math.prod(math.factorial(3 * k + 1) for k in range(n))
    den = math.prod(math.factorial(n + k) for k in range(n))
    return num // den


@lru_cache(maxsize=8)
def stub_positions(n: int) -> dict[int, tuple[str, int]]:
    """Map stub number -> (side, index); side in "TRBL", index 1-based.

    The 4n stub slots walked clockwise from the top-left corner: top row
    left to right (cols 1..n), right side top to bottom (rows 1..n),
    bottom row right to left, left side bottom to top.  Every other slot
    is numbered, starting with the first.
    """
    up, down = range(1, n + 1), range(n, 0, -1)
    sides = (("T", up), ("R", up), ("B", down), ("L", down))
    walk = [(side, k) for side, ks in sides for k in ks]
    return dict(enumerate(walk[::2], 1))


@lru_cache(maxsize=8)
def _stub_at(n: int) -> dict[tuple[str, int], int]:
    """Inverse of stub_positions: (side, index) -> stub number."""
    return {pos: num for num, pos in stub_positions(n).items()}


# -- row transition table ----------------------------------------------


# Widest row the packed row words handle: the prefix xor in _row_shapes
# reaches 16 columns and its checkerboard constant 0x5555 has 16 bits.
MAX_ROW_BITS = 16


@lru_cache(maxsize=8)
def _spread(n: int) -> list[int]:
    """spread[w]: the n-bit word w with its bit j moved to bit 8j."""
    if n > MAX_ROW_BITS:
        raise CapacityError(
            f"n={n}: the packed row words handle n <= {MAX_ROW_BITS}"
        )
    table = [0]
    for j in range(n):
        table += [s | 1 << 8 * j for s in table]
    return table


def _checkerboard(n: int, parity: int) -> tuple[int, int]:
    """(P, ~P) as n-bit words: bit j of P is set iff r + j + 1 is odd,
    parity being r mod 2."""
    full = (1 << n) - 1
    return (0x5555 << parity) & full, (0xAAAA >> parity) & full


def _row_shapes(n: int, v: int, v2: int, row_parity: int) -> tuple[int, ...] | None:
    """Shape masks for one row given arrow masks above (v) and below (v2).

    Returns None when the transition is invalid.  row_parity is r mod 2.
    Horizontal arrows enter at 1 (rightward) and must leave at 0, and a
    column flips the horizontal arrow exactly when it flips its vertical
    one, so the arrow entering column j is 1 xor the parity of the flips
    v ^ v2 left of j: a prefix xor by shifts of 1, 2, 4 and 8.
    A flip is legal iff that arrow differs from the bit above it.  With
    P the checkerboard word (bit j set iff r + j + 1 is odd), l the
    arrows entering each column and rgt = l ^ v ^ v2 those leaving it,
    the four shape bits are the n-bit words U = ~(v ^ P), L = ~(l ^ P),
    B = v2 ^ P and R = rgt ^ P; _spread puts each column in its own
    byte and to_bytes reads the masks off.
    """
    full = (1 << n) - 1
    d = v ^ v2
    x = d << 1  # bit j: parity of the flips left of j, once prefixed
    x ^= x << 1
    x ^= x << 2
    x ^= x << 4
    x ^= x << 8
    # x holds ~l, so the row leaves at 0 iff bit n is set, and a flip at
    # j is illegal iff l_j == v_j, that is iff x_j != v_j
    if not x >> n & 1 or d & (x ^ v):
        return None
    P, q = _checkerboard(n, row_parity)
    spread = _spread(n)
    packed = (spread[v ^ q] | spread[(x ^ P) & full] << 1
              | spread[v2 ^ P] << 2 | spread[(x ^ d ^ q) & full] << 3)
    return tuple(packed.to_bytes(n, "little"))


def _row_moves(n: int) -> list[tuple[array, bytes]]:
    """moves[v] = (sorted v2 values as array('H'), their odd rows as bytes).

    The valid v2 are generated from the alternating-flip rule: the
    horizontal arrow enters at 1, a column may flip only when its bit
    above differs from the arrow entering it (the arrow then takes that
    bit), and the arrow must leave the row at 0.  Every generated row is
    then checked: _row_shapes must accept it, and at odd parity the
    shapes must place boundary edges exactly on the numbered stubs.  The
    check runs on the row packed one byte per column, as four integer
    comparisons: the U and B bytes against the spread checkerboard words
    for v and v2 (so top stubs sit on odd columns), and the L bit of
    column 1 and the R bit of column n against the numbered stubs of
    row 1, which stands for every odd row.  A row that breaks either
    raises ConjectureViolation, also under python -O.  Flipping the
    checkerboard parity negates all four bit conditions, so an even row
    is its odd one with each byte xor 0x0F, which _moves_from applies
    on reading, and its check would restate the odd one.  Move i of v
    is bytes n*i .. n*i + n - 1 and v2 i of its array (n <= MAX_ROW_BITS
    fits 16 bits): 17 B a move at n = 9 and 13, 13.4 MB at n = 13.  The
    census frees the uncached table with its sweep.
    """
    # here, not at module level: loaded before the other modules' tables,
    # it raised the peak RSS of `sample` by 0.2 MB
    from array import array

    spread = _spread(n)
    ones = spread[-1]  # 0x01 in every column's byte
    rbit = 8 * n - 5
    full = (1 << n) - 1
    P = 0xAAAA & full  # columns j with r + j + 1 odd in an odd row r
    up, down = spread[P ^ full], spread[P]
    at = _stub_at(n)
    left, right = ("L", 1) in at, ("R", 1) in at
    moves: list[tuple[array, bytes]] = []
    for v in range(1 << n):
        partial = [(v, 1)]  # (v2 so far, arrow entering the next column)
        for j in range(n):
            a = (v >> j) & 1
            partial += [(w ^ (1 << j), a) for w, l in partial if l != a]
        v2s = array("H", sorted(w for w, l in partial if l == 0))
        rows = bytearray()
        sv = spread[v]
        for v2 in v2s:
            odd = _row_shapes(n, v, v2, 1)
            if odd is None:
                raise ConjectureViolation(
                    "a generated row is invalid",
                    {"n": n, "v": v, "v2": v2}, check="census-sweep",
                )
            word = int.from_bytes(odd, "little")
            if (word & ones != sv ^ up or word >> 2 & ones != spread[v2] ^ down
                    or word >> 1 & 1 != left or word >> rbit & 1 != right):
                raise ConjectureViolation(
                    "row shapes break the numbered-stub parity convention",
                    {"n": n, "v": v, "v2": v2, "parity": 1},
                    check="census-sweep",
                )
            rows.extend(odd)
        moves.append((v2s, bytes(rows)))
    return moves


_EVEN = bytes(b ^ 15 for b in range(256))  # a shape mask at the other parity


def _moves_from(moves: list, n: int, v: int, parity: int) -> zip:
    """(v2, shape masks as n bytes) of every move out of v, in order."""
    v2s, rows = moves[v]
    if not parity:
        rows = rows.translate(_EVEN)
    return zip(v2s, [rows[i:i + n] for i in range(0, len(rows), n)])


def _initial_frontier(n: int) -> tuple:
    """Far-end tokens above row 1: numbered top stubs at odd columns.

    Token convention used throughout the sweep: None = no live edge,
    j >= 0 = live edge at column j (0-based), -k = numbered stub k.
    """
    at = _stub_at(n)
    return tuple(None if (s := at.get(("T", j + 1))) is None else -s
                 for j in range(n))


def _row_paths(n: int, v: int, v2s, parity: int, left: int | None,
               right: int | None) -> list[tuple[int, list, list[int]]]:
    """(v2, ends, bottom columns) of every move v -> v2 of a row.

    The row's path ends are numbered: the top of column j is j, its
    bottom n + j, and the row's own stubs, left then right, 2n onward.
    ends[e] is the end that the row's path from e reaches.  With U =
    v ^ ~P and B = v2 ^ P the words of _row_shapes, a column in U & B
    runs straight down.  The ends of the columns in U ^ B, after the
    left stub and before the right stub, pair up in order along the
    row's horizontal runs.  An odd count means a path end leaves the row
    where no numbered right stub is, or a numbered right stub catches no
    path end; either raises ConjectureViolation.
    """
    top = 2 * n
    P, q = _checkerboard(n, parity)
    up = v ^ q
    lead = [] if left is None else [top]
    last = [] if right is None else [top + len(lead)]
    paths = []
    for v2 in v2s:
        down = v2 ^ P
        ends: list = [None] * (top + 2)
        run = list(lead)
        bots = []
        for j in range(n):
            if down >> j & 1:
                bots.append(j)
                if up >> j & 1:
                    ends[j], ends[n + j] = n + j, j
                else:
                    run.append(n + j)
            elif up >> j & 1:
                run.append(j)
        run += last
        if len(run) & 1:
            raise ConjectureViolation(
                "a path end leaves the row at an unnumbered right stub"
                if right is None else
                f"numbered right stub {right} catches no path end",
                {"n": n, "v": v, "v2": v2}, check="census-sweep",
            )
        for a, b in zip(run[::2], run[1::2]):
            ends[a], ends[b] = b, a
        paths.append((v2, ends, bots))
    return paths


def _chase(n: int, far: list, starts: list[int], ends: list,
           bots: list[int]) -> tuple[tuple, tuple]:
    """One shape group through one move: (stub effect, next marked frontier).

    X, the stubs a member is re-keyed on, is its own stubs in column
    order and then the row's; starts[i] is the row end where X[i] enters
    the row.  far maps a row end to where a path goes on past it: from
    a live top column to its partner column in the group's frontier, or
    ~x where the path stops, x < len(starts) at stub X[x] and
    x = len(starts) + k at the bottom of column k.  From each bottom
    column in order the path is followed through ends and far to a new
    pair or to a stub, whose index into X joins the effect's idx.  Only
    when fewer stubs than X holds reach the bottom are the leftover
    ones chased to pair up as the effect's links, the row's new arcs.
    """
    size = len(starts)
    F: list = [None] * n
    idx = []
    for k in bots:
        if F[k] is None:
            e = ends[n + k]
            while (t := far[e]) >= 0:
                e = ends[t]
            t = ~t
            if t < size:
                idx.append(t)
                F[k] = -1
            else:
                t -= size
                F[k], F[t] = t, k
    links = []
    if len(idx) < size:
        done = set(idx)
        for i in range(size):
            if i not in done:
                e = ends[starts[i]]
                while (t := far[e]) >= 0:
                    e = ends[t]
                done.add(~t)
                links.append((i, ~t))
    return (tuple(idx), tuple(links)), tuple(F)


def _bottom_arcs(n: int, F) -> list[tuple[int, int]]:
    """Close the frontier onto the numbered bottom stubs after row n."""
    at, arcs = _stub_at(n), []
    for j, t in enumerate(F):
        if t is not None and (t < 0 or t > j):  # each column pair once
            s = at[("B", j + 1)]
            u = -t if t < 0 else at[("B", t + 1)]
            arcs.append((s, u) if s < u else (u, s))
    return arcs


def _row_tokens(n: int, r: int) -> tuple[int | None, int | None]:
    """(left stub token, right stub number) for 1-based row r."""
    at = _stub_at(n)
    left = at.get(("L", r))
    return (None if left is None else -left), at.get(("R", r))


# -- states and matrices ------------------------------------------------


class FplState(Frozen):
    """One fully packed loop state: n plus the n-by-n grid of shape masks.

    ``grid[r][c]`` (0-based) is the mask of vertex (r+1, c+1).  The
    constructor checks mask validity, agreement of shared edges between
    neighbors, and the numbered-stub boundary rule, so every reachable
    instance is a genuine state.  The rule is checked on the top and
    bottom sides only: orient the grid's edges as in the ice model, so
    every vertex has two arrows in and two out and as many boundary
    arrows point in as out.  The top and bottom rules make all 2n
    vertical boundary arrows point out, so all 2n horizontal ones point
    in, which is the rule on the left and right sides.
    """

    __slots__ = _fields = ("n", "grid")
    n: int
    grid: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, grid: tuple[tuple[int, ...], ...]) -> None:
        set_field(self, "n", n)
        set_field(self, "grid", grid)
        g = grid
        if n < 1 or len(g) != n or any(len(row) != n for row in g):
            raise ValueError("grid must be n rows of n shape masks")
        for r in range(n):
            for c in range(n):
                m = g[r][c]
                if m not in _SHAPES:
                    raise ValueError(f"bad shape mask {m} at {(r + 1, c + 1)}")
                if c + 1 < n and bool(m & R) != bool(g[r][c + 1] & L):
                    raise ValueError(f"horizontal edge mismatch at {(r + 1, c + 1)}")
                if r + 1 < n and bool(m & B) != bool(g[r + 1][c] & U):
                    raise ValueError(f"vertical edge mismatch at {(r + 1, c + 1)}")
        at = _stub_at(n)
        for c in range(1, n + 1):
            if bool(g[0][c - 1] & U) != (("T", c) in at):
                raise ValueError(f"top boundary violated at column {c}")
            if bool(g[n - 1][c - 1] & B) != (("B", c) in at):
                raise ValueError(f"bottom boundary violated at column {c}")

    @classmethod
    def _from_row_table(cls, n: int, grid: tuple[tuple[int, ...], ...]) -> FplState:
        """A state built from rows of the row table, without re-checking.

        The row table admits only valid shapes that agree along shared
        edges and meet the boundary rule, so enumerate_states and
        state_at skip the constructor's checks, which were nearly all of
        the stream's cost.
        """
        state = object.__new__(cls)
        set_field(state, "n", n)
        set_field(state, "grid", grid)
        return state

    def shape(self, r: int, c: int) -> int:
        """Shape mask at 1-based (r, c)."""
        return self.grid[r - 1][c - 1]

    def edges(self) -> frozenset[frozenset]:
        """Selected edges as frozensets of endpoint tuples.

        Internal endpoints are ("in", r, c); externals are
        ("ext", side, k) with side in "TRBL" and k the row or column.
        """
        n = self.n
        out = set()
        for r in range(1, n + 1):
            for c in range(1, n + 1):
                m = self.shape(r, c)
                here = ("in", r, c)
                if m & R:
                    out.add(frozenset({here, ("in", r, c + 1) if c < n else ("ext", "R", r)}))
                if m & B:
                    out.add(frozenset({here, ("in", r + 1, c) if r < n else ("ext", "B", c)}))
                if m & U and r == 1:
                    out.add(frozenset({here, ("ext", "T", c)}))
                if m & L and c == 1:
                    out.add(frozenset({here, ("ext", "L", r)}))
        return frozenset(out)


class AsmMatrix(Frozen):
    """An alternating-sign matrix: entries in {-1, 0, 1}, every row and
    column summing to 1 with nonzero entries alternating in sign
    (equivalently: all prefix sums are 0 or 1 and each line sums to 1).
    """

    __slots__ = _fields = ("n", "rows")
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]) -> None:
        set_field(self, "n", n)
        set_field(self, "rows", rows)
        if n < 1 or len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("need an n-by-n entry grid")
        for kind, lines in (("row", rows), ("column", zip(*rows))):
            for i, line in enumerate(lines, 1):
                acc = 0
                for j, x in enumerate(line, 1):
                    if x not in (-1, 0, 1):
                        pos = (i, j) if kind == "row" else (j, i)
                        raise ValueError(f"entry {x} at {pos}")
                    acc += x
                    if acc not in (0, 1):
                        raise ValueError(f"{kind} {i} prefix sum leaves {{0,1}}")
                if acc != 1:
                    raise ValueError(f"{kind} {i} sums to {acc}")

    def to_text(self) -> str:
        """Entries space-separated, one matrix row per line."""
        return "\n".join(
            " ".join(f"{v:2d}" for v in row) for row in self.rows
        ) + "\n"


def asm_stream_text(matrices) -> str:
    """Plain-text export: one matrix per block, blocks blank-separated."""
    return "\n".join(m.to_text() for m in matrices)


def state_to_asm(state: FplState) -> AsmMatrix:
    """Forget loops, keep arrows: recover the alternating-sign matrix.

    Each entry is the change of the vertical arrow across its vertex:
    (arrow below) - (arrow above), both read from the B and U bits of
    the shape mask by the checkerboard rule.
    """
    n = state.n
    rows = []
    for r in range(1, n + 1):
        row = []
        for c in range(1, n + 1):
            m, p = state.shape(r, c), (r + c) & 1
            row.append((1 - p if m & B else p) - (p if m & U else 1 - p))
        rows.append(tuple(row))
    return AsmMatrix(n, tuple(rows))


def asm_to_state(asm: AsmMatrix) -> FplState:
    """Inverse of state_to_asm: rebuild the shape grid from entries.

    The downward arrows below a row are the column prefix sums, so the
    arrow mask below row r is the one above it plus the row's entries,
    and _row_shapes turns each (above, below) pair into the row's masks.
    """
    grid, v = [], 0
    for r, row in enumerate(asm.rows, 1):
        v2 = v + sum(x << c for c, x in enumerate(row))
        grid.append(_row_shapes(asm.n, v, v2, r & 1))
        v = v2
    return FplState(asm.n, tuple(grid))


def link_pattern_of(state: FplState) -> LinkPattern:
    """Trace the open paths of a state and return its boundary pattern.

    This walks the grid stub to stub and is deliberately independent of
    the sweep-line linkage used by the census, so the two can check
    each other.  Malformed connectivity raises ValueError.
    """
    n = state.n
    positions, number_at = stub_positions(n), _stub_at(n)
    entry_of = {"T": U, "B": B, "L": L, "R": R}
    step = {U: (-1, 0, B), B: (1, 0, U), L: (0, -1, R), R: (0, 1, L)}
    side_at = {U: "T", B: "B", L: "L", R: "R"}

    def walk(start: int) -> int:
        side, k = positions[start]
        if side in ("T", "B"):
            r, c = (1, k) if side == "T" else (n, k)
        else:
            r, c = (k, 1) if side == "L" else (k, n)
        entry = entry_of[side]
        while True:
            m = state.shape(r, c)
            if not m & entry:
                raise ValueError(f"path enters vertex {(r, c)} on an unselected edge")
            exit_bit = m ^ entry
            dr, dc, entry = step[exit_bit]
            r, c = r + dr, c + dc
            if not (1 <= r <= n and 1 <= c <= n):
                side = side_at[exit_bit]
                pos = (side, c if side in "TB" else r)
                if (num := number_at.get(pos)) is None:
                    raise ValueError(f"path exits at unnumbered stub {pos}")
                return num

    m = [-1] * (2 * n)
    for s in range(1, 2 * n + 1):
        if m[s - 1] >= 0:
            continue
        t = walk(s)
        m[s - 1], m[t - 1] = t - 1, s - 1
    return LinkPattern(n, tuple(m))


# -- enumeration and census ---------------------------------------------


def enumerate_states(n: int, max_n: int | None = None):
    """Yield every state exactly once, in a deterministic order.

    The order is depth-first over rows with the vertical-arrow masks
    ascending, so it is reproducible across runs and platforms.
    """
    _pat.check_n(n, max_n)
    moves = _row_moves(n)
    rows: list[tuple[int, ...]] = []

    def descend(v: int, r: int):
        for v2, shapes in _moves_from(moves, n, v, r & 1):
            rows.append(tuple(shapes))
            if r == n:
                yield FplState._from_row_table(n, tuple(rows))
            else:
                yield from descend(v2, r + 1)
            rows.pop()

    yield from descend(0, 1)


def state_at(n: int, k: int, max_n: int | None = None) -> FplState:
    """The state at index k of enumerate_states(n), without the walk.

    ways(r, v), the number of ways to fill rows r..n below the arrow mask
    v, is 1 past row n and otherwise the sum of ways(r + 1, v2) over the
    moves v -> v2; it is counted for the reached (r, v) only.  Unless
    ways(1, 0) is asm_count(n), ConjectureViolation is raised.  Each row
    then takes, in the order enumerate_states uses, the move whose block
    of completions holds index k, and k drops by the blocks it skips.
    """
    _pat.check_n(n, max_n)
    total = asm_count(n)
    if not 0 <= k < total:
        raise ValueError(f"state index {k} out of range for n={n}")
    moves = _row_moves(n)

    @lru_cache(maxsize=None)
    def ways(r: int, v: int) -> int:
        return 1 if r > n else sum([ways(r + 1, v2) for v2 in moves[v][0]])

    if ways(1, 0) != total:
        raise ConjectureViolation(
            f"the row table completes {ways(1, 0)} states, "
            f"the product formula {total}",
            {"n": n, "completions": ways(1, 0), "product_formula": total},
            check="census-sweep",
        )
    rows: list[tuple[int, ...]] = []
    v = 0
    for r in range(1, n + 1):
        for v2, shapes in _moves_from(moves, n, v, r & 1):
            if k < ways(r + 1, v2):
                break
            k -= ways(r + 1, v2)
        rows.append(tuple(shapes))
        v = v2
    return FplState._from_row_table(n, tuple(rows))


def _pack(arcs) -> int:
    """Packed value of (a, b) stub arcs with a < b: b in the field of a."""
    packed = 0
    for a, b in arcs:
        packed += b << (ARC_BITS * (a - 1))
    return packed


def _pattern_rank(n: int, packed: int, rank_of: dict) -> int:
    """Rank of the matching a final packed arcs value encodes.

    Every stub 1..2n must sit in exactly one arc and the matching must
    be noncrossing (only those are in rank_of); anything else is a
    linkage fault of the sweep and raises ConjectureViolation.
    """
    size = 2 * n
    field = (1 << ARC_BITS) - 1
    m = [-1] * size
    for a in range(size):
        b = ((packed >> (ARC_BITS * a)) & field) - 1
        if b < 0:
            continue
        if not a < b < size or m[a] >= 0 or m[b] >= 0:
            raise ConjectureViolation(
                f"stub {a + 1} is paired with {b + 1} in an overlapping "
                "or out-of-range arc",
                {"n": n, "packed_arcs": packed}, check="census-sweep",
            )
        m[a], m[b] = b, a
    if packed >> (ARC_BITS * size) or -1 in m:
        raise ConjectureViolation(
            "the final arcs do not cover every stub exactly once",
            {"n": n, "packed_arcs": packed}, check="census-sweep",
        )
    rank = rank_of.get(bytes(m))
    if rank is None:
        raise ConjectureViolation(
            "the final arcs form a crossing matching",
            {"n": n, "match": m}, check="census-sweep",
        )
    return rank


def _rekey(group: dict, keys: list, effect: tuple, stubs: list, tail: tuple,
           arc: list, codes: dict, ids: dict, shift: int) -> dict:
    """Apply one stub effect to every entry of a flat shape group.

    group maps key ids of the level to multiplicities, and keys[id] is
    the key, stub code << shift | packed arcs.  A member's stubs are
    X = stubs[code] + tail, the row's own stub numbers last.  effect is
    (pick, links, offsets, moved): pick takes the new stubs out of X in
    column order, links holds the new arcs as index pairs into X, and
    the two memos, shared by every group of the row with this effect,
    map a stub code to its new code << shift plus its new packed arcs,
    and a key id to its new key id.  codes numbers the next level's
    stub tuples and ids its keys.  Returns the re-keyed group {new key
    id: multiplicity}; entries that meet on one new key are summed.
    """
    pick, links, offsets, moved = effect
    mask = (1 << shift) - 1
    out: dict = {}
    count = out.get
    for kid, mult in group.items():
        nid = moved.get(kid)
        if nid is None:
            key = keys[kid]
            code = key >> shift
            base = offsets.get(code)
            if base is None:
                X = stubs[code] + tail
                try:
                    base = codes.setdefault(pick(X), len(codes)) << shift
                    for i, j in links:
                        base += arc[X[i]][X[j]]
                except IndexError:
                    raise ConjectureViolation(
                        "a member has fewer stubs than its stub effect reads",
                        {"stubs": X}, check="census-sweep",
                    ) from None
                offsets[code] = base
            nid = moved[kid] = ids.setdefault(base + (key & mask), len(ids))
        out[nid] = count(nid, 0) + mult
    return out


def _sweep_row(n: int, r: int, level: dict, keys: list, stubs: list,
               moves: list, arc: list) -> tuple[dict, list, list]:
    """Sweep row r: the level above it -> (next level, keys, stubs).

    A level maps each arrow mask v to its shape groups, {marked frontier:
    flat dict {key id: multiplicity}}, the marked frontier having every
    stub token replaced by -1.  keys[id] is the level's key, stub code
    << ARC_BITS * 2n | packed arcs, and stubs[code] a member's stub
    tuple.  The row paths of the moves out of (row, v) are built by
    _row_paths once and shared by every group of that v.  Each (shape,
    move) is advanced once by _chase, which yields the new marked
    frontier and the move's stub effect, indices into X, a member's
    stubs followed by the row's own stub numbers (see the module
    docstring).  Each distinct effect of the row holds two memos, stub
    code -> new code and arcs, key id -> new key id, so _rekey walks a
    popped group once per effect, and each move with that effect adds
    the result into its target group entry by entry.  The first new
    target of a (group, effect) takes that dict itself and each later
    one starts as a copy of it: the moves of one group have distinct
    targets, so no merge reaches the dict until its moves are done.
    level is emptied as it is swept, and keys and the row's memos are
    cleared before the next key list is built.
    """
    top = 2 * n
    shift = ARC_BITS * top  # a key's stub code sits above its packed arcs
    left, right = _row_tokens(n, r)
    # the row's own stub numbers; a member is re-keyed on X = its stubs + tail
    tail = (*(() if left is None else (-left,)),
            *(() if right is None else (right,)))
    row_ends = list(range(top, top + len(tail)))  # where the row's stubs enter
    nxt: dict = {}
    codes: dict = {}  # stub tuple of level r + 1 -> its code
    ids: dict = {}  # key of level r + 1 -> its id
    effects: dict = {}  # stub effect -> (pick, links, memos), per row
    while level:
        v, groups = level.popitem()
        paths = _row_paths(n, v, moves[v][0], r & 1, left, right)
        while groups:
            Fs, group = groups.popitem()
            cols = [j for j, t in enumerate(Fs) if t == -1]
            starts = cols + row_ends
            size = len(starts)
            far = list(Fs)
            for i, j in enumerate(cols):
                far[j] = ~i
            far += [~x for x in range(size, size + n)]  # the bottom ends
            far += [~x for x in range(len(cols), size)]  # the row's stubs
            targets: dict = {}  # stub effect -> the target shapes of its moves
            for v2, ends, bots in paths:
                effect, Fs2 = _chase(n, far, starts, ends, bots)
                targets.setdefault(effect, []).append((v2, Fs2))
            for effect, shapes in targets.items():
                memo = effects.get(effect)
                if memo is None:
                    idx, links = effect
                    # itemgetter of fewer than two indices returns no tuple
                    pick = (itemgetter(*idx) if len(idx) > 1
                            else lambda X, idx=idx: tuple([X[i] for i in idx]))
                    memo = effects[effect] = (pick, links, {}, {})
                entries = _rekey(group, keys, memo, stubs, tail, arc, codes,
                                 ids, shift)
                taken = False
                for v2, Fs2 in shapes:
                    tier = nxt.get(v2)
                    if tier is None:
                        tier = nxt[v2] = {}
                    target = tier.get(Fs2)
                    if target is None:  # later moves copy the dict it took
                        tier[Fs2] = entries.copy() if taken else entries
                        taken = True
                    else:
                        get = target.get
                        for kid, mult in entries.items():
                            target[kid] = get(kid, 0) + mult
    keys.clear()  # the row's key list and memos go before the next's
    effects.clear()
    return nxt, list(ids), list(codes)


def _close(n: int, level: dict, keys: list, stubs: list) -> dict[int, int]:
    """Close the level after row n onto the bottom stubs: rank -> count.

    Each key is read back through the key list, its stubs put back into
    its group's frontier, the frontier closed by _bottom_arcs and the
    final packed arcs ranked by _pattern_rank.
    """
    _, rank_of = _pat._basis(n)
    shift = ARC_BITS * 2 * n
    mask = (1 << shift) - 1
    counts: dict[int, int] = {}
    for groups in level.values():
        for Fs, group in groups.items():
            cols = [j for j, t in enumerate(Fs) if t == -1]
            closings: dict = {}  # stub code -> packed arcs onto the bottom stubs
            for kid, mult in group.items():
                key = keys[kid]
                code = key >> shift
                closing = closings.get(code)
                if closing is None:
                    F = list(Fs)
                    for j, s in zip(cols, stubs[code]):
                        F[j] = -s
                    closing = closings[code] = _pack(_bottom_arcs(n, F))
                rank = _pattern_rank(n, (key & mask) + closing, rank_of)
                counts[rank] = counts.get(rank, 0) + mult
    return counts


def _census(n: int) -> dict[int, int]:
    """Sweep rows 1..n with _sweep_row, then _close the last level.

    The first level is the one shape group of the top stubs, holding key
    0 (stub code 0, no arcs) once.  Returns a dict rank -> count over
    final link patterns.
    """
    if 2 * n >= 1 << ARC_BITS:
        raise CapacityError(
            f"n={n} has stub numbers beyond the {ARC_BITS}-bit packed arc "
            f"field; the census handles n <= {((1 << ARC_BITS) - 1) // 2}"
        )
    moves = _row_moves(n)
    top = 2 * n
    # arc[a][b]: packed value of the arc joining stubs a and b
    arc = [[0] * (top + 1) for _ in range(top + 1)]
    for a in range(1, top + 1):
        for b in range(a + 1, top + 1):
            arc[a][b] = arc[b][a] = _pack(((a, b),))
    F0 = _initial_frontier(n)
    level: dict = {0: {tuple([None if t is None else -1 for t in F0]): {0: 1}}}
    keys = [0]  # key id -> key
    stubs = [tuple([-t for t in F0 if t is not None])]  # code -> stub tuple
    for r in range(1, n + 1):
        level, keys, stubs = _sweep_row(n, r, level, keys, stubs, moves, arc)
    return _close(n, level, keys, stubs)


class PatternHistogram(Frozen):
    """Census result: for each pattern rank, how many states realize it."""

    __slots__ = _fields = ("n", "counts")
    n: int
    counts: dict[int, int]

    def __init__(self, n: int, counts: dict[int, int]) -> None:
        set_field(self, "n", n)
        set_field(self, "counts", counts)

    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, r: int) -> int:
        return self.counts.get(r, 0)

    def as_vector(self) -> list[int]:
        """Counts as a dense list indexed by rank."""
        return [self.counts.get(r, 0) for r in range(_pat.catalan(self.n))]

    def to_csv_text(self) -> str:
        """One line per rank; the match arrays come from the raw basis tuples."""
        lines = ["rank,match_array,count"]
        for r in sorted(self.counts):
            match = _pat.match_text(_pat._match_of(self.n, r))
            lines.append(f"{r},{match},{self.counts[r]}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": "fpl-histogram",
            "n": self.n,
            "total": self.total(),
            "counts": {str(r): self.counts[r] for r in sorted(self.counts)},
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> PatternHistogram:
        if obj.get("kind") != "fpl-histogram":
            raise ValueError(f"not a histogram object: kind={obj.get('kind')!r}")
        if obj.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {obj.get('format_version')!r}")
        h = cls(int(obj["n"]), {int(k): int(v) for k, v in obj["counts"].items()})
        if h.total() != int(obj["total"]):
            raise ValueError("histogram total does not match its rows")
        return h


def histogram(n: int, max_n: int | None = None) -> PatternHistogram:
    """Count states per boundary link pattern.

    The grand total is cross-checked against the product formula on
    every call; a mismatch would mean a defect in the sweep and raises
    ConjectureViolation with both totals in its details.
    """
    _pat.check_n(n, max_n)
    counts = _census(n)
    expected = asm_count(n)
    got = sum(counts.values())
    if got != expected:
        raise ConjectureViolation(
            f"census total {got} != product formula {expected} at n={n}",
            {"n": n, "census_total": got, "product_formula": expected},
            check="census-total",
        )
    return PatternHistogram(n, counts)
