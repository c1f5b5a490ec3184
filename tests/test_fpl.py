"""Grid-state enumeration: bijections, census, and frozen oracles.

The small-n oracles here are produced by a brute-force route that
shares nothing with the production sweep: filter all {-1,0,1} matrices
by the alternating-sign rules, map each through the arrow bijection,
and trace its boundary pairing.  The resulting tallies are also frozen
as literals so a regression cannot hide behind a matching bug in both
routes.
"""
from __future__ import annotations

import doctest
import functools
import hashlib
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

import exact_reference
from exact_reference import (bottom_stub, census_per_key, left_stub,
                             marked_advance, right_stub, row_shapes, top_stub)
from loopmodel import fpl, patterns, render, spectra
from loopmodel.errors import CapacityError, ConjectureViolation

# frozen small-n tallies, rank -> count (derived by the brute-force
# route below, pinned here as literals)
ORACLE_HIST = {
    1: {0: 1},
    2: {0: 1, 1: 1},
    3: {0: 2, 1: 1, 2: 1, 3: 2, 4: 1},
}

STATE_TOTALS = [1, 2, 7, 42, 429, 7436, 218348, 10850216, 911835460]

# sha256 of histogram(7).to_csv_text(), pinned from the per-key sweep
# the bucketed census replaced
CSV_N7_SHA256 = "d81971c2fc2e4390c9f8b39342528255cd9273334e649b5ded5b29292a502834"

# sha256 of histogram(8).to_csv_text(), pinned from the census with a
# separate block for the last row that the one row loop replaced
CSV_N8_SHA256 = "4985d9035c9200dd904a4b01423805f77f2f706e8cfbbdbb87bff0de142b4ed4"

# sha256 of histogram(9).to_csv_text(), the census artifact the benchmark
# gate pins, and of histogram(10).to_csv_text(), both written by the
# census that replayed every (member, move) pair
CSV_N9_SHA256 = "6ab1c4ab70b81fa7710c7346a7381aa2e72c2985b7b47b90582bafece015f451"
CSV_N10_SHA256 = "469d352eb2e1ca0184b8ce0f2353ad2c21638010546af2309bdf58327067b46e"

# sha256 of histogram(11, max_n=11).to_csv_text(), pinned from the census
# that ran its row step inline before _sweep_row and _close split it
CSV_N11_SHA256 = "5076276f010c58a4185a3cd268e51f8781c3997c4c41d13f07d381c77e10cbbd"

# sha256 of asm_stream_text over enumerate_states(n), pinned from the
# state_to_asm that compared all four arrows against two fixed tuples
ASM_STREAM_SHA256 = {
    5: "50e321dfcb59ab106d98a0441b103904de272a2c821e73169306056145cf0520",
    6: "549841761d3d8d6329618d4171bfb70e056f0da33e2d3586f68925511375126b",
}


def brute_force_asms(n):
    """Every n-by-n matrix over {-1,0,1} passing the line rules."""
    out = []
    for entries in product((-1, 0, 1), repeat=n * n):
        rows = [entries[r * n:(r + 1) * n] for r in range(n)]
        ok = True
        for line in list(rows) + [list(col) for col in zip(*rows)]:
            acc = 0
            for v in line:
                acc += v
                if acc not in (0, 1):
                    ok = False
                    break
            if not ok or acc != 1:
                ok = False
                break
        if ok:
            out.append(tuple(map(tuple, rows)))
    return out


def brute_force_row_moves(n):
    """The row-move table by testing every (v, v2) pair with the per-column
    reference: 4**n shape calls, none of them through fpl._row_shapes."""
    moves = []
    for v in range(1 << n):
        row = []
        for v2 in range(1 << n):
            odd = row_shapes(n, v, v2, 1)
            if odd is not None:
                row.append((v2, odd, row_shapes(n, v, v2, 0)))
        moves.append(row)
    return moves


def unpacked_row_moves(n):
    """fpl._row_moves(n) read back as [[(v2, odd row, even row)] per v],
    the rows as tuples, through the reader the sweeps use."""
    moves = fpl._row_moves(n)
    return [[(v2, tuple(odd), tuple(even))
             for (v2, odd), (_, even) in zip(fpl._moves_from(moves, n, v, 1),
                                             fpl._moves_from(moves, n, v, 0))]
            for v in range(1 << n)]


def pattern_by_union_find(state):
    """Second, structure-free pairing route: components of the edge set."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in state.edges():
        a, b = tuple(edge)
        parent[find(a)] = find(b)
    stubs = {}
    for num, (side, idx) in fpl.stub_positions(state.n).items():
        if side == "T":
            key = ("ext", "T", idx)
        elif side == "B":
            key = ("ext", "B", idx)
        elif side == "L":
            key = ("ext", "L", idx)
        else:
            key = ("ext", "R", idx)
        stubs[num] = find(key)
    pairs = {}
    for num, root in stubs.items():
        pairs.setdefault(root, []).append(num)
    assert all(len(v) == 2 for v in pairs.values()), "stubs must pair up"
    return patterns.LinkPattern.from_pairs([tuple(v) for v in pairs.values()])


@pytest.mark.parametrize("module, examples", [(patterns, 6), (fpl, 1)],
                         ids=["patterns", "fpl"])
def test_docstring_examples(module, examples):
    assert doctest.testmod(module) == (0, examples)


def test_asm_count_oracle():
    for i, total in enumerate(STATE_TOTALS, start=1):
        assert fpl.asm_count(i) == total


def test_brute_force_asm_census_matches_sweep():
    for n in (1, 2, 3):
        asms = brute_force_asms(n)
        assert len(asms) == fpl.asm_count(n)
        tally: dict[int, int] = {}
        for rows in asms:
            st = fpl.asm_to_state(fpl.AsmMatrix(n, rows))
            r = patterns.rank(fpl.link_pattern_of(st))
            tally[r] = tally.get(r, 0) + 1
        assert tally == ORACLE_HIST[n]
        assert fpl.histogram(n).counts == ORACLE_HIST[n]


def test_enumerate_states_totals():
    for n in range(1, 6):
        assert sum(1 for _ in fpl.enumerate_states(n)) == fpl.asm_count(n)


def test_histogram_multiset_n4():
    hist = fpl.histogram(4)
    mult: dict[int, int] = {}
    for c in hist.counts.values():
        mult[c] = mult.get(c, 0) + 1
    assert mult == {7: 2, 3: 8, 1: 4}
    assert hist.total() == 42
    assert len(hist.counts) == 14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_histogram_totals_and_coverage(n):
    hist = fpl.histogram(n)
    assert hist.total() == fpl.asm_count(n)
    assert len(hist.counts) == patterns.catalan(n)
    assert all(c >= 1 for c in hist.counts.values())


@pytest.mark.parametrize("n", range(1, 8))
def test_row_moves_match_brute_force(n):
    # each v holds its sorted v2 values as one array('H') and one bytes
    # of n odd masks per move
    assert all(v2s.typecode == "H" and list(v2s) == sorted(v2s)
               and len(odd) == n * len(v2s) for v2s, odd in fpl._row_moves(n))
    moves = unpacked_row_moves(n)
    assert moves == brute_force_row_moves(n)
    assert sum(len(row) for row in moves) == (3 ** n - 1) // 2
    assert all(mask in fpl._SHAPES
               for row in moves for _, odd, even in row for mask in odd + even)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_even_rows_beyond_the_brute_force_range(n):
    # _row_moves stores the odd rows only and checks the convention at
    # odd parity only; past the reach of the brute force the even rows
    # read back must still be the per-column complements of the odd
    # ones and what _row_shapes gives at even parity
    for v, row in enumerate(unpacked_row_moves(n)):
        for v2, odd, even in row:
            assert even == tuple(m ^ 15 for m in odd), (v, v2)
            assert even == fpl._row_shapes(n, v, v2, 0), (v, v2)


@pytest.mark.parametrize("n", range(1, 11))
def test_every_move_adds_one_down_arrow(n):
    # so after row n every sweep state is the all-down mask, and the
    # census needs no filter on the moves out of row n
    for v, (v2s, _) in enumerate(fpl._row_moves(n)):
        for v2 in v2s:
            assert v2.bit_count() == v.bit_count() + 1, (v, v2)


@pytest.mark.parametrize("n", range(1, 8))
def test_bit_parallel_row_shapes_match_per_column_reference(n):
    for v in range(1 << n):
        for v2 in range(1 << n):
            for parity in (0, 1):
                assert (fpl._row_shapes(n, v, v2, parity)
                        == row_shapes(n, v, v2, parity)), (v, v2, parity)


@pytest.mark.parametrize("n, v, v2, col, bit", [
    (3, 0b101, 0b111, 2, fpl.U),
    (3, 0b101, 0b111, 2, fpl.B),
    (3, 0b101, 0b111, 1, fpl.L),
    (3, 0b101, 0b111, 3, fpl.R),
    (4, 0b0101, 0b0111, 4, fpl.R),
], ids=["U", "B", "L", "R-odd-n", "R-even-n"])
def test_row_moves_refuse_a_row_with_one_flipped_stub_bit(monkeypatch, n, v, v2,
                                                          col, bit):
    # the packed convention check must compare the U word and the B word,
    # the L bit of column 1 and the R bit of column n: flipping one U or B
    # bit in column 2 touches neither side bit, and a side stub at an odd
    # row is absent on the left and present on the right iff n is even
    real = fpl._row_shapes

    def corrupted(n_, v_, v2_, parity):
        shapes = real(n_, v_, v2_, parity)
        if (v_, v2_) == (v, v2):
            shapes = (*shapes[:col - 1], shapes[col - 1] ^ bit, *shapes[col:])
        return shapes

    monkeypatch.setattr(fpl, "_row_shapes", corrupted)
    with pytest.raises(ConjectureViolation, match="parity convention") as info:
        fpl._row_moves(n)
    assert info.value.check == "census-sweep"
    assert info.value.details == {"n": n, "v": v, "v2": v2, "parity": 1}


def test_row_moves_refuse_a_generated_row_the_shapes_reject(monkeypatch):
    n, v, v2 = 3, 0b101, 0b111
    real = fpl._row_shapes

    def rejected(n_, v_, v2_, parity):
        return None if (v_, v2_) == (v, v2) else real(n_, v_, v2_, parity)

    monkeypatch.setattr(fpl, "_row_shapes", rejected)
    with pytest.raises(ConjectureViolation, match="a generated row is invalid") as info:
        fpl._row_moves(n)
    assert info.value.check == "census-sweep"
    assert info.value.details == {"n": n, "v": v, "v2": v2}
    rep = spectra.verify_conjecture(n)
    assert [(c.name, c.passed) for c in rep.checks] == [("census-sweep", False)]
    assert "a generated row is invalid" in rep.checks[0].details


def test_census_matches_per_state_enumeration():
    # enumerate_states never merges, so this checks the buckets and the
    # packed arcs independently of the sweep's bookkeeping
    for n in range(1, 7):
        tally: dict[int, int] = {}
        for st in fpl.enumerate_states(n):
            r = patterns.rank(fpl.link_pattern_of(st))
            tally[r] = tally.get(r, 0) + 1
        assert fpl.histogram(n).counts == tally


@pytest.mark.parametrize("n", range(1, 9))
def test_census_matches_per_key_sweep(n):
    # the per-key sweep advances every frontier on its own, so equal
    # counts show that replaying a shape group's advance is exact
    assert fpl._census(n) == census_per_key(n)


def test_census_advances_each_shape_once(monkeypatch):
    # one chase per (row, frontier shape, move) instead of one cell walk
    # per (row, frontier, move): 3,090 against 10,156 at n = 7
    calls = []
    real_chase, real_walk = fpl._chase, exact_reference.apply_row

    def chase(*args):
        calls.append(1)
        return real_chase(*args)

    def walk(*args):
        calls.append(1)
        real_walk(*args)

    monkeypatch.setattr(fpl, "_chase", chase)
    monkeypatch.setattr(exact_reference, "apply_row", walk)
    fpl._census(7)
    shape_advances = len(calls)
    calls.clear()
    census_per_key(7)
    assert (shape_advances, len(calls)) == (3090, 10156)


def test_census_rekeys_members_once_per_stub_effect(monkeypatch):
    # a member code's new stubs and arcs are worked out once per (row,
    # stub effect) and kept in the effect's memo: 603 code-offset
    # computations at n = 7, against 4,373 re-keyed members when they
    # were worked out once per (group, stub effect) and the 10,156
    # replays of the per-key sweep
    computed = []
    real = fpl._rekey

    def counted(group, keys, effect, *args):
        offsets = effect[2]
        before = len(offsets)
        out = real(group, keys, effect, *args)
        computed.append(len(offsets) - before)
        return out

    monkeypatch.setattr(fpl, "_rekey", counted)
    assert fpl._census(7) == census_per_key(7)
    assert sum(computed) == 603


@pytest.mark.parametrize("n", [5, 7])
def test_census_reads_each_row_mask_once(monkeypatch, n):
    # a level is keyed by v first, so the row paths out of each reached
    # (row, v) are built once for all of its shape groups; v has r - 1
    # down arrows at row r, so 2**n - 1 masks are reached: 31 and 127
    # builds against one per group (56 and 418)
    expected = census_per_key(n)
    reads = []
    real = fpl._row_paths

    def counted(n_, v, v2s, parity, left, right):
        reads.append((v, parity))
        return real(n_, v, v2s, parity, left, right)

    monkeypatch.setattr(fpl, "_row_paths", counted)
    assert fpl._census(n) == expected
    assert len(reads) == len(set(reads)) == 2 ** n - 1


@pytest.mark.parametrize("n", range(1, 7))
def test_chase_matches_the_cell_walk_move_by_move(monkeypatch, n):
    # every shape group the census reaches, through every move out of
    # its v: the chase over the row's paths must give the stub effect and
    # the next marked frontier that the cell walk and its stub marking
    # give; the chase pairs the new arcs in its own order
    moves = fpl._row_moves(n)
    real = fpl._sweep_row
    compared = []

    def checked(n_, r, level, *args):
        left, right = fpl._row_tokens(n, r)
        tails = (left is not None) + (right is not None)
        for v, groups in level.items():
            paths = fpl._row_paths(n, v, moves[v][0], r & 1, left, right)
            rows = list(fpl._moves_from(moves, n, v, r & 1))
            assert [v2 for v2, _, _ in paths] == [v2 for v2, _ in rows]
            for Fs in groups:
                cols = [j for j, t in enumerate(Fs) if t == -1]
                starts = cols + list(range(2 * n, 2 * n + tails))
                size = len(starts)
                far = [~cols.index(j) if t == -1 else t for j, t in enumerate(Fs)]
                far += [~(size + k) for k in range(n)]
                far += [~x for x in range(len(cols), size)]
                for (_, ends, bots), (_, shapes) in zip(paths, rows):
                    (idx, links), F = fpl._chase(n, far, starts, ends, bots)
                    (ref_idx, ref_links), ref_F = marked_advance(n, r, Fs, shapes)
                    assert (idx, F) == (ref_idx, ref_F), (r, v, Fs, shapes)
                    assert ({frozenset(p) for p in links}
                            == {frozenset(p) for p in ref_links}), (r, v, Fs, shapes)
                    assert len(links) == len(ref_links)
                    compared.append(r)
        return real(n_, r, level, *args)

    monkeypatch.setattr(fpl, "_sweep_row", checked)
    assert fpl._census(n) == census_per_key(n)
    assert sorted(set(compared)) == list(range(1, n + 1))


def test_census_refuses_a_stub_code_table_with_two_stubs_swapped(monkeypatch):
    # the first stub tuple of two or more stubs gets its first two stubs
    # swapped in the code table, so every member with that code is read
    # back in the next row with the two stubs exchanged; the order of the
    # table, and with it every other code, is kept
    real = fpl._rekey
    swapped = []

    def corrupt(group, keys, effect, stubs, tail, arc, codes, ids, shift):
        out = real(group, keys, effect, stubs, tail, arc, codes, ids, shift)
        S = None if swapped else next((S for S in codes if len(S) > 1), None)
        if S is not None:
            table = list(codes.items())
            codes.clear()
            codes.update(((*T[1::-1], *T[2:]) if T == S else T, code)
                         for T, code in table)
            swapped.append(S)
        return out

    monkeypatch.setattr(fpl, "_rekey", corrupt)
    rep = spectra.verify_conjecture(5)
    assert swapped == [(1, 2, 3)]
    assert not rep.passed
    assert [(c.name, c.passed) for c in rep.checks] == [("census-sweep", False)]
    assert "crossing matching" in rep.checks[0].details


@pytest.mark.parametrize("same_width, check", [
    (False, "census-sweep"), (True, "census-equals-eigenvector")])
def test_census_refuses_a_key_id_redirected_within_its_level(monkeypatch,
                                                             same_width, check):
    # the first time a group is about to re-key an entry through a stub
    # effect's key-id memo, that memo entry is sent to another key id of
    # the same level, so the entry's states move to another key and the
    # total stays.  A key with fewer stubs than the entry's shape holds
    # is a sweep fault; one with as many moves the states between
    # patterns, which only the comparison with the eigenvector sees.
    real = fpl._rekey
    redirected = []

    def corrupt(group, keys, effect, stubs, tail, arc, codes, ids, shift):
        moved = effect[3]
        kid = None if redirected else next((k for k in group if k in moved), None)
        if kid is not None:
            nid, new_keys = moved[kid], list(ids)
            width = {code: len(T) for T, code in codes.items()}

            def fits(i):
                return (not same_width or width[new_keys[i] >> shift]
                        == width[new_keys[nid] >> shift])

            other = next((i for i in ids.values() if i != nid and fits(i)), None)
            if other is not None:
                moved[kid] = other
                redirected.append(kid)
        return real(group, keys, effect, stubs, tail, arc, codes, ids, shift)

    monkeypatch.setattr(fpl, "_rekey", corrupt)
    rep = spectra.verify_conjecture(6)
    assert redirected
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert check in failed and "census-total" not in failed


@pytest.mark.parametrize("n", range(1, 8))
def test_sweep_row_conserves_states(monkeypatch, n):
    # reach(r, v2), the number of ways rows 1..r end on the arrow mask v2,
    # comes from the row table alone; each row step's level must hold
    # exactly that many states at v2, so a merge that drops or doubles an
    # entry fails at its own row, not only in the final census-total
    moves = fpl._row_moves(n)
    reach = {0: 1}
    real = fpl._sweep_row
    rows = []

    def checked(n_, r, *args):
        nonlocal reach
        level, keys, stubs = real(n_, r, *args)
        above, reach = reach, {}
        for v, ways in above.items():
            for v2 in moves[v][0]:
                reach[v2] = reach.get(v2, 0) + ways
        held = {v2: sum(sum(group.values()) for group in groups.values())
                for v2, groups in level.items()}
        assert held == reach, f"row {r}"
        rows.append(r)
        return level, keys, stubs

    monkeypatch.setattr(fpl, "_sweep_row", checked)
    assert sum(fpl._census(n).values()) == fpl.asm_count(n)
    assert rows == list(range(1, n + 1))
    assert reach == {2 ** n - 1: fpl.asm_count(n)}


def test_census_peak_memory_is_bounded():
    # a level is one flat dict per shape group, keyed by key ids the
    # level numbers once, and the row table one bytes per v: the traced
    # peak of _census(8) was 2.06 MB with a dict per member and a tuple
    # pair per move, 0.81 MB with a big-int key per group entry, and is
    # 0.72 MB
    fpl._row_moves(8)  # fills the lru caches of _spread and _stub_at
    patterns._basis(8)
    tracemalloc.start()
    try:
        fpl._census(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.77e6


def test_row_table_bytes_per_move_is_bounded():
    # n bytes of odd row plus a v2 per move: at n = 9, 286 B per move as
    # (v2, odd tuple, even tuple) triples, 38.7 B with the v2 values as a
    # tuple of ints, 17.3 B with them in one array('H') per v
    fpl._row_moves(9)
    tracemalloc.start()
    try:
        moves = fpl._row_moves(9)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size / sum(len(v2s) for v2s, _ in moves) < 24


def _stub_numbers_named(exc):
    """Every integer in the message and every packed arc field."""
    named = [int(k) for k in re.findall(r"\d+", str(exc))]
    packed = exc.details.get("packed_arcs", 0)
    while packed:
        named.append(packed & ((1 << fpl.ARC_BITS) - 1))
        packed >>= fpl.ARC_BITS
    return named


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sweep_fault_names_real_stubs(monkeypatch, n):
    # the chase names stubs by their index into a member's stubs while it
    # advances a group; a fault it reports must still name the members'
    # own stubs
    real = fpl._chase

    def drop_last_arc(*args):
        (idx, links), F = real(*args)
        return (idx, links[:-1]), F

    monkeypatch.setattr(fpl, "_chase", drop_last_arc)
    with pytest.raises(ConjectureViolation) as info:
        fpl._census(n)
    assert info.value.check == "census-sweep"
    assert "cover every stub" in str(info.value)
    assert all(k <= 2 * n for k in _stub_numbers_named(info.value))

    monkeypatch.setattr(fpl, "_chase", real)
    real_tokens = fpl._row_tokens
    monkeypatch.setattr(fpl, "_row_tokens", lambda n, r: (
        real_tokens(n, r)[0], real_tokens(n, r)[1] or 2 * n))
    with pytest.raises(ConjectureViolation,
                       match=f"numbered right stub {2 * n} catches no path end"):
        fpl._census(n)


@pytest.mark.slow
def test_histogram_csv_n7_pinned():
    text = fpl.histogram(7).to_csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == CSV_N7_SHA256


def test_histogram_csv_n8_pinned():
    text = fpl.histogram(8).to_csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == CSV_N8_SHA256


@pytest.mark.slow
def test_histogram_csv_n9_pinned():
    text = fpl.histogram(9).to_csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == CSV_N9_SHA256


@pytest.mark.long
def test_histogram_csv_n10_pinned():
    text = fpl.histogram(10).to_csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == CSV_N10_SHA256


@pytest.mark.long
def test_histogram_csv_n11_pinned():
    text = fpl.histogram(11, max_n=11).to_csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == CSV_N11_SHA256


def test_packed_arcs_decode():
    n, rank_of = 3, patterns._basis(3)[1]

    def pack(*arcs):
        return fpl._pack(arcs)

    good = pack((1, 2), (3, 6), (4, 5))
    assert fpl._pattern_rank(n, good, rank_of) == patterns.rank(
        patterns.LinkPattern.from_pairs([(1, 2), (3, 6), (4, 5)]))
    overlap = "overlapping or out-of-range"
    cover = "cover every stub"
    bad = {
        "missing stub": (pack((1, 2), (3, 6)), cover),
        "shared stub": (pack((1, 2), (2, 3), (4, 5), (5, 6)), overlap),
        "two arcs in one field": (pack((1, 2), (3, 4), (3, 6)), overlap),
        "partner out of range": (pack((1, 2), (3, 4), (5, 7)), overlap),
        "partner below its stub":
            (pack((1, 2), (3, 4)) + (5 << fpl.ARC_BITS * 5), overlap),
        "bits above the last field": (good + (1 << fpl.ARC_BITS * 6), cover),
        "crossing": (pack((1, 3), (2, 4), (5, 6)), "crossing"),
    }
    for what, (packed, message) in bad.items():
        with pytest.raises(ConjectureViolation, match=message) as info:
            fpl._pattern_rank(n, packed, rank_of)
        assert info.value.check == "census-sweep", what


def test_packed_field_ceiling():
    # stub 2n must fit an ARC_BITS-wide field: n = 15 is the last size
    assert 2 * 15 < 1 << fpl.ARC_BITS <= 2 * 16
    with pytest.raises(CapacityError):
        fpl.histogram(16, max_n=16)


@pytest.mark.slow
def test_histogram_total_n7():
    hist = fpl.histogram(7)
    assert hist.total() == 218348
    assert len(hist.counts) == 429


@pytest.mark.long
def test_histogram_total_n8():
    hist = fpl.histogram(8)
    assert hist.total() == 10850216
    assert max(hist.counts.values()) == 218348


def test_state_at_matches_enumeration(monkeypatch):
    # state_at skips whole subtrees by their completion counts; it must
    # land where the depth-first walk of enumerate_states does
    monkeypatch.setattr(fpl, "_row_moves", functools.lru_cache(fpl._row_moves))
    for n in range(1, 7):
        states = list(fpl.enumerate_states(n))
        assert [fpl.state_at(n, k) for k in range(len(states))] == states
    for k in (-1, 42):
        with pytest.raises(ValueError, match=f"state index {k} out of range"):
            fpl.state_at(4, k)


def test_streamed_states_pass_the_public_checks():
    # enumerate_states and state_at build their states from the row table
    # without the constructor's checks; each must equal the state that
    # the checking constructor builds from the same grid
    for n in range(1, 6):
        for s in fpl.enumerate_states(n):
            assert s == fpl.FplState(n, s.grid)
        last = fpl.state_at(n, fpl.asm_count(n) - 1)
        assert last == fpl.FplState(n, last.grid) == s


def test_state_at_refuses_a_row_table_that_miscounts(monkeypatch):
    real = fpl._row_moves

    def one_move_dropped(n):
        moves = real(n)
        v2s, odd = moves[0]
        moves[0] = (v2s[:-1], odd[:-n])
        return moves

    monkeypatch.setattr(fpl, "_row_moves", one_move_dropped)
    with pytest.raises(ConjectureViolation, match="product formula 42") as info:
        fpl.state_at(4, 0)
    assert info.value.check == "census-sweep"
    assert info.value.details["completions"] < 42


def test_asm_state_round_trip():
    for n in range(1, 7):
        seen = set()
        for st in fpl.enumerate_states(n):
            m = fpl.state_to_asm(st)
            assert fpl.asm_to_state(m) == st
            assert m.rows not in seen, "distinct states map to distinct matrices"
            seen.add(m.rows)
        assert len(seen) == fpl.asm_count(n)


def test_tracer_agrees_with_union_find():
    for n in range(1, 5):
        for st in fpl.enumerate_states(n):
            assert fpl.link_pattern_of(st) == pattern_by_union_find(st)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_wieland_invariance(n):
    hist = fpl.histogram(n)
    rot = patterns.rotation_permutation(n)
    refl = patterns.reflection_permutation(n)
    for r in range(patterns.catalan(n)):
        assert hist.count(rot[r]) == hist.count(r)
        assert hist.count(refl[r]) == hist.count(r)


def test_sweep_invariants_survive_optimized_mode():
    # python -O strips assert statements; the sweep's checks must not use them
    script = textwrap.dedent("""
        from loopmodel import fpl
        from loopmodel.errors import ConjectureViolation

        def expect_violation(what):
            try:
                fpl.histogram(3)
            except ConjectureViolation:
                pass
            else:
                raise SystemExit(what + " went unnoticed")

        real_tokens = fpl._row_tokens
        fpl._row_tokens = lambda n, r: (real_tokens(n, r)[0], None)
        expect_violation("a dropped right stub")
        fpl._row_tokens = real_tokens

        real_shapes = fpl._row_shapes
        fpl._row_shapes = lambda n, v, v2, parity: real_shapes(n, v, v2, 1 - parity)
        expect_violation("a swapped parity convention")
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_capacity_refusal():
    with pytest.raises(CapacityError, match="max_n=11"):
        fpl.histogram(11)
    with pytest.raises(CapacityError):
        list(fpl.enumerate_states(11))
    # explicit override widens the ceiling (not exercised to completion)
    gen = fpl.enumerate_states(11, max_n=11)
    next(gen)
    gen.close()


def test_row_words_refuse_a_row_beyond_their_width():
    n = fpl.MAX_ROW_BITS
    wide = fpl.AsmMatrix(n, tuple(tuple(int(c == r) for c in range(n))
                                  for r in range(n)))
    assert fpl.state_to_asm(fpl.asm_to_state(wide)) == wide
    wider = fpl.AsmMatrix(n + 1, tuple(tuple(int(c == r) for c in range(n + 1))
                                       for r in range(n + 1)))
    with pytest.raises(CapacityError, match=f"n <= {n}"):
        fpl.asm_to_state(wider)


@pytest.mark.parametrize("table", [
    fpl._spread, fpl.stub_positions, fpl._stub_at, patterns._basis,
], ids=lambda table: table.__name__)
def test_per_n_caches_are_bounded(table):
    # a process that visits many n keeps at most eight n's tables
    for n in range(1, 10):
        table(n)
    info = table.cache_info()
    assert info.maxsize == 8
    assert info.currsize <= 8


def test_csv_and_json_round_trip():
    hist = fpl.histogram(3)
    csv = hist.to_csv_text()
    assert csv.splitlines()[0] == "rank,match_array,count"
    assert len(csv.splitlines()) == 1 + 5
    obj = hist.to_json_obj()
    assert obj["kind"] == "fpl-histogram"
    assert obj["format_version"] == fpl.FORMAT_VERSION
    back = fpl.PatternHistogram.from_json_obj(obj)
    assert back.counts == hist.counts
    bad = dict(obj, total=999)
    with pytest.raises(ValueError):
        fpl.PatternHistogram.from_json_obj(bad)


def test_asm_matrix_validation():
    with pytest.raises(ValueError):
        fpl.AsmMatrix(2, ((1, 1), (0, 0)))
    with pytest.raises(ValueError):
        fpl.AsmMatrix(2, ((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        fpl.AsmMatrix(1, ((-1,),))
    m = fpl.AsmMatrix(2, ((0, 1), (1, 0)))
    assert m.to_text() == " 0  1\n 1  0\n"


@pytest.mark.parametrize("rows, message", [
    (((1, 2), (0, 1)), r"entry 2 at \(1, 2\)"),
    (((1, 0), (0, 5)), r"entry 5 at \(2, 2\)"),
    (((1, 1), (0, 0)), "row 1 prefix sum"),
    (((0, 0), (1, 0)), "row 1 sums to 0"),
    (((1, 0), (1, 0)), "column 1 prefix sum"),
    (((0, 1), (0, 1)), "column 1 sums to 0"),
], ids=["entry", "entry-last-row", "row-prefix", "row-sum", "column-prefix",
        "column-sum"])
def test_asm_matrix_messages_name_the_line(rows, message):
    with pytest.raises(ValueError, match=message):
        fpl.AsmMatrix(len(rows), rows)


@pytest.mark.parametrize("n", [5, 6])
def test_asm_stream_pinned(n):
    text = fpl.asm_stream_text(fpl.state_to_asm(s) for s in fpl.enumerate_states(n))
    assert hashlib.sha256(text.encode()).hexdigest() == ASM_STREAM_SHA256[n]


def test_asm_stream_text():
    ms = [fpl.state_to_asm(s) for s in fpl.enumerate_states(2)]
    text = fpl.asm_stream_text(ms)
    blocks = [b for b in text.split("\n\n") if b.strip()]
    assert len(blocks) == 2


# -- the hand-built n=5 fixture --------------------------------------------

DIAMOND_ROWS = (
    (0, 0, 1, 0, 0),
    (0, 1, -1, 1, 0),
    (1, -1, 1, -1, 1),
    (0, 1, -1, 1, 0),
    (0, 0, 1, 0, 0),
)

DIAMOND_GRID = (
    (9, 6, 5, 12, 3),
    (6, 5, 5, 5, 12),
    (5, 5, 5, 5, 5),
    (3, 5, 5, 5, 9),
    (12, 3, 5, 9, 6),
)

DIAMOND_PATTERN = "8 7 6 5 4 3 2 1 10 9"


def test_diamond_fixture_two_routes():
    """A fixed 5x5 state checked by two unrelated pairing routes."""
    m = fpl.AsmMatrix(5, DIAMOND_ROWS)
    st = fpl.asm_to_state(m)
    assert st.grid == DIAMOND_GRID
    assert fpl.state_to_asm(st).rows == DIAMOND_ROWS
    p1 = fpl.link_pattern_of(st)
    p2 = pattern_by_union_find(st)
    assert p1 == p2
    assert p1.to_text() == DIAMOND_PATTERN
    # drawing it back produces the grid we froze (visual spot check)
    art = render.ascii_state(st)
    assert art.count("+") == 25
    assert all(ord(ch) < 128 for ch in art)


def test_stub_positions_clockwise():
    pos = fpl.stub_positions(3)
    assert pos == {
        1: ("T", 1), 2: ("T", 3), 3: ("R", 2),
        4: ("B", 3), 5: ("B", 1), 6: ("L", 2),
    }
    for n in range(1, 16):
        assert sorted(fpl.stub_positions(n)) == list(range(1, 2 * n + 1))


def test_stub_walk_matches_the_closed_forms():
    # the clockwise walk against one arithmetic formula per side
    forms = {"T": top_stub, "R": right_stub, "B": bottom_stub, "L": left_stub}
    for n in range(1, 17):
        expected = {(side, k): s for side, form in forms.items()
                    for k in range(1, n + 1) if (s := form(n, k)) is not None}
        assert fpl._stub_at(n) == expected
        assert fpl.stub_positions(n) == {s: pos for pos, s in expected.items()}


def test_state_validation_rejects_bad_grids():
    with pytest.raises(ValueError):
        fpl.FplState(1, ((3,),))  # n=1 vertex must join top and bottom stubs
    good = next(fpl.enumerate_states(2))
    with pytest.raises(ValueError):
        fpl.FplState(2, tuple(reversed(good.grid)))


@pytest.mark.parametrize("build, message", [
    (lambda: fpl.FplState(2, ((5, 5),)), "grid must be n rows of n shape masks"),
    (lambda: fpl.FplState(1, ((7,),)), "bad shape mask 7 at (1, 1)"),
    (lambda: fpl.FplState(2, ((3, 3), (3, 3))), "horizontal edge mismatch at (1, 1)"),
    (lambda: fpl.FplState(1, ((6,),)), "top boundary violated at column 1"),
    (lambda: fpl.PatternHistogram.from_json_obj({"kind": "fpl-vector"}),
     "not a histogram object: kind='fpl-vector'"),
    (lambda: fpl.PatternHistogram.from_json_obj(
        {"kind": "fpl-histogram", "format_version": 0}),
     "unsupported format_version 0"),
], ids=["grid-shape", "mask", "horizontal", "top", "kind", "version"])
def test_refusal_messages(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_top_and_bottom_rules_force_the_side_rules(n):
    # every grid whose shared edges agree and whose top and bottom rows
    # meet the numbered stubs is a state, so FplState need not check the
    # left and right sides: there are exactly A_n such grids, and each
    # meets the side rules
    rows = [row for row in product(sorted(fpl._SHAPES), repeat=n)
            if all(bool(row[c] & fpl.R) == bool(row[c + 1] & fpl.L)
                   for c in range(n - 1))]
    at = fpl._stub_at(n)
    top = tuple(("T", c) in at for c in range(1, n + 1))
    bottom = tuple(("B", c) in at for c in range(1, n + 1))
    grids = [g for g in product(rows, repeat=n)
             if tuple(bool(m & fpl.U) for m in g[0]) == top
             and tuple(bool(m & fpl.B) for m in g[-1]) == bottom
             and all(bool(a & fpl.B) == bool(b & fpl.U)
                     for r in range(n - 1) for a, b in zip(g[r], g[r + 1]))]
    assert len(grids) == fpl.asm_count(n)
    for g in grids:
        for r in range(1, n + 1):
            assert bool(g[r - 1][0] & fpl.L) == (("L", r) in at)
            assert bool(g[r - 1][-1] & fpl.R) == (("R", r) in at)
        fpl.FplState(n, g)
