"""Exact reference for the spectral tests: dense rows and fraction-free
elimination, independent of the Perron–Frobenius certificate.

Quadratic fill makes these small-dimension tools; the tests compare
the certified eigenvector with them for n up to 5.
"""
from __future__ import annotations

import math
from fractions import Fraction

from loopmodel.errors import ConjectureViolation


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
