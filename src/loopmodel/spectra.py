"""The integer operator-sum matrix on link patterns and its top eigenvector.

For each of the 2n cyclic positions there is an elementary rewiring
operator (see :func:`loopmodel.patterns.apply_h`).  Summing all 2n of
them as 0/1 transition matrices over the canonical pattern basis gives
an integer matrix H with every column summing to 2n and diagonal
entries counting cyclically adjacent chords.  H is held as the hop
table (:func:`loopmodel.patterns.hop_table`): column c lists the image
of pattern c under each operator, so every entry, a count, is >= 0.

``perron_vector`` returns the eigenvector of H at eigenvalue 2n as
exact integers, positive and coprime, and proves it by the
Perron–Frobenius theorem instead of by elimination.  H is nonnegative
and irreducible (its transition graph is strongly connected).  For such
a matrix the spectral radius is a simple eigenvalue, and it is the only
eigenvalue with a positive eigenvector: pairing any eigenvector v > 0
at eigenvalue lam with the positive left Perron vector u gives
lam u.v = u.Hv = rho u.v, so lam = rho.  Hence a strictly positive
integer v with H v = 2n v, checked exactly in big integers, shows that
2n is the simple top eigenvalue, that the kernel of H - 2n*I is the
line through v, and, once its gcd is 1, that v is the unique coprime
positive generator of that line.

The certificate (:func:`certify_perron`) checks five facts in this
order: H v = 2n v, v > 0, gcd 1, every column summing to 2n, and one
forward search from rank 0 reaching every rank.  Given the column sums
and v > 0, that one search proves H irreducible (the proof is in its
docstring), so no search against the edges is needed.  The candidate v
comes from power iteration in Python ints on the quotient of H by the
rotation and reflection of the basis it commutes with (one value per
symmetry orbit of patterns), rescaled and rounded; only the exact
certificate, run on the full H, decides.

``verify_conjecture`` runs the full comparison between this spectral
route and the grid census of :mod:`loopmodel.fpl` and returns a
structured report rather than raising on mathematical surprises.
"""
from __future__ import annotations

import math
import time
from collections import Counter, deque
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from operator import itemgetter, mul

from . import fpl as _fpl
from . import patterns as _pat
from ._record import FORMAT_VERSION, Frozen, Record, set_field
from .errors import ConjectureViolation
from .patterns import apply_h

# Step cap of the candidate's power iteration; the operator-sum matrices
# converge in a few hundred steps, so it only ends runs on matrices
# whose iterates never settle.
POWER_MAX_ITER = 100_000

# The candidate floor-scales each iterate to maximum 2**S.  Rounding it
# over its minimum needs about twice the max/min ratio in bits, the
# largest up to n = 15 (the census's ARC_BITS limit) being A_14, 74 bits;
# S = 128 refuses a 60-state chain of ratio 2**94 that S = 192 certifies.
# Scaled to the minimum instead, nothing would flush to zero, and on a
# matrix whose iterate never settles the ints would grow a bit per step.
S = 192


class SparseIntMatrix(Frozen):
    """Integer matrix over the pattern basis, held as a hop table.

    columns[c] lists one row per operator applied to pattern c, and
    entry (r, c) is the number of times r occurs there; every row must
    lie in 0..dim-1.  ``entries``, the (r, c) -> value dict, is built on
    each read, for the exports.
    """

    # no __slots__: the cached commutation lives in the instance dict
    _fields = ("n", "columns")
    n: int
    columns: Sequence[Sequence[int]]

    def __init__(self, n: int, columns: Sequence[Sequence[int]]) -> None:
        set_field(self, "n", n)
        set_field(self, "columns", columns)
        dim = len(columns)
        for c, col in enumerate(columns):
            if col and not (0 <= min(col) and max(col) < dim):
                bad = next(r for r in col if not 0 <= r < dim)
                raise ValueError(f"column {c} holds row {bad}, outside 0..{dim - 1}")

    @property
    def dim(self) -> int:
        return len(self.columns)

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        pairs = ((r, c) for c, col in enumerate(self.columns) for r in col)
        return dict(Counter(pairs))

    @cached_property
    def commutation(self) -> tuple[bool, bool]:
        """Whether the matrix commutes with (rotation, reflection) of the basis.

        It commutes with a permutation sigma iff column sigma(c) holds
        sigma of column c's rows, as multisets.  Checked once per
        matrix, and only on the pattern basis (dim = Catalan(n)); any
        other matrix commutes with neither.  In the hop table the
        operators map along with the patterns, so column sigma(c) is
        sigma of column c read in a fixed operator order: shifted by one
        for the rotation (operator a to a + 1), reversed around 2n - 1
        for the reflection (a to (2n - 2 - a) mod 2n).  Each column is
        compared in that order first, and sorted only when that fails.
        """
        if self.dim != _pat.catalan(self.n):
            return False, False
        cols, m = self.columns, 2 * self.n

        def commutes(sigma, order) -> bool:
            pick, look = itemgetter(*order), sigma.__getitem__
            for c, col in enumerate(cols):
                other = cols[sigma[c]]
                if ((len(col) != m or tuple(map(look, pick(col))) != other)
                        and sorted(map(look, col)) != sorted(other)):
                    return False
            return True

        return (commutes(_pat.rotation_permutation(self.n), [m - 1, *range(m - 1)]),
                commutes(_pat.reflection_permutation(self.n),
                         [*range(m - 2, -1, -1), m - 1]))

    def get(self, r: int, c: int) -> int:
        return self.columns[c].count(r)

    def column_sums(self) -> list[int]:
        return [len(col) for col in self.columns]

    def diagonal(self) -> list[int]:
        return [col.count(c) for c, col in enumerate(self.columns)]

    def matvec(self, x: list[int]) -> list[int]:
        """Exact big-integer matrix-vector product."""
        if len(x) != self.dim:
            raise ValueError(f"vector length {len(x)} != dim {self.dim}")
        y = [0] * self.dim
        for col, xc in zip(self.columns, x):
            for r in col:
                y[r] += xc
        return y

    def to_coo_text(self) -> str:
        """Deterministic row col value triples, one per line."""
        lines = [f"# operator-sum matrix  n={self.n}  dim={self.dim}"]
        for (r, c), v in sorted(self.entries.items()):
            lines.append(f"{r} {c} {v}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": "operator-sum-matrix",
            "n": self.n,
            "dim": self.dim,
            "entries": [[r, c, v] for (r, c), v in sorted(self.entries.items())],
        }


class BigIntVector(Frozen):
    """An exact integer vector over the pattern basis.

    steps is the power-iteration step count of the candidate it was
    certified from (0 when it came from elsewhere); it takes no part
    in equality or the JSON artifact.
    """

    __slots__ = _fields = ("n", "components", "steps")
    _compared = ("n", "components")
    n: int
    components: tuple[int, ...]
    steps: int

    def __init__(self, n: int, components: tuple[int, ...], steps: int = 0) -> None:
        set_field(self, "n", n)
        set_field(self, "components", components)
        set_field(self, "steps", steps)

    @property
    def dim(self) -> int:
        return len(self.components)

    def total(self) -> int:
        return sum(self.components)

    def maximum(self) -> int:
        return max(self.components)

    def to_json_obj(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": "perron-vector",
            "n": self.n,
            "dim": self.dim,
            "components": [str(v) for v in self.components],
            "component_sum": str(self.total()),
            "component_max": str(self.maximum()),
        }


def build_hamiltonian(n: int, max_n: int | None = None) -> SparseIntMatrix:
    """Sum the 2n rewiring operators as 0/1 matrices over the basis.

    The sum is the hop table itself: column c lists the image of
    pattern c under each operator, so entry (r, c) counts the operator
    indices sending c to r, and every column sums to 2n.  n is checked
    against the size ceiling (max_n, else patterns.MAX_N) first.
    """
    _pat.check_n(n, max_n)
    return SparseIntMatrix(n, _pat.hop_table(n))


# -- Perron-Frobenius certificate ------------------------------------------


def certify_perron(H: SparseIntMatrix, v: Iterable[int]) -> BigIntVector:
    """Prove that v is the coprime positive eigenvector of H at 2n.

    Five checks in exact integers, in this order: H v = 2n v, every
    component positive, gcd 1, every column of H summing to 2n, and one
    search from rank 0 along the edges c -> r of the nonzero entries
    H[r, c] reaching every rank.  H is nonnegative by construction, its
    entries being counts.  The first failed check raises
    ConjectureViolation with a details dict.

    Given the first two, the last two make H irreducible.  Let R be any
    set of ranks that no edge leaves, and sum (H v)_r = 2n v_r over r in
    R.  The right side is 2n times the sum of v over R.  On the left,
    each column c in R puts all of its sum 2n into R, which already
    gives that much, so every column outside R puts weight zero into R,
    as v > 0: no edge enters R.  The ranks reached from any rank w form
    such a set, and the path from rank 0 to w would enter it unless it
    holds 0.  So every rank reaches 0, and 0 reaches every rank: the
    graph is strongly connected.  By Perron–Frobenius (see the module
    docstring) 2n is then the simple top eigenvalue of H and v the one
    coprime positive vector spanning its eigenspace.
    """
    two_n = 2 * H.n
    ints = [int(c) for c in v]
    image = H.matvec(ints)
    bad = next((r for r in range(H.dim) if image[r] != two_n * ints[r]), None)
    if bad is not None:
        raise ConjectureViolation(
            f"candidate is no eigenvector at 2n={two_n}: H v != 2n v",
            {"first_bad_rank": bad, "image": image[bad], "component": ints[bad]},
        )
    bad = next((r for r, c in enumerate(ints) if c <= 0), None)
    if bad is not None:
        raise ConjectureViolation(
            "eigenvector at 2n has a nonpositive component",
            {"first_bad_rank": bad, "component": ints[bad]},
        )
    g = math.gcd(*ints)
    if g != 1:
        raise ConjectureViolation(
            "eigenvector at 2n is not coprime", {"gcd": g}
        )
    bad = next((c for c, col in enumerate(H.columns) if len(col) != two_n), None)
    if bad is not None:
        raise ConjectureViolation(
            f"column sum is not 2n={two_n}: one search cannot prove H irreducible",
            {"first_bad_column": bad, "column_sum": len(H.columns[bad])},
        )
    seen = bytearray(H.dim)
    seen[0] = 1
    stack = [0]
    while stack:
        for r in H.columns[stack.pop()]:
            if not seen[r]:
                seen[r] = 1
                stack.append(r)
    if not all(seen):
        raise ConjectureViolation(
            "matrix is reducible; the eigenvalue 2n need not be simple",
            {"dim": H.dim},
        )
    return BigIntVector(H.n, tuple(ints))


def _orbits(H: SparseIntMatrix) -> tuple[list[int], list[int]]:
    """(orbit index of every rank, smallest rank of every orbit).

    The orbits are those of the group generated by the dihedral
    permutations H commutes with (see SparseIntMatrix.commutation); a
    matrix that commutes with neither has one orbit per rank.
    """
    gens = [perm(H.n) for perm, ok in zip(
        (_pat.rotation_permutation, _pat.reflection_permutation), H.commutation) if ok]
    orbit = [-1] * H.dim
    reps: list[int] = []
    for r in range(H.dim):
        if orbit[r] >= 0:
            continue
        o = len(reps)
        reps.append(r)
        orbit[r] = o
        stack = [r]
        while stack:
            s = stack.pop()
            for g in gens:
                t = g[s]
                if orbit[t] < 0:
                    orbit[t] = o
                    stack.append(t)
    return orbit, reps


def _perron_candidate(H: SparseIntMatrix) -> tuple[list[int], int]:
    """Integer guess at the eigenvector at 2n, and its power-iteration steps.

    The iteration runs on the quotient of H by the dihedral permutations
    it commutes with (:func:`_orbits`): H maps orbit-constant vectors to
    orbit-constant vectors, and with Q[o][o2] the number of entries of
    orbit o2's first column that land in orbit o, the image at o of an
    orbit-constant x is the sum over o2 of Q[o][o2] |o2| / |o| x[o2];
    that weight is an integer, as every row of o sums the columns of o2
    alike.  Power iteration runs in Python ints from the all-ones start,
    each iterate floor-scaled to maximum 2**S.  The guess is the iterate
    over its minimum, rounded half up, right when the coprime vector has
    smallest component 1, as the census does (some pattern has a single
    state); a component flushed to zero rounds the iterate itself.  The
    loop stops at the first guess with Q v = 2n v, or once an iterate
    repeats one of the last 8.  If that guess fails, each ratio to the
    minimum is read as a fraction with denominator at most 2**20, and the
    guess is those fractions over their common denominator, divided by
    their gcd.  The orbit values are spread over every rank, and only
    :func:`certify_perron`, run on the full H, decides.
    """
    orbit, reps = _orbits(H)
    size = Counter(orbit)
    rows: list[tuple[list[int], list[int]]] = [([], []) for _ in reps]
    for o2, c in enumerate(reps):
        for o, q in Counter(map(orbit.__getitem__, H.columns[c])).items():
            rows[o][0].append(o2)
            rows[o][1].append(q * size[o2] // size[o])

    def image(x: list[int]) -> Iterator[int]:
        return (sum(map(mul, w, map(x.__getitem__, idx))) for idx, w in rows)

    two_n = 2 * H.n
    x = [1 << S] * len(reps)
    recent = deque([x], maxlen=8)
    for step in range(1, POWER_MAX_ITER + 1):
        y = list(image(x))
        top = max(y) or 1  # an all-zero iterate stays zero and fails the certificate
        y = [(t << S) // top for t in y]
        lo = min(y) or 1 << S
        v = [(2 * t + lo) // (2 * lo) for t in y]
        exact = all(a == two_n * t for a, t in zip(image(v), v))
        if exact or y in recent:
            break
        recent.append(y)
        x = y
    if not exact:
        from fractions import Fraction

        ratios = [Fraction(t, lo).limit_denominator(2 ** 20) for t in y]
        den = math.lcm(*(f.denominator for f in ratios))
        guess = [f.numerator * (den // f.denominator) for f in ratios]
        g = math.gcd(*guess)
        v = [c // g for c in guess]
    return [v[o] for o in orbit], step


def perron_vector(H: SparseIntMatrix) -> BigIntVector:
    """Exact eigenvector of H at eigenvalue 2n, positive and coprime.

    The integer candidate is certified by :func:`certify_perron`; any
    failed check raises ConjectureViolation with a details dict, so
    verification drivers can report rather than die.  The result
    carries the candidate's step count as ``steps``.
    """
    candidate, steps = _perron_candidate(H)
    return BigIntVector(H.n, certify_perron(H, candidate).components, steps)


class SpectralCheck(Frozen):
    """Exact facts that fix the spectral radius of H at 2n."""

    __slots__ = _fields = ("column_sums_ok", "iterations")
    column_sums_ok: bool
    iterations: int

    def __init__(self, column_sums_ok: bool, iterations: int) -> None:
        set_field(self, "column_sums_ok", column_sums_ok)
        set_field(self, "iterations", iterations)

    @property
    def passed(self) -> bool:
        return self.column_sums_ok


def spectral_radius_check(H: SparseIntMatrix, psi: BigIntVector) -> SpectralCheck:
    """Whether every column of H sums to 2n, in exact integers.

    A nonnegative matrix's spectral radius lies between its smallest
    and largest column sums, and H >= 0 by construction, so this makes
    rho(H) = 2n exactly; the certified psi, a positive eigenvector at
    2n of an irreducible H, makes 2n simple.  iterations records the power
    iteration steps of psi's candidate, which only proposes psi.
    """
    two_n = 2 * H.n
    return SpectralCheck(all(s == two_n for s in H.column_sums()), psi.steps)


# -- census-side identities ----------------------------------------------


def _check_census(n: int, hist: _fpl.PatternHistogram) -> None:
    """ValueError unless hist is a census of n."""
    if hist.n != n:
        raise ValueError(f"the census is for n={hist.n}, not n={n}")


def preimage_sum(n: int, p: _pat.LinkPattern, hist: _fpl.PatternHistogram) -> int:
    """Sum of census counts over all operator preimages of p.

    Double sum over operator indices i and patterns q with
    apply_h(i, q) = p, of the census count of q, computed directly from
    the definition (no matrix involved).  It is the definition-direct
    reference for :func:`preimage_sums_all`, which verify uses; it
    rescans the whole basis per target, so it suits small n and single
    patterns.  p and hist must both be of size n (ValueError).
    """
    if p.n != n:
        raise ValueError(f"the pattern is for n={p.n}, not n={n}")
    _check_census(n, hist)
    total = 0
    for q in _pat.enumerate_patterns(n):
        cq = hist.count(_pat.rank(q))
        if cq == 0:
            continue
        for i in range(1, 2 * n + 1):
            if apply_h(i, q) == p:
                total += cq
    return total


def preimage_sums_all(n: int, hist: _fpl.PatternHistogram) -> list[int]:
    """preimage_sum for every pattern at once, by source-major sweep.

    Same double sum as preimage_sum, grouped by image instead of
    rescanning the basis per target: H times the census vector.  hist
    must be a census of n (ValueError).
    """
    _check_census(n, hist)
    return SparseIntMatrix(n, _pat.hop_table(n)).matvec(hist.as_vector())


# -- verification driver ---------------------------------------------------


class CheckResult(Frozen):
    __slots__ = _fields = ("name", "passed", "details")
    name: str
    passed: bool
    details: str

    def __init__(self, name: str, passed: bool, details: str) -> None:
        set_field(self, "name", name)
        set_field(self, "passed", passed)
        set_field(self, "details", details)


class VerificationReport(Record):
    """Outcome of the full census-versus-spectrum comparison for one n."""

    __slots__ = _fields = ("n", "checks", "elapsed_seconds")
    n: int
    checks: list[CheckResult]
    elapsed_seconds: float

    def __init__(self, n: int, checks: list[CheckResult] | None = None,
                 elapsed_seconds: float = 0.0) -> None:
        self.n = n
        self.checks = [] if checks is None else checks
        self.elapsed_seconds = elapsed_seconds

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, details: str = "") -> None:
        self.checks.append(CheckResult(name, bool(passed), details))

    def to_json_obj(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": "verification-report",
            "n": self.n,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }

    def summary_lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            detail = f"  ({c.details})" if c.details and not c.passed else ""
            out.append(f"[{mark}] n={self.n} {c.name}{detail}")
        out.append(
            f"[{'pass' if self.passed else 'FAIL'}] n={self.n} overall"
        )
        return out


def verify_conjecture(n: int, max_n: int | None = None) -> VerificationReport:
    """Compare the grid census against the exact top eigenvector.

    Every check is decided in exact integers; power iteration only
    proposes the eigenvector candidate, which the certificate proves.  Returns
    a report; mathematical failures become failed checks, not
    exceptions.
    """
    t0 = time.perf_counter()
    report = VerificationReport(n)

    _pat.check_n(n, max_n)  # a CapacityError comes before any census work
    try:
        hist = _fpl.histogram(n, max_n=max_n)
    except ConjectureViolation as exc:  # census-sweep or census-total
        report.add(exc.check or "census-total", False, f"{exc} {exc.details}")
        report.elapsed_seconds = time.perf_counter() - t0
        return report
    total = hist.total()
    expected_total = _fpl.asm_count(n)
    report.add(
        "census-total",
        total == expected_total,
        f"census {total} vs product formula {expected_total}",
    )
    dim = _pat.catalan(n)
    missing = [r for r in range(dim) if hist.count(r) <= 0]
    report.add(
        "census-positive",
        not missing,
        f"{len(missing)} patterns with no state" if missing else "every pattern realized",
    )

    # built after the census has released its levels, so the two peaks
    # do not stack
    H = build_hamiltonian(n, max_n)
    try:
        psi = perron_vector(H)
        report.add("perron-extraction", True, "kernel certified one-dimensional")
    except ConjectureViolation as exc:
        report.add("perron-extraction", False, f"{exc} {exc.details}")
        report.elapsed_seconds = time.perf_counter() - t0
        return report

    vec = hist.as_vector()
    first_bad = next(
        (r for r in range(dim) if vec[r] != psi.components[r]), None
    )
    report.add(
        "census-equals-eigenvector",
        first_bad is None,
        "exact equality"
        if first_bad is None
        else (
            f"first mismatch at rank {first_bad} "
            f"(pattern {_pat.unrank(n, first_bad).to_text()!r}): "
            f"census {vec[first_bad]} vs eigenvector {psi.components[first_bad]}"
        ),
    )

    report.add(
        "component-sum",
        psi.total() == expected_total,
        f"sum {psi.total()} vs state count {expected_total}",
    )
    expected_max = _fpl.asm_count(n - 1)
    report.add(
        "component-max",
        psi.maximum() == expected_max,
        f"max {psi.maximum()} vs next-smaller state count {expected_max}",
    )

    two_n = 2 * n
    sums = preimage_sums_all(n, hist)
    bad_pre = next(
        (r for r in range(dim) if sums[r] != two_n * hist.count(r)), None
    )
    report.add(
        "preimage-identity",
        bad_pre is None,
        "sum over operator preimages equals 2n times the count"
        if bad_pre is None
        else f"fails at rank {bad_pre}",
    )

    rot = _pat.rotation_permutation(n)
    refl = _pat.reflection_permutation(n)
    rot_ok = all(hist.count(rot[r]) == hist.count(r) for r in range(dim))
    refl_ok = all(hist.count(refl[r]) == hist.count(r) for r in range(dim))
    report.add(
        "dihedral-invariance",
        rot_ok and refl_ok,
        f"rotation {'ok' if rot_ok else 'BROKEN'}, reflection {'ok' if refl_ok else 'BROKEN'}",
    )

    report.add(
        "operator-symmetry",
        all(H.commutation),
        "matrix commutes with the dihedral permutation action",
    )

    sc = spectral_radius_check(H, psi)
    report.add(
        "spectral-radius",
        sc.passed,
        f"column sums {'= 2n' if sc.column_sums_ok else 'BROKEN'}, "
        "entries nonnegative; "
        f"power-iteration steps of the candidate: {sc.iterations}",
    )

    report.elapsed_seconds = time.perf_counter() - t0
    return report
