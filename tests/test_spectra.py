"""Operator-sum matrix and exact eigenvector extraction.

REFERENCE_* fixtures pin the n=4 case in a published basis order: the
14x14 integer matrix, its positive eigenvector at eigenvalue 8, and
the basis permutation connecting that order to the canonical one.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from exact_reference import dense_rows, kernel_bareiss, strongly_connected
from loopmodel import fpl, patterns, spectra, stochastic
from loopmodel.errors import CapacityError, ConjectureViolation

# n=4 reference data in a fixed external basis order
REFERENCE_ORDER_N4 = [
    "2 1 4 3 6 5 8 7",
    "8 3 2 5 4 7 6 1",
    "2 1 4 3 8 7 6 5",
    "6 3 2 5 4 1 8 7",
    "8 7 4 3 6 5 2 1",
    "2 1 8 5 4 7 6 3",
    "4 3 2 1 6 5 8 7",
    "8 5 4 3 2 7 6 1",
    "2 1 6 5 4 3 8 7",
    "8 3 2 7 6 5 4 1",
    "2 1 8 7 6 5 4 3",
    "4 3 2 1 8 7 6 5",
    "6 5 4 3 2 1 8 7",
    "8 7 6 5 4 3 2 1",
]

REFERENCE_H_N4 = [
    [4, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0],
    [0, 4, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2],
    [1, 0, 3, 0, 0, 1, 0, 1, 0, 0, 0, 2, 0, 0],
    [0, 1, 0, 3, 0, 0, 1, 0, 1, 0, 0, 0, 2, 0],
    [1, 0, 0, 0, 3, 0, 0, 1, 0, 1, 0, 0, 0, 2],
    [0, 1, 1, 0, 0, 3, 0, 0, 1, 0, 2, 0, 0, 0],
    [1, 0, 0, 1, 0, 0, 3, 0, 0, 1, 0, 2, 0, 0],
    [0, 1, 1, 0, 1, 0, 0, 3, 0, 0, 0, 0, 2, 0],
    [1, 0, 0, 1, 0, 1, 0, 0, 3, 0, 0, 0, 0, 2],
    [0, 1, 0, 0, 1, 0, 1, 0, 0, 3, 2, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 2],
]

REFERENCE_VECTOR_N4 = [7, 7, 3, 3, 3, 3, 3, 3, 3, 3, 1, 1, 1, 1]

# the same vector in canonical rank order
CENSUS_N4 = [7, 3, 3, 3, 1, 3, 1, 3, 1, 7, 3, 3, 3, 1]


def test_smallest_matrices():
    H1 = spectra.build_hamiltonian(1)
    assert dense_rows(H1) == [[2]]
    assert spectra.perron_vector(H1).components == (1,)
    H2 = spectra.build_hamiltonian(2)
    assert dense_rows(H2) == [[2, 2], [2, 2]]
    assert spectra.perron_vector(H2).components == (1, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_column_sums_and_diagonal(n):
    H = spectra.build_hamiltonian(n)
    assert all(s == 2 * n for s in H.column_sums())
    for r, p in enumerate(patterns.enumerate_patterns(n)):
        assert H.get(r, r) == p.adjacent_arcs()


def test_reference_matrix_and_vector_n4():
    sigma = [patterns.rank(patterns.LinkPattern.from_text(t))
             for t in REFERENCE_ORDER_N4]
    assert sorted(sigma) == list(range(14))
    H = spectra.build_hamiltonian(4)
    for i in range(14):
        for j in range(14):
            assert REFERENCE_H_N4[i][j] == H.get(sigma[i], sigma[j])
    psi = spectra.perron_vector(H)
    assert [psi.components[sigma[i]] for i in range(14)] == REFERENCE_VECTOR_N4
    hist = fpl.histogram(4)
    vec = hist.as_vector()
    assert [vec[sigma[i]] for i in range(14)] == REFERENCE_VECTOR_N4


def test_diagonal_multiset_n4():
    H = spectra.build_hamiltonian(4)
    diag = sorted(H.diagonal())
    assert diag == [2, 2, 2, 2] + [3] * 8 + [4, 4]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_engines_agree(n):
    # the certified vector matches an independent exact elimination
    H = spectra.build_hamiltonian(n)
    a = spectra.perron_vector(H)
    b = kernel_bareiss(dense_rows(H, shift=2 * n))
    assert list(a.components) == b


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_eigenvector_equals_census(n):
    H = spectra.build_hamiltonian(n)
    psi = spectra.perron_vector(H)
    assert list(psi.components) == fpl.histogram(n).as_vector()
    assert psi.total() == fpl.asm_count(n)
    assert psi.maximum() == fpl.asm_count(n - 1)


def test_violation_when_no_kernel():
    # a matrix whose shifted form is invertible: no eigenvector at 2n
    M = spectra.SparseIntMatrix(2, [[0], [1]])
    with pytest.raises(ConjectureViolation) as exc:
        spectra.perron_vector(M)
    assert "invertible" in str(exc.value) or "no eigenvector" in str(exc.value)
    with pytest.raises(ConjectureViolation):
        kernel_bareiss(dense_rows(M, shift=4))


def test_violation_when_kernel_too_big():
    # shifted form is the zero matrix: kernel dimension 2, not 1
    M = spectra.SparseIntMatrix(2, [[0] * 4, [1] * 4])
    with pytest.raises(ConjectureViolation) as exc:
        spectra.perron_vector(M)
    assert exc.value.details  # structured details travel with it
    with pytest.raises(ConjectureViolation):
        kernel_bareiss(dense_rows(M, shift=4))


def test_violation_on_nonpositive_component():
    # eigenvector at the shift exists but has a zero/negative entry:
    # [[4, 0], [0, 2]] at shift 4 has kernel (1, 0)
    M = spectra.SparseIntMatrix(2, [[0] * 4, [1] * 2])
    with pytest.raises(ConjectureViolation):
        spectra.perron_vector(M)
    with pytest.raises(ConjectureViolation) as exc:
        spectra.certify_perron(M, [1, 0])
    assert "nonpositive" in str(exc.value)


@pytest.mark.parametrize("matrix, vector, reason", [
    (None, CENSUS_N4[:5] + [CENSUS_N4[5] + 1] + CENSUS_N4[6:], "no eigenvector"),
    (None, [2 * c for c in CENSUS_N4], "not coprime"),
    # (1, 1) is a positive coprime eigenvector at 4, but 4 is a double
    # eigenvalue: the two vertices are not connected
    (spectra.SparseIntMatrix(2, [[0] * 4, [1] * 4]), [1, 1], "reducible"),
    # H = [[2, 0], [1, 1]]: (1, 1) has H v = 2v, is positive and coprime,
    # and the search from 0 reaches rank 1, yet rank 1 never reaches 0;
    # one forward search proves nothing without equal column sums
    (spectra.SparseIntMatrix(1, [[0, 0, 1], [1]]), [1, 1], "column sum"),
], ids=["census-plus-one", "census-doubled", "reducible", "unequal-column-sums"])
def test_certificate_rejects(matrix, vector, reason):
    H = spectra.build_hamiltonian(4) if matrix is None else matrix
    with pytest.raises(ConjectureViolation) as exc:
        spectra.certify_perron(H, vector)
    assert reason in str(exc.value)
    assert exc.value.details


def _changed(H, change):
    """H with entry (r, c) raised by delta for each (r, c): delta in change."""
    columns = [list(col) for col in H.columns]
    for (r, c), delta in change.items():
        for _ in range(abs(delta)):
            if delta > 0:
                columns[c].append(r)
            else:
                columns[c].remove(r)
    return spectra.SparseIntMatrix(H.n, columns)


def test_perron_vector_with_smallest_component_above_one():
    # one unit of the n = 4 H moved from (0, 0) to (3, 0): column sums
    # stay 8, and the Perron vector's smallest component is 5083, so the
    # rounded minimum-1 guess fails and the rational guess is certified
    moved = _changed(spectra.build_hamiltonian(4), {(0, 0): -1, (3, 0): 1})
    psi = spectra.perron_vector(moved)
    assert list(psi.components) == kernel_bareiss(dense_rows(moved, shift=8))
    assert min(psi.components) == 5083


@pytest.mark.parametrize("change", [
    {(0, 0): 1},
    {(0, 0): -1},
    {(0, 0): -1, (3, 0): 1},  # column sums stay 2n
])
def test_flipped_entry_is_not_certified_as_census(change):
    flipped = _changed(spectra.build_hamiltonian(4), change)
    # {(0, 0): 1} commutes with the reflection alone; with its lumped rows
    # summed left to right and only the previous iterate compared, the
    # iterate cycles with period 4 and runs to POWER_MAX_ITER
    assert spectra._perron_candidate(flipped)[1] < 1000
    try:
        psi = spectra.perron_vector(flipped)
    except ConjectureViolation:
        return
    assert list(psi.components) != CENSUS_N4


def test_candidate_stops_when_an_iterate_repeats():
    # [[0, 2], [1, 0]] sends the all-ones start to (1, 1/2) and back, a
    # cycle of period 2 that the previous iterate alone never matches
    M = spectra.SparseIntMatrix(2, [[1], [0, 0]])
    assert M.commutation == (False, True)
    assert spectra._perron_candidate(M) == ([1, 1], 2)
    with pytest.raises(ConjectureViolation, match="no eigenvector"):
        spectra.perron_vector(M)


def test_nilpotent_matrix_fails_the_certificate():
    # H^2 = 0: the second iterate is zero, and so is the guess
    M = spectra.SparseIntMatrix(2, [[1], []])
    assert spectra._perron_candidate(M) == ([0, 0], 2)
    with pytest.raises(ConjectureViolation, match="nonpositive"):
        spectra.perron_vector(M)


def test_flushed_component_ends_the_candidate():
    # [[4, 0], [0, 2]]: the second component halves against the first
    # each step and flushes to zero after about S steps; the rounded
    # iterate (1, 0) is then exact on the quotient, and the certificate
    # refuses it (test_violation_on_nonpositive_component)
    M = spectra.SparseIntMatrix(2, [[0] * 4, [1] * 2])
    v, steps = spectra._perron_candidate(M)
    assert v == [1, 0]
    assert steps < 1000


def _birth_death_chain(states):
    """Lazy chain: column c holds 3 hops up, 4 stays and 1 hop down,
    clamped at the ends, so every column sums to 8 = 2n at n = 4 and
    the Perron vector is 3**k."""
    return spectra.SparseIntMatrix(4, [
        [min(c + 1, states - 1)] * 3 + [c] * 4 + [max(c - 1, 0)]
        for c in range(states)])


@pytest.mark.parametrize("states", [40, 60])
def test_perron_vector_beyond_float_precision(states):
    # components from 1 to 3**39 (about 2**62) or 3**59 (about 2**94):
    # past 2**53 a float no longer holds every integer
    psi = spectra.perron_vector(_birth_death_chain(states))
    assert psi.components == tuple(3 ** k for k in range(states))


# power-iteration steps of the candidate for the operator-sum matrix
CANDIDATE_STEPS = {1: 1, 2: 1, 3: 1, 4: 3, 5: 9, 6: 20, 7: 39, 8: 67,
                   9: 107, 10: 163}


@pytest.mark.parametrize("n", sorted(CANDIDATE_STEPS))
def test_candidate_steps_pinned(n):
    H = spectra.build_hamiltonian(n)
    assert H.commutation == (True, True)
    assert spectra.perron_vector(H).steps == CANDIDATE_STEPS[n]


@pytest.mark.long
def test_candidate_steps_pinned_n11():
    psi = spectra.perron_vector(spectra.build_hamiltonian(11, max_n=11))
    assert psi.steps == 238
    assert psi.total() == fpl.asm_count(11)
    assert psi.maximum() == fpl.asm_count(10)


def test_hop_table_commutes_without_sorting(monkeypatch):
    # every column of the hop table maps onto its image column in a fixed
    # operator order, so no column is sorted; with each column reversed
    # the copy needs the multiset comparison and commutes alike
    def no_sort(*args, **kwargs):
        raise AssertionError("a column was sorted")

    for n in range(1, 9):
        H = spectra.build_hamiltonian(n)
        monkeypatch.setattr(spectra, "sorted", no_sort, raising=False)
        assert H.commutation == (True, True)
        monkeypatch.undo()
    reversed_columns = spectra.SparseIntMatrix(n, [col[::-1] for col in H.columns])
    monkeypatch.setattr(spectra, "sorted", no_sort, raising=False)
    with pytest.raises(AssertionError, match="sorted"):
        reversed_columns.commutation
    monkeypatch.undo()
    assert reversed_columns.commutation == (True, True)


@pytest.mark.parametrize("n", [4, 6])
def test_shuffled_columns_certify_the_same_vector(n):
    # the same multisets in another order: the commutation test compares
    # columns as multisets, so the copy commutes as H does
    H = spectra.build_hamiltonian(n)
    rng = random.Random(n)
    columns = [rng.sample(col, len(col)) for col in H.columns]
    assert columns != [list(col) for col in H.columns]
    shuffled = spectra.SparseIntMatrix(n, columns)
    assert shuffled.commutation == H.commutation == (True, True)
    assert spectra.perron_vector(shuffled) == spectra.perron_vector(H)


def test_verdicts_survive_optimized_mode():
    # python -O strips assert statements; the certificate must not use them
    script = textwrap.dedent("""
        from loopmodel import fpl, spectra
        from loopmodel.errors import ConjectureViolation

        H = spectra.build_hamiltonian(4)
        columns = [list(col) for col in H.columns]
        columns[0].append(0)
        try:
            spectra.perron_vector(spectra.SparseIntMatrix(4, columns))
        except ConjectureViolation:
            pass
        else:
            raise SystemExit("flipped matrix was certified")
        doubled = [2 * c for c in fpl.histogram(4).as_vector()]
        try:
            spectra.certify_perron(H, doubled)
        except ConjectureViolation:
            pass
        else:
            raise SystemExit("non-coprime vector was certified")
        unequal = spectra.SparseIntMatrix(1, [[0, 0, 1], [1]])
        try:
            spectra.certify_perron(unequal, [1, 1])
        except ConjectureViolation as exc:
            if "column sum" not in str(exc):
                raise SystemExit(f"refused by another check: {exc}")
        else:
            raise SystemExit("unequal column sums were certified")
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_strongly_connected():
    # the two-way reference search that the certificate's one forward
    # search replaces
    assert strongly_connected([[1], [2], [0]])
    assert not strongly_connected([[1], [2], []])
    assert not strongly_connected([[0], [1]])
    assert strongly_connected([[]])


def test_reducible_with_equal_column_sums_fails_an_earlier_check():
    # H = [[2, 0], [2, 4]]: both columns sum to 4 and the search from 0
    # reaches rank 1, but rank 1 never reaches 0; as the proof in
    # certify_perron says, no positive eigenvector at 4 exists
    M = spectra.SparseIntMatrix(2, [[0, 0, 1, 1], [1, 1, 1, 1]])
    assert M.column_sums() == [4, 4]
    assert not strongly_connected(M.columns)
    with pytest.raises(ConjectureViolation, match="no eigenvector"):
        spectra.certify_perron(M, [1, 1])
    with pytest.raises(ConjectureViolation, match="nonpositive"):
        spectra.perron_vector(M)


def test_certificate_memory_n10():
    # one forward search over a byte per rank: 1.0 MB above H at n = 10,
    # against 5.8 MB for the two-way search with its reverse adjacency
    H = spectra.build_hamiltonian(10)
    v = spectra.perron_vector(H).components
    tracemalloc.start()
    try:
        spectra.certify_perron(H, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("row", [-1, 5])
def test_matrix_rejects_a_row_outside_the_basis(row):
    with pytest.raises(ValueError, match=f"column 0 holds row {row}"):
        spectra.SparseIntMatrix(1, [[0, row]])


def test_matrix_ceiling():
    with pytest.raises(CapacityError):
        spectra.build_hamiltonian(11)


def test_hop_table_ceiling_guards_every_sweep(monkeypatch):
    # A function handed a census (preimage_sums_all, player_b_probability
    # with hist) trusts the census's n and is not checked here.
    target = patterns.unrank(4, 0)
    monkeypatch.setattr(patterns, "MAX_N", 3)
    with pytest.raises(CapacityError):
        spectra.build_hamiltonian(4)
    with pytest.raises(CapacityError):
        stochastic.player_b_probability(4, target)
    with pytest.raises(CapacityError):
        stochastic.sample_stationary(4, samples=10, compare=False)


def test_perron_vector_n10():
    psi = spectra.perron_vector(spectra.build_hamiltonian(10))
    assert psi.dim == 16796
    assert psi.total() == fpl.asm_count(10)
    assert psi.maximum() == fpl.asm_count(9)


def test_matvec_and_exports():
    H = spectra.build_hamiltonian(3)
    ones = [1] * H.dim
    assert sum(H.matvec(ones)) == sum(H.column_sums())
    with pytest.raises(ValueError):
        H.matvec([1, 2])
    text = H.to_coo_text()
    assert text.startswith("# operator-sum matrix")
    assert len(text.splitlines()) == 1 + len(H.entries)
    obj = H.to_json_obj()
    assert obj["kind"] == "operator-sum-matrix" and obj["dim"] == 5
    psi = spectra.perron_vector(H)
    vobj = psi.to_json_obj()
    assert vobj["component_sum"] == str(fpl.asm_count(3))
    assert vobj["components"] == [str(v) for v in psi.components]


# sha256 of to_coo_text() and of json.dumps(to_json_obj(), sort_keys=True),
# with the number of nonzero entries
EXPORT_SHA256 = {
    7: ("179865df467cb2ce8fb99a4caf84d30eb24ab1651ed6e5ebf329634d3b600cbb",
        "c1af5283a002f2463fdb3731b450477bff7b31501e5b3860a7263816a7b76033", 3663),
    9: ("40f931eebd7949a92f1701f23ede6de296324f85d614c4f820a257fe8201cadd",
        "5e41cd13671270a11d4668f985d2985dde50032cc77385d5e62a2ebad95e56be", 53768),
}


@pytest.mark.parametrize("n", sorted(EXPORT_SHA256))
def test_matrix_exports_pinned(n):
    H = spectra.build_hamiltonian(n)
    coo = H.to_coo_text()
    obj = json.dumps(H.to_json_obj(), sort_keys=True)
    coo_sha, json_sha, nnz = EXPORT_SHA256[n]
    assert hashlib.sha256(coo.encode()).hexdigest() == coo_sha
    assert hashlib.sha256(obj.encode()).hexdigest() == json_sha
    assert len(coo.splitlines()) == 1 + nnz


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_preimage_identity_direct(n):
    hist = fpl.histogram(n)
    sums = spectra.preimage_sums_all(n, hist)
    for r in range(patterns.catalan(n)):
        assert sums[r] == 2 * n * hist.count(r)
    # the one-target route agrees with the all-targets sweep
    probe = patterns.unrank(n, 0)
    assert spectra.preimage_sum(n, probe, hist) == sums[0]


def test_preimage_sums_refuse_a_census_or_pattern_of_another_n():
    # a census of n = 5 for n = 4 gave preimage_sum 294 and
    # preimage_sums_all only matvec's vector-length error
    probe, hist = patterns.unrank(4, 0), fpl.histogram(5)
    with pytest.raises(ValueError, match="census is for n=5, not n=4"):
        spectra.preimage_sum(4, probe, hist)
    with pytest.raises(ValueError, match="census is for n=5, not n=4"):
        spectra.preimage_sums_all(4, hist)
    with pytest.raises(ValueError, match="pattern is for n=4, not n=5"):
        spectra.preimage_sum(5, probe, hist)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_operator_symmetry(n):
    H = spectra.build_hamiltonian(n)
    for sigma in (patterns.rotation_permutation(n),
                  patterns.reflection_permutation(n)):
        permuted = {(sigma[r], sigma[c]): v for (r, c), v in H.entries.items()}
        assert permuted == H.entries


@pytest.mark.parametrize("n", [2, 4, 6])
def test_spectral_radius_check(n):
    H = spectra.build_hamiltonian(n)
    psi = spectra.perron_vector(H)
    sc = spectra.spectral_radius_check(H, psi)
    assert sc.column_sums_ok
    assert sc.passed
    assert sc.iterations == psi.steps > 0


@pytest.mark.parametrize("change, broken", [
    ({(0, 0): 1}, "column_sums_ok"),  # column 0 sums to 2n + 1
], ids=["column-sum"])
def test_spectral_radius_check_fails(change, broken):
    H = spectra.build_hamiltonian(4)
    psi = spectra.perron_vector(H)
    sc = spectra.spectral_radius_check(_changed(H, change), psi)
    assert not getattr(sc, broken)
    assert not sc.passed


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_verify_conjecture_report(n):
    rep = spectra.verify_conjecture(n)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "census-equals-eigenvector" in names
    assert "preimage-identity" in names
    obj = rep.to_json_obj()
    assert obj["kind"] == "verification-report"
    assert obj["passed"] is True
    assert len(obj["checks"]) == len(rep.checks)
    lines = rep.summary_lines()
    assert len(lines) == len(rep.checks) + 1
    assert all(line.startswith("[pass]") for line in lines)


# sha256 of json.dumps(report, sort_keys=True) with elapsed_seconds left out
REPORT_SHA256 = {
    1: "7e87801e05010be4beb6d41e2c54c6596cdaaa7bf04f3ea125f2f8f20e7c17c9",
    2: "dad855e4cfde5a595a6488690720b6f58ac657ce4ee8ee0386c6796f02f846cb",
    3: "4adc3ea046454e6393394a52c3b16cb832240f4be166a7999177f1f704f9e662",
    4: "16e9ba4e33ae3a0ec9bae74b007882229d06eb78f6a88c1e883071f763817b80",
    5: "c2a5f938d266b0aa26ecdca9ce72287e48ef360eb322f6a2f675bf980b40f2bf",
    6: "a3bdb2e26eeee277925a5c070e338f42342f2ed402519e8a8452f92ea868d42d",
    7: "6f15da39d966bb6b803ac9a4d407271d147886b37f1bb17ebc0ffd88e7fbfe06",
    8: "f01d5a8152bf7f89a9ebb7275977ba79d5b305d862834da271a06fcadc03737e",
}


@pytest.mark.parametrize("n", sorted(REPORT_SHA256))
def test_verify_report_pinned(n):
    obj = spectra.verify_conjecture(n).to_json_obj()
    del obj["elapsed_seconds"]
    digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_SHA256[n]


def test_verify_conjecture_reports_failure_structurally():
    # a corrupted histogram must fail verification, not crash it
    rep = spectra.VerificationReport(3)
    rep.add("probe", False, "synthetic failure")
    assert not rep.passed
    assert "[FAIL]" in rep.summary_lines()[0]


def test_broken_sweep_invariant_is_census_sweep(monkeypatch):
    # a right stub that catches no path end is a sweep fault, not a total
    real = fpl._side_stubs
    monkeypatch.setattr(fpl, "_side_stubs", lambda n, r: (real(n, r)[0], None))
    rep = spectra.verify_conjecture(3)
    assert [(c.name, c.passed) for c in rep.checks] == [("census-sweep", False)]
    assert "unnumbered right stub" in rep.checks[0].details


LINKAGE_CHECKS = {"census-sweep", "census-equals-eigenvector", "preimage-identity"}


def _swap_first_two(tokens, keep):
    """Swap the first two tokens satisfying keep; True if there were two."""
    at = [j for j, t in enumerate(tokens) if t is not None and keep(t)][:2]
    if len(at) < 2:
        return False
    i, j = at
    tokens[i], tokens[j] = tokens[j], tokens[i]
    return True


def _linkage_failures(n):
    rep = spectra.verify_conjecture(n)  # must not raise
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed & LINKAGE_CHECKS, failed
    assert "census-total" not in failed
    return failed


@pytest.mark.parametrize("n", [3, 4, 5])
def test_swapped_bottom_tokens_fail_a_named_check(monkeypatch, n):
    # swapping two live tokens before the bottom stubs close keeps every
    # total but breaks the linkage: partner columns that no longer point
    # at each other leave stubs uncovered, swapped stubs move arcs
    real = fpl._bottom_arcs

    def swapped(n, F):
        F = list(F)
        _swap_first_two(F, lambda t: True)
        return real(n, F)

    monkeypatch.setattr(fpl, "_bottom_arcs", swapped)
    _linkage_failures(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_renested_bottom_arcs_fail_census_equals_eigenvector(monkeypatch, n):
    # (a, a+1), (a+2, a+3) closed at the bottom become (a, a+3),
    # (a+1, a+2): still a noncrossing matching, so only the comparison
    # with the eigenvector can notice
    real = fpl._bottom_arcs

    def renested(n, F):
        arcs = real(n, F)
        for i, (a, b) in enumerate(arcs):
            if b == a + 1 and (b + 1, b + 2) in arcs:
                arcs[arcs.index((b + 1, b + 2))] = (b, b + 1)
                arcs[i] = (a, b + 2)
                break
        return arcs

    monkeypatch.setattr(fpl, "_bottom_arcs", renested)
    assert "census-equals-eigenvector" in _linkage_failures(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_misjoined_row_fails_a_named_check(monkeypatch, n):
    # after a row, two path ends in the frontier trade the stubs they
    # are joined to: every total stays, the matchings change
    real = fpl._chase
    hits = []

    def misjoin(*args):
        (idx, links), F = real(*args)
        idx = list(idx)
        if _swap_first_two(idx, lambda t: True):
            hits.append(1)
        return (tuple(idx), links), F

    monkeypatch.setattr(fpl, "_chase", misjoin)
    _linkage_failures(n)
    assert hits


def _clear_pattern_tables():
    for table in (patterns.hop_table, patterns.rotation_permutation,
                  patterns.reflection_permutation):
        table.cache_clear()


@pytest.fixture
def wrap_column_left_unrewired(monkeypatch):
    # h_{2n} joins the last position with the first; leaving that column
    # unchanged corrupts every rotation orbit's first row, and the orbit
    # derivation carries the fault into every row
    real = patterns._rewire
    monkeypatch.setattr(patterns, "_rewire",
                        lambda m, a: m if a == len(m) - 1 else real(m, a))
    _clear_pattern_tables()
    yield
    monkeypatch.undo()
    _clear_pattern_tables()


@pytest.mark.parametrize("n, expected", [
    (3, {"census-equals-eigenvector", "operator-symmetry"}),
    (4, {"census-equals-eigenvector", "operator-symmetry"}),
    (5, {"perron-extraction"}),
])
def test_unrewired_wrap_column_fails_named_checks(wrap_column_left_unrewired,
                                                  n, expected):
    rep = spectra.verify_conjecture(n)  # must not raise
    failed = {c.name for c in rep.checks if not c.passed}
    assert expected <= failed, failed
    assert not rep.passed


@pytest.mark.slow
def test_verify_conjecture_n7():
    rep = spectra.verify_conjecture(7)
    assert rep.passed


@pytest.mark.long
def test_verify_conjecture_n8():
    rep = spectra.verify_conjecture(8)
    assert rep.passed
