"""Value semantics of the package's record classes.

Each class is built from literal field values, positionally and by
keyword, and checked for value equality, hashing, frozenness, repr
text, pickling and copying.
"""
from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from loopmodel import fpl, patterns, spectra, stochastic

# class -> (positional field values, other field values, repr text)
RECORDS = {
    patterns.LinkPattern: (
        (2, (1, 0, 3, 2)), (2, (3, 2, 1, 0)),
        "LinkPattern(n=2, match=(1, 0, 3, 2))"),
    fpl.FplState: (
        (2, ((9, 10), (10, 6))), (2, ((5, 12), (3, 5))),
        "FplState(n=2, grid=((9, 10), (10, 6)))"),
    fpl.AsmMatrix: (
        (2, ((0, 1), (1, 0))), (2, ((1, 0), (0, 1))),
        "AsmMatrix(n=2, rows=((0, 1), (1, 0)))"),
    fpl.PatternHistogram: (
        (2, {0: 1, 1: 1}), (2, {0: 2}),
        "PatternHistogram(n=2, counts={0: 1, 1: 1})"),
    spectra.SparseIntMatrix: (
        (1, ((0, 0),)), (1, ((0, 0, 0),)),
        "SparseIntMatrix(n=1, columns=((0, 0),))"),
    spectra.BigIntVector: (
        (2, (1, 1), 3), (2, (1, 2), 3),
        "BigIntVector(n=2, components=(1, 1), steps=3)"),
    spectra.SpectralCheck: (
        (True, 4), (False, 4),
        "SpectralCheck(column_sums_ok=True, iterations=4)"),
    spectra.CheckResult: (
        ("census-total", True, "ok"), ("census-total", False, "ok"),
        "CheckResult(name='census-total', passed=True, details='ok')"),
    spectra.VerificationReport: (
        (3, [spectra.CheckResult("a", True, "")], 0.5), (3, [], 0.5),
        "VerificationReport(n=3, checks=[CheckResult(name='a', passed=True, "
        "details='')], elapsed_seconds=0.5)"),
    stochastic.PatternDistribution: (
        (1, {0: Fraction(1)}), (2, {1: Fraction(1)}),
        "PatternDistribution(n=1, probabilities={0: Fraction(1, 1)})"),
    stochastic.SamplerReport: (
        (1, 0, 0, 1, 1, (1,), 0.5, 0.0, True),
        (1, 0, 0, 1, 1, (1,), 0.5, 0.25, False),
        "SamplerReport(n=1, seed=0, burn_in=0, samples=1, chains=1, "
        "counts=(1,), tolerance=0.5, tv_distance=0.0, passed=True)"),
}
FIELDS = {
    patterns.LinkPattern: ("n", "match"),
    fpl.FplState: ("n", "grid"),
    fpl.AsmMatrix: ("n", "rows"),
    fpl.PatternHistogram: ("n", "counts"),
    spectra.SparseIntMatrix: ("n", "columns"),
    spectra.BigIntVector: ("n", "components", "steps"),
    spectra.SpectralCheck: ("column_sums_ok", "iterations"),
    spectra.CheckResult: ("name", "passed", "details"),
    spectra.VerificationReport: ("n", "checks", "elapsed_seconds"),
    stochastic.PatternDistribution: ("n", "probabilities"),
    stochastic.SamplerReport: ("n", "seed", "burn_in", "samples", "chains",
                               "counts", "tolerance", "tv_distance", "passed"),
}
UNHASHABLE = {fpl.PatternHistogram, stochastic.PatternDistribution,
              spectra.VerificationReport}
MUTABLE = {spectra.VerificationReport}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_value_semantics(cls):
    args, other_args, text = RECORDS[cls]
    fields = FIELDS[cls]
    a, b, other = cls(*args), cls(*args), cls(*other_args)

    # value equality, never equal to another type holding the same values
    assert a == b and not a != b
    assert a != other
    assert a != args and a.__eq__(args) is NotImplemented
    assert tuple(getattr(a, f) for f in fields) == args

    # keyword construction
    assert cls(**dict(zip(fields, args))) == a

    # hash where hashing works
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)

    # frozen fields, or a mutable report
    if cls in MUTABLE:
        setattr(b, fields[-1], args[-1] + 1)
        assert getattr(b, fields[-1]) == args[-1] + 1 and a != b
    else:
        with pytest.raises(AttributeError):
            setattr(a, fields[0], args[0])
        with pytest.raises(AttributeError):
            delattr(a, fields[0])
        assert a == b

    assert repr(a) == text

    # pickling and copying keep the class and every field
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a)):
        assert type(clone) is cls and clone == a
        assert tuple(getattr(clone, f) for f in fields) == args


def test_big_int_vector_equality_ignores_steps():
    a, b = spectra.BigIntVector(2, (1, 1)), spectra.BigIntVector(2, (1, 1), 7)
    assert a.steps == 0 and b.steps == 7
    assert a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(b)).steps == 7


def test_verification_report_defaults_are_fresh():
    a, b = spectra.VerificationReport(3), spectra.VerificationReport(3)
    assert a.checks == [] and a.elapsed_seconds == 0.0
    a.add("x", True)
    assert b.checks == []


def test_commutation_is_computed_once(monkeypatch):
    H = spectra.build_hamiltonian(4)
    calls = []
    real = patterns.rotation_permutation
    monkeypatch.setattr(patterns, "rotation_permutation",
                        lambda n: calls.append(n) or real(n))
    first = H.commutation
    assert first == (True, True) and calls == [4]
    assert H.commutation is first and calls == [4]
    # a copy compares equal and still answers the same
    assert pickle.loads(pickle.dumps(H)) == H
    assert copy.copy(H).commutation == first
