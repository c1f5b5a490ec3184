"""Correctness gates: each checks one workload run's artifacts.

A gate returns None when the run's outputs are right and a one-line
reason when they are not.  The benchmark counts any reason as a failed
run; it never drops the run's timing.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

# The checks that carry the identity itself; the report may hold more,
# and every check it holds must pass.
VERIFY_CORE_CHECKS = (
    "census-total",
    "census-equals-eigenvector",
    "component-sum",
    "component-max",
)

CENSUS_N9_ROWS = 4862  # Catalan(9)
CENSUS_N9_TOTAL = 911_835_460  # A_9
CENSUS_N9_MAX = 10_850_216  # A_8
# The census artifact must stay byte-identical to the one the seed
# commit wrote.
CENSUS_N9_SHA256 = "6ab1c4ab70b81fa7710c7346a7381aa2e72c2985b7b47b90582bafece015f451"

CHAIN_N10_DIM = 16796  # Catalan(10)


def check_verify(path: Path, n: int) -> str | None:
    """The --out report of `verify`: passed, every check passing."""
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return f"report unreadable: {exc}"
    if report.get("n") != n:
        return f"report is for n={report.get('n')!r}, not {n}"
    checks = report.get("checks")
    if not isinstance(checks, list):
        return "report has no checks list"
    names = {c.get("name") for c in checks}
    missing = [c for c in VERIFY_CORE_CHECKS if c not in names]
    if missing:
        return f"report lacks checks {missing}"
    failing = [c.get("name") for c in checks if c.get("passed") is not True]
    if failing:
        return f"checks failed: {failing}"
    if report.get("passed") is not True:
        return "report not passed"
    return None


def check_census_n9(path: Path) -> str | None:
    """The n=9 census CSV: row count, total, maximum and exact bytes."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        return f"census unreadable: {exc}"
    try:
        rows = csv.DictReader(data.decode().splitlines())
        counts = [int(r["count"]) for r in rows]
    except (UnicodeDecodeError, KeyError, TypeError, ValueError) as exc:
        return f"census malformed: {exc!r}"
    if len(counts) != CENSUS_N9_ROWS:
        return f"{len(counts)} census rows, expected {CENSUS_N9_ROWS}"
    if sum(counts) != CENSUS_N9_TOTAL:
        return f"census sums to {sum(counts)}, expected {CENSUS_N9_TOTAL}"
    if max(counts) != CENSUS_N9_MAX:
        return f"census maximum {max(counts)}, expected {CENSUS_N9_MAX}"
    digest = hashlib.sha256(data).hexdigest()
    if digest != CENSUS_N9_SHA256:
        return f"census sha256 {digest} differs from the reference artifact"
    return None


def check_chain(path: Path, n: int, samples: int, seed: int,
                dim: int) -> str | None:
    """The sampler JSON: seed echoed, counts sum to the sample count."""
    try:
        rep = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return f"sampler report unreadable: {exc}"
    if rep.get("n") != n or rep.get("seed") != seed:
        return f"report echoes n={rep.get('n')!r} seed={rep.get('seed')!r}"
    if rep.get("samples") != samples:
        return f"report claims {rep.get('samples')!r} samples, asked {samples}"
    counts = rep.get("empirical")
    if not isinstance(counts, dict):
        return "report has no empirical counts"
    try:
        if any(not 0 <= int(r) < dim for r in counts):
            return "report counts a rank outside the basis"
        total = sum(int(c) for c in counts.values())
    except (TypeError, ValueError) as exc:
        return f"report counts malformed: {exc!r}"
    if total != samples:
        return f"counts sum to {total}, asked {samples}"
    return None
