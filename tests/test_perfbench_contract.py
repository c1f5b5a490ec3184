"""The benchmark tracer still finds every layer it reports on.

perfbench/tracer.py wraps public layer functions as module attributes,
and perfbench/run.py reads the resulting spans by name.  Moving layer
code can leave a span empty or detached, which breaks
`perfbench/run.py --trace 1` without failing any other test.  These run
the tracer on two small commands and check what run.py reads.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced(tmp_path, *cli_args) -> dict:
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               LOOPMODEL_CACHE=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(out), "--",
         *cli_args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def spans(trace: dict, name: str) -> list[dict]:
    return [s for s in trace["spans"] if s["name"] == name and not s["probe"]]


def ancestors(trace: dict, span: dict) -> list[str]:
    names = []
    while span["parent"] is not None:
        span = trace["spans"][span["parent"]]
        names.append(span["name"])
    return names


def test_tracer_sees_the_sampler_layers(tmp_path):
    trace = traced(tmp_path, "sample", "-n", "4", "--no-compare",
                   "--samples", "1000", "--workers", "1")
    basis = spans(trace, "patterns.enumerate_patterns")
    assert basis, "no basis span"
    assert "stochastic.sample_stationary" in ancestors(trace, basis[0])
    assert "patterns.apply_h" in trace["counts"]


def test_tracer_reports_the_sampler_basis_size(tmp_path):
    # run.py reports this span's size as patterns.basis_size
    trace = traced(tmp_path, "sample", "-n", "4", "--no-compare",
                   "--samples", "1000", "--workers", "1")
    basis = spans(trace, "patterns.enumerate_patterns")
    assert [s["size"] for s in basis] == [14]


def test_tracer_sees_the_verify_layers(tmp_path):
    trace = traced(tmp_path, "verify", "-n", "4", "--workers", "1", "--no-cache")
    build = spans(trace, "spectra.build_hamiltonian")
    assert build and "nnz" in build[0]
    assert spans(trace, "spectra.perron_vector")
    assert spans(trace, "spectra.preimage_sums_all")
    radius = spans(trace, "spectra.spectral_radius_check")
    assert radius and "iterations" in radius[0]
    assert "patterns.apply_h" in trace["counts"]
    # run.py sums these two spans into patterns.symmetry_perms_s
    assert spans(trace, "patterns.rotation_permutation")
    assert spans(trace, "patterns.reflection_permutation")
