"""Command-line behavior: artifacts, caching, determinism, exit codes."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopmodel import cli, fpl, patterns, render, spectra, stochastic


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(root))
    return root


def run(argv):
    return cli.main(argv)


def test_enumerate_csv_artifact(cache, tmp_path, capsys):
    out = tmp_path / "h4.csv"
    assert run(["enumerate", "-n", "4", "--format", "csv", "--out", str(out)]) == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "rank,match_array,count"
    assert len(lines) == 15
    counts = sorted(int(l.split(",")[2]) for l in lines[1:])
    assert counts == [1, 1, 1, 1] + [3] * 8 + [7, 7]
    assert "42 states over 14 patterns" in capsys.readouterr().out


def test_enumerate_trivial(cache, tmp_path):
    out = tmp_path / "h1.csv"
    assert run(["enumerate", "-n", "1", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0,2 1,1"


def test_parallel_output_byte_identical(cache, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["enumerate", "-n", "5", "--workers", "1", "--no-cache",
                "--format", "json", "--out", str(a)]) == 0
    assert run(["enumerate", "-n", "5", "--workers", "4", "--no-cache",
                "--format", "json", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_workers_option_starts_no_process(cache, tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("the census started a process")

    monkeypatch.setattr(os, "fork", no_fork)
    out = tmp_path / "h6.csv"
    assert run(["enumerate", "-n", "6", "--workers", "4", "--no-cache",
                "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 132


def test_cache_reuse_and_corruption_recovery(cache, tmp_path, capsys):
    out = tmp_path / "h3.json"
    assert run(["enumerate", "-n", "3", "--format", "json", "--out", str(out)]) == 0
    first = out.read_bytes()
    cached = cache / "v1" / "n=3" / "histogram.json"
    assert cached.exists()
    # warm rerun gives identical bytes
    assert run(["enumerate", "-n", "3", "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == first
    # corrupt the cache: checksum mismatch forces a clean recompute
    obj = json.loads(cached.read_text())
    obj["payload"]["counts"]["0"] = 999
    cached.write_text(json.dumps(obj))
    assert run(["enumerate", "-n", "3", "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def _double_counts(obj):
    obj["counts"] = {r: 2 * c for r, c in obj["counts"].items()}
    obj["total"] *= 2


def _move_last_rank_out(obj):
    obj["counts"]["14"] = obj["counts"].pop("13")


def _negative_count(obj):
    # the total stays A_4, so only the sign of a count can tell
    counts = obj["counts"]
    counts["0"] += counts["1"] + 1
    counts["1"] = -1


@pytest.mark.parametrize("corrupt", [
    lambda obj: obj.update(fpl.histogram(5).to_json_obj()),
    _double_counts,
    _move_last_rank_out,
    _negative_count,
    lambda obj: obj.pop("n"),
    lambda obj: obj.update(counts=[1, 2]),
    ["x"],  # a whole payload in place of a corruption
], ids=["n5-under-n4", "total-not-A4", "rank-outside-basis", "negative-count",
        "no-n", "counts-a-list", "not-a-dict"])
def test_wrong_cached_census_is_recomputed(cache, tmp_path, corrupt):
    fresh = fpl.histogram(4).to_json_obj()
    wrong = fpl.histogram(4).to_json_obj()
    if callable(corrupt):
        corrupt(wrong)
    else:
        wrong = corrupt
    cli.cache_store(4, "histogram", wrong)  # checksum matches the payload
    out = tmp_path / "h4.json"
    assert run(["enumerate", "-n", "4", "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == fresh
    assert cli.cache_load(4, "histogram") == fresh


def test_groundstate_artifact(cache, tmp_path, capsys):
    out = tmp_path / "v4.json"
    assert run(["groundstate", "-n", "4", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["kind"] == "perron-vector"
    assert obj["component_sum"] == "42"
    assert obj["component_max"] == "7"
    text = capsys.readouterr().out
    assert "component sum 42" in text and "component max 7" in text


def test_groundstate_csv_matches_the_json_components(cache, tmp_path):
    csv, js = tmp_path / "v5.csv", tmp_path / "v5.json"
    assert run(["groundstate", "-n", "5", "--format", "csv", "--out", str(csv)]) == 0
    assert run(["groundstate", "-n", "5", "--out", str(js)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "rank,component"
    assert lines[1:] == [f"{r},{v}" for r, v in
                         enumerate(json.loads(js.read_text())["components"])]


def test_groundstate_caches_only_the_vector(cache, tmp_path):
    assert run(["groundstate", "-n", "4", "--out", str(tmp_path / "v4.json")]) == 0
    assert [p.name for p in (cache / "v1" / "n=4").iterdir()] == ["vector.json"]


def test_groundstate_recertifies_cached_vector(cache, tmp_path, capsys):
    assert run(["groundstate", "-n", "4", "--out", str(tmp_path / "a.json")]) == 0
    good = (tmp_path / "a.json").read_text()
    cached = cache / "v1" / "n=4" / "vector.json"
    obj = json.loads(cached.read_text())
    comps = obj["payload"]["components"]
    comps[0] = str(int(comps[0]) + 1)
    # a consistent checksum: only the certificate can catch the change
    obj["sha256"] = hashlib.sha256(cli._canonical(obj["payload"]).encode()).hexdigest()
    cached.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["groundstate", "-n", "4", "--out", str(tmp_path / "b.json")]) == 0
    assert "component sum 42" in capsys.readouterr().out
    assert (tmp_path / "b.json").read_text() == good
    assert cli.cache_load(4, "vector") == json.loads(good)


@pytest.mark.parametrize("payload", [
    {"kind": "perron-vector"},
    {"kind": "perron-vector", "components": 5},
    ["not", "a", "dict"],
    # components that pass the certificate, under another artifact's kind
    dict(spectra.perron_vector(spectra.build_hamiltonian(4)).to_json_obj(),
         kind="fpl-histogram"),
], ids=["no-components", "components-not-a-list", "not-a-dict", "wrong-kind"])
def test_malformed_cached_vector_is_recomputed(cache, tmp_path, payload):
    cli.cache_store(4, "vector", payload)  # checksum matches the payload
    out = tmp_path / "v4.json"
    assert run(["groundstate", "-n", "4", "--out", str(out)]) == 0
    fresh = json.loads(out.read_text())
    assert fresh["component_sum"] == "42"
    assert cli.cache_load(4, "vector") == fresh


def test_groundstate_matrix_export(cache, tmp_path):
    mx = tmp_path / "m2.txt"
    assert run(["groundstate", "-n", "2", "--format", "text",
                "--out", str(tmp_path / "v2.txt"),
                "--with-matrix", "--matrix-out", str(mx)]) == 0
    assert (tmp_path / "v2.txt").read_text() == "1 1\n"
    assert "0 0 2" in mx.read_text()


def test_matrix_out_alone_writes_the_matrix(cache, tmp_path):
    # --matrix-out implies --with-matrix: both write the same bytes
    alone, both = tmp_path / "alone.txt", tmp_path / "both.txt"
    assert run(["groundstate", "-n", "4", "--matrix-out", str(alone)]) == 0
    assert run(["groundstate", "-n", "4", "--with-matrix",
                "--matrix-out", str(both)]) == 0
    assert alone.read_bytes() == both.read_bytes()
    assert alone.read_text() == spectra.build_hamiltonian(4).to_coo_text()


def test_verify_pass_and_report(cache, tmp_path, capsys):
    out = tmp_path / "r4.json"
    assert run(["verify", "-n", "4", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["passed"] is True
    assert not cache.exists()  # verify caches nothing
    lines = capsys.readouterr().out.splitlines()
    assert any("census-equals-eigenvector" in l for l in lines)
    assert all(l.startswith("[pass]") for l in lines if l.startswith("["))


def test_census_mismatch_is_a_failed_check(cache, monkeypatch, capsys):
    real = fpl._census

    def bumped(n):
        counts = real(n)
        counts[0] += 1
        return counts

    monkeypatch.setattr(fpl, "_census", bumped)
    rep = spectra.verify_conjecture(4)
    assert not rep.passed
    assert [(c.name, c.passed) for c in rep.checks] == [("census-total", False)]
    assert "product formula 42" in rep.checks[0].details
    assert run(["verify", "-n", "4"]) == cli.EXIT_FAIL
    assert "[FAIL] n=4 census-total" in capsys.readouterr().out


def test_verify_refuses_over_hop_table_before_census(cache, monkeypatch, capsys):
    def no_census(*args, **kwargs):
        raise AssertionError("census ran before the capacity check")

    monkeypatch.setattr(fpl, "histogram", no_census)
    argv = ["verify", "-n", "11", "--long", "--no-cache"]
    assert run(argv) == cli.EXIT_CAPACITY
    assert "--max-n 11" in capsys.readouterr().err


def test_cache_store_is_atomic(cache, monkeypatch):
    cli.cache_store(3, "vector", {"kind": "a"})

    def broken_replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(cli.os, "replace", broken_replace)
    with pytest.raises(OSError):
        cli.cache_store(3, "vector", {"kind": "b"})
    assert cli.cache_load(3, "vector") == {"kind": "a"}
    assert [p.name for p in (cache / "v1" / "n=3").iterdir()] == ["vector.json"]


def test_unwritable_artifact_path_is_an_error(cache, tmp_path, capsys):
    out = tmp_path / "missing" / "dir" / "x.csv"
    assert run(["enumerate", "-n", "3", "--no-cache", "--out", str(out)]) == cli.EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def _unusable_cache(tmp_path, monkeypatch) -> None:
    # a cache root below a regular file can be neither read nor written
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv(cli.CACHE_ENV, str(blocker / "cache"))


@pytest.mark.parametrize("argv", [
    ["enumerate", "-n", "3"], ["groundstate", "-n", "3"],
], ids=lambda argv: argv[0])
def test_failed_cache_write_keeps_the_output(tmp_path, monkeypatch, capsys, argv):
    _unusable_cache(tmp_path, monkeypatch)
    out = tmp_path / "artifact"
    assert run(argv + ["--out", str(out)]) == cli.EXIT_OK
    assert out.read_text()
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and err.count("\n") == 1


def test_verify_never_touches_the_cache(tmp_path, monkeypatch, capsys):
    _unusable_cache(tmp_path, monkeypatch)
    out = tmp_path / "report.json"
    assert run(["verify", "-n", "3", "--out", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["passed"] is True
    assert capsys.readouterr().err == ""


def test_unversioned_cache_entry_is_a_miss(cache, tmp_path):
    # an entry in the layout before cache versioning, checksum intact
    payload = {"kind": "from-an-older-format"}
    old = cache / "n=3" / "histogram.json"
    old.parent.mkdir(parents=True)
    sha = hashlib.sha256(cli._canonical(payload).encode()).hexdigest()
    old.write_text(json.dumps({"sha256": sha, "payload": payload}))
    assert cli.cache_load(3, "histogram") is None
    out = tmp_path / "h3.csv"
    assert run(["enumerate", "-n", "3", "--out", str(out)]) == 0
    assert cli.cache_load(3, "histogram")["n"] == 3
    assert json.loads(old.read_text())["payload"] == payload


def test_no_cache_neither_reads_nor_writes_an_entry(cache, capsys):
    # each planted entry has a matching checksum and the wrong content; the
    # census one even fits n = 3, so a run that read it would print it
    census = fpl.histogram(3).to_json_obj()
    census["counts"]["1"], census["counts"]["3"] = (census["counts"]["3"],
                                                    census["counts"]["1"])
    vector = spectra.perron_vector(spectra.build_hamiltonian(3)).to_json_obj()
    vector["components"] = vector["components"][::-1]
    planted = {"histogram": cli.cache_store(3, "histogram", census),
               "vector": cli.cache_store(3, "vector", vector)}
    before = {name: path.read_bytes() for name, path in planted.items()}
    assert run(["enumerate", "-n", "3", "--no-cache", "--format", "csv"]) == 0
    assert capsys.readouterr().out.endswith(fpl.histogram(3).to_csv_text())
    assert run(["groundstate", "-n", "3", "--no-cache", "--format", "text"]) == 0
    fresh = spectra.perron_vector(spectra.build_hamiltonian(3)).components
    assert capsys.readouterr().out.endswith(
        " ".join(map(str, fresh)) + "\n")
    assert list(fresh) != vector["components"]
    assert {name: path.read_bytes() for name, path in planted.items()} == before


def test_verify_long_gate(cache, capsys):
    assert run(["verify", "-n", "8"]) == cli.EXIT_CAPACITY
    assert "--long" in capsys.readouterr().err


def test_capacity_exit_code(cache, capsys):
    assert run(["enumerate", "-n", "12"]) == cli.EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "capacity" in err and "max" in err.lower()


@pytest.mark.parametrize("argv", [["enumerate", "-n", "8000"],
                                  ["verify", "-n", "195"]],
                         ids=["catalan-past-4300-digits", "asm-past-4300-digits"])
def test_capacity_refusal_of_a_huge_n_is_one_short_line(cache, capsys, argv):
    # the refusal names n, the limit and the override, never a count
    # too long for Python's int-to-string limit
    assert run(argv) == cli.EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200
    assert err.startswith("capacity: ") and argv[2] in err


def test_sample_report(cache, tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run(["sample", "-n", "3", "--seed", "5", "--samples", "20000",
                "--burn-in", "100", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["kind"] == "sampler-report"
    assert obj["seed"] == 5
    assert obj["pass"] is True
    assert sum(obj["empirical"].values()) == 20000


def test_sample_determinism(cache, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["sample", "-n", "4", "--seed", "123", "--samples", "5000",
                    "--burn-in", "50", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_honours_max_n(cache, monkeypatch, capsys):
    monkeypatch.setattr(patterns, "MAX_N", 3)
    assert run(["sample", "-n", "4", "--max-n", "4", "--samples", "1000",
                "--out", "-"]) == 0
    assert run(["sample", "-n", "4", "--samples", "1000"]) == cli.EXIT_CAPACITY


def test_sample_negative_tolerance_is_an_argument_error(cache, tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run(["sample", "-n", "3", "--samples", "10", "--tolerance", "-1",
                "--out", str(out)]) == cli.EXIT_FAIL
    captured = capsys.readouterr()
    assert "error: tolerance" in captured.err
    assert "FAIL" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("bad", [["--tolerance", "-1"], ["--samples", "0"]],
                         ids=["tolerance", "samples"])
def test_sample_argument_error_comes_before_the_census(cache, monkeypatch,
                                                       capsys, bad):
    def no_census(*args, **kwargs):
        raise AssertionError("census ran before the arguments were checked")

    monkeypatch.setattr(fpl, "histogram", no_census)
    assert run(["sample", "-n", "9", "--samples", "10", *bad]) == cli.EXIT_FAIL
    assert "error:" in capsys.readouterr().err


def test_sample_refuses_over_hop_table_before_census(cache, monkeypatch, capsys):
    def no_census(*args, **kwargs):
        raise AssertionError("census ran before the capacity check")

    monkeypatch.setattr(fpl, "histogram", no_census)
    argv = ["sample", "-n", "11", "--samples", "10"]
    assert run(argv) == cli.EXIT_CAPACITY
    assert "--max-n 11" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enumerate"], ["groundstate"], ["verify", "--long"],
    ["sample", "--samples", "1000"], ["render"],
], ids=lambda argv: argv[0])
def test_every_subcommand_honours_the_one_ceiling(cache, monkeypatch, capsys,
                                                  argv):
    monkeypatch.setattr(patterns, "MAX_N", 3)
    assert run([*argv, "-n", "4"]) == cli.EXIT_CAPACITY
    assert "--max-n 4" in capsys.readouterr().err
    assert run([*argv, "-n", "4", "--max-n", "4"]) == cli.EXIT_OK
    # a cached artifact from the lifted run lets nothing through
    assert run([*argv, "-n", "4"]) == cli.EXIT_CAPACITY


class OperatorBuilt(Exception):
    pass


def test_verify_over_the_ceiling_reaches_the_census_with_max_n(cache,
                                                               monkeypatch):
    # with max_n the census runs (stubbed here by a one-pattern tally)
    # and then the operator at n = 11 (1,293,292 hop-table entries) is
    # built; no ceiling besides max_n stops either
    reached = []

    def census(n, max_n=None):
        reached.append((n, max_n))
        return fpl.PatternHistogram(n, {0: 1})

    def eigenvector(H):
        raise OperatorBuilt(H.n, H.dim)

    monkeypatch.setattr(fpl, "histogram", census)
    monkeypatch.setattr(spectra, "perron_vector", eigenvector)
    try:
        with pytest.raises(OperatorBuilt) as info:
            run(["verify", "-n", "11", "--long", "--max-n", "11", "--no-cache"])
        assert reached == [(11, 11)]
        assert info.value.args == (11, patterns.catalan(11))
    finally:  # release the n = 11 tables for the rest of the session
        for cached in (patterns._basis, patterns.hop_table,
                       patterns.rotation_permutation):
            cached.cache_clear()


@pytest.mark.long
def test_verify_n11_with_max_n(cache, capsys):
    argv = ["verify", "-n", "11", "--long", "--max-n", "11", "--no-cache"]
    assert run(argv) == cli.EXIT_OK
    assert "[pass] n=11 overall" in capsys.readouterr().out


def _peak_kb_in_a_fresh_process(args: list[str], tmp_path) -> int:
    """Peak RSS in kB of `python *args`, run with the cache under tmp_path.

    Linux carries the high-water mark of the memory a process had when
    it calls exec into its ru_maxrss, and a child of this large test
    process starts out sharing it, so a small interpreter in between
    starts the run and reads its peak with os.wait4.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), LOOPMODEL_CACHE=str(tmp_path))
    spawner = ("import os, subprocess, sys\n"
               "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
               "_, status, usage = os.wait4(p.pid, 0)\n"
               "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    proc = subprocess.run([sys.executable, "-c", spawner, sys.executable, *args],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    status, peak_kb = map(int, proc.stdout.split())
    assert status == 0
    return peak_kb  # ru_maxrss is in kB on Linux


@pytest.mark.long
def test_enumerate_n10_peak_rss_in_a_fresh_process(tmp_path):
    # the census sets the peak of an n = 10 run: 61 MB with a dict per
    # member and the row table as tuples, 41 MB with flat shape groups,
    # 37.2 MB with the row table as bytes, 32.8-33.0 MB with each
    # level's keys numbered once and the groups keyed by key id
    args = ["-m", "loopmodel.cli", "enumerate", "-n", "10", "--no-cache",
            "--out", str(tmp_path / "h10.csv")]
    assert _peak_kb_in_a_fresh_process(args, tmp_path) <= 35 * 1024


def test_enumerate_n8_with_cache_peaks_near_the_import(tmp_path):
    # writing the cache entry must cost no memory above the census:
    # loading hashlib maps OpenSSL, and a whole entry text is one more
    # copy of the payload.  With both the run peaked 4.6-5.0 MB above a
    # bare import, with neither about 1.0 MB.
    base = _peak_kb_in_a_fresh_process(["-c", "import loopmodel.cli"], tmp_path)
    out = tmp_path / "h8.csv"
    peak = _peak_kb_in_a_fresh_process(
        ["-m", "loopmodel.cli", "enumerate", "-n", "8", "--out", str(out)], tmp_path)
    assert (tmp_path / f"v{cli.CACHE_VERSION}" / "n=8" / "histogram.json").is_file()
    assert peak - base < 2.5 * 1024


def test_verify_path_never_builds_the_entry_dict(cache, monkeypatch, capsys):
    def no_dict(self):
        raise AssertionError("the (r, c) entry dict was built")

    monkeypatch.setattr(spectra.SparseIntMatrix, "entries", property(no_dict))
    assert spectra.verify_conjecture(6).passed
    assert run(["groundstate", "-n", "6", "--out", "-"]) == cli.EXIT_OK


def test_sample_compares_with_the_cached_census(cache, monkeypatch, tmp_path):
    # a comparing run reads the verified census that enumerate caches and
    # caches a fresh one itself, so a second run needs no census
    argv = ["sample", "-n", "5", "--seed", "3", "--samples", "2000", "--out"]
    assert run([*argv, str(tmp_path / "fresh.json")]) == cli.EXIT_OK
    census = fpl.histogram(5)

    def no_census(*args, **kwargs):
        raise AssertionError("the census ran despite the cached one")

    monkeypatch.setattr(fpl, "histogram", no_census)
    assert cli._histogram(5, None) == census
    assert run([*argv, str(tmp_path / "cached.json")]) == cli.EXIT_OK
    assert ((tmp_path / "cached.json").read_bytes()
            == (tmp_path / "fresh.json").read_bytes())


def test_sample_chains_and_ignored_workers(cache, tmp_path):
    args = ["sample", "-n", "4", "--seed", "7", "--samples", "3000",
            "--burn-in", "20", "--no-compare", "--out"]
    paths = {k: tmp_path / f"{k}.json" for k in ("chains3", "w1", "w3")}
    assert run(args + [str(paths["chains3"]), "--chains", "3"]) == 0
    assert run(args + [str(paths["w1"]), "--workers", "1"]) == 0
    assert run(args + [str(paths["w3"]), "--workers", "3"]) == 0
    rep = stochastic.sample_stationary(4, burn_in=20, samples=3000, seed=7,
                                       chains=3, compare=False)
    obj = json.loads(paths["chains3"].read_text())
    assert obj["chains"] == 3
    assert obj["empirical"] == {str(r): c for r, c in enumerate(rep.counts) if c}
    assert paths["w3"].read_bytes() == paths["w1"].read_bytes()
    assert json.loads(paths["w1"].read_text())["chains"] == 1


def test_render_state_ascii(cache, capsys):
    assert run(["render", "-n", "1", "--index", "0"]) == 0
    out = capsys.readouterr().out
    assert "+" in out and "1" in out and "2" in out


def test_render_pattern_svg(cache, tmp_path):
    out = tmp_path / "p.svg"
    assert run(["render", "--pattern", "2 1 4 3", "--format", "svg",
                "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<path") == 2


def test_render_state_with_asm(cache, capsys):
    assert run(["render", "-n", "3", "--index", "3", "--with-asm"]) == 0
    out = capsys.readouterr().out
    assert "-1" in out, "alternating entry appears in the matrix block"


def test_render_errors(cache, capsys):
    assert run(["render", "-n", "2", "--index", "99"]) == cli.EXIT_FAIL
    assert run(["render"]) == cli.EXIT_FAIL


def test_render_refuses_an_index_before_walking_states(cache, monkeypatch,
                                                        capsys):
    real = fpl.enumerate_states

    def no_walk(n, max_n=None):
        raise AssertionError("the states were walked")

    monkeypatch.setattr(fpl, "enumerate_states", no_walk)
    for k in ("-1", "429"):  # A_5 = 429
        assert run(["render", "-n", "5", "--index", k]) == cli.EXIT_FAIL
        assert capsys.readouterr().err == (
            f"error: state index {k} out of range for n=5\n")
    monkeypatch.setattr(fpl, "enumerate_states", real)
    assert run(["render", "-n", "5", "--index", "428"]) == cli.EXIT_OK


def test_render_pattern_text(cache, capsys):
    assert run(["render", "--pattern", "4 3 2 1"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "(())\n4 3 2 1\n"


def test_render_state_svg(cache, capsys):
    assert run(["render", "-n", "4", "--index", "17", "--format", "svg"]) == 0
    state = list(fpl.enumerate_states(4))[17]
    assert capsys.readouterr().out == render.svg_chords(fpl.link_pattern_of(state))


def test_sweep_violation_exits_with_a_violation_line(cache, monkeypatch, capsys):
    real = fpl._side_stubs
    monkeypatch.setattr(fpl, "_side_stubs", lambda n, r: (real(n, r)[0], None))
    assert run(["enumerate", "-n", "3", "--no-cache"]) == cli.EXIT_FAIL
    assert capsys.readouterr().err.startswith("violation: ")


def _loaded_after(code: str, names, tmp_path, no_site: bool = False) -> list[str]:
    """Those of `names` in sys.modules once a fresh interpreter ran `code`.

    The child runs in tmp_path, with the source tree on its path and its
    cache in tmp_path; no_site passes -S, so no site hook imports
    anything before the code does.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), LOOPMODEL_CACHE=str(tmp_path))
    code += f"\nimport sys\nprint(*[m for m in {list(names)!r} if m in sys.modules])"
    flags = ["-S"] if no_site else []
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # numpy is no runtime dependency; importing the package must not load it
    code = "import loopmodel, loopmodel.cli"
    assert _loaded_after(code, ["numpy"], tmp_path) == []


def test_enumerate_leaves_numpy_unloaded(tmp_path):
    # the census itself, not only the import, runs without numpy
    out = tmp_path / "h5.csv"
    code = ("import loopmodel.cli\n"
            f"loopmodel.cli.main(['enumerate', '-n', '5', '--out', {str(out)!r}])")
    assert _loaded_after(code, ["numpy"], tmp_path) == []
    assert out.read_text().startswith("rank,match_array,count")


def test_verify_leaves_numpy_unloaded(tmp_path):
    # the eigenvector candidate is pure Python: no command loads numpy
    out = tmp_path / "r5.json"
    code = ("import loopmodel.cli\n"
            f"loopmodel.cli.main(['verify', '-n', '5', '--out', {str(out)!r}])")
    assert _loaded_after(code, ["numpy"], tmp_path) == []
    assert json.loads(out.read_text())["passed"] is True


def test_verify_runs_with_numpy_blocked(tmp_path):
    # numpy stays installed for the benchmark's reference kernel; a None
    # entry in sys.modules makes any import of it raise ImportError
    code = ("import sys\nsys.modules['numpy'] = None\n"
            "from loopmodel import spectra\n"
            "assert spectra.verify_conjecture(6).passed\n"
            "assert sys.modules['numpy'] is None")
    assert _loaded_after(code, ["numpy"], tmp_path) == ["numpy"]  # the None entry


def test_sample_leaves_numpy_unloaded(tmp_path):
    # the chain and its exact-law comparison run without numpy
    out = tmp_path / "s.json"
    code = ("import loopmodel.cli\n"
            f"loopmodel.cli.main(['sample', '-n', '4', '--samples', '2000', "
            f"'--out', {str(out)!r}])")
    assert _loaded_after(code, ["numpy"], tmp_path) == []
    assert out.exists()


def test_openssl_hashlib_never_loads(tmp_path):
    # -S: no site hook imports hashlib before the commands run.  The cache
    # checksum comes from CPython's builtin module, so no command, cache
    # write or cache read maps OpenSSL's _hashlib.
    code = ("import sys\nfrom loopmodel import cli\n"
            "def unloaded(step):\n"
            "    assert '_hashlib' not in sys.modules, step\n"
            "cli.main(['verify', '-n', '5', '--out', 'r5.json'])\n"
            "unloaded('verify')\n"
            "cli.main(['sample', '-n', '4', '--no-compare', '--out', 's4.json'])\n"
            "unloaded('sample')\n"
            "cli.main(['enumerate', '-n', '5', '--out', 'h5.csv'])\n"
            "unloaded('enumerate')\n"
            "assert cli.cache_load(5, 'histogram')['total'] == 429\n"
            "unloaded('read-back')")
    assert _loaded_after(code, ["_hashlib"], tmp_path, no_site=True) == []


# Modules no verdict needs: dataclasses pulls in inspect (with ast, dis
# and tokenize) at import, and fractions pulls in decimal.
STARTUP_FREE = ["dataclasses", "inspect", "fractions", "decimal", "typing"]


def test_import_loads_no_dataclasses_or_fractions(tmp_path):
    code = "import loopmodel, loopmodel.cli"
    assert _loaded_after(code, STARTUP_FREE, tmp_path, no_site=True) == []


def test_library_import_loads_no_json_or_re(tmp_path):
    # the command line is the only code that turns a record into JSON text
    assert _loaded_after("import loopmodel", ["json", "re"], tmp_path,
                         no_site=True) == []


def test_commands_load_no_dataclasses_or_fractions(tmp_path):
    # the exact laws import fractions only when built; no command builds one
    code = ("from loopmodel import cli\n"
            "cli.main(['verify', '-n', '5', '--out', 'r5.json'])\n"
            "cli.main(['enumerate', '-n', '5', '--out', 'h5.csv'])\n"
            "cli.main(['sample', '-n', '4', '--no-compare', '--out', 's4.json'])\n"
            "cli.main(['sample', '-n', '4', '--samples', '2000', '--out', 's.json'])\n"
            "import json\n"
            "assert json.load(open('s.json'))['pass'] is not None")
    assert _loaded_after(code, ["dataclasses", "inspect", "fractions"], tmp_path,
                         no_site=True) == []


def _streamed_artifact(argv, tmp_path):
    out = tmp_path / "artifact.json"
    assert run([*argv, "--out", str(out)]) == cli.EXIT_OK
    text = out.read_text()
    return text, json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _streamed_to_stdout(argv, capsys):
    assert run([*argv, "--out", "-"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    text = out[out.index("\n{") + 1:]  # after the summary lines
    return text, json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _cache_entry_text(tmp_path):
    payload = fpl.histogram(6).to_json_obj()
    entry = {"sha256": hashlib.sha256(cli._canonical(payload).encode()).hexdigest(),
             "payload": payload}
    path = cli.cache_store(6, "histogram", payload)
    return path.read_text(), json.dumps(entry, sort_keys=True, indent=1) + "\n"


def _hashlib_entry_read_back(tmp_path):
    # an entry as the hashlib-based writer left it
    payload = fpl.histogram(5).to_json_obj()
    entry = {"sha256": hashlib.sha256(cli._canonical(payload).encode()).hexdigest(),
             "payload": payload}
    path = cli._cache_path(5, "histogram")
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(entry, sort_keys=True, indent=1) + "\n")
    return cli.cache_load(5, "histogram"), payload


def _digests(text):
    return cli._sha256(text), hashlib.sha256(text.encode()).hexdigest()


SAME_BYTES = {
    "enumerate-json": lambda tmp, cap: _streamed_artifact(
        ["enumerate", "-n", "6", "--format", "json"], tmp),
    "enumerate-json-stdout": lambda tmp, cap: _streamed_to_stdout(
        ["enumerate", "-n", "5", "--format", "json"], cap),
    "groundstate-json": lambda tmp, cap: _streamed_artifact(
        ["groundstate", "-n", "6", "--format", "json"], tmp),
    "verify-out": lambda tmp, cap: _streamed_artifact(["verify", "-n", "5"], tmp),
    "sample-out": lambda tmp, cap: _streamed_artifact(
        ["sample", "-n", "4", "--samples", "2000"], tmp),
    "cache-entry": lambda tmp, cap: _cache_entry_text(tmp),
    "hashlib-entry-reads-back": lambda tmp, cap: _hashlib_entry_read_back(tmp),
    "digest-empty": lambda tmp, cap: _digests(""),
    "digest-short": lambda tmp, cap: _digests("loopmodel"),
    "digest-census-n6": lambda tmp, cap: _digests(
        cli._canonical(fpl.histogram(6).to_json_obj())),
}


@pytest.mark.parametrize("case", SAME_BYTES)
def test_streamed_json_and_builtin_digest_match_the_old_bytes(cache, tmp_path,
                                                              capsys, case):
    # each streamed artifact is json.dumps of the same object, each cache
    # entry is the indent=1 json.dumps of it, and the builtin digest is
    # hashlib's, so files written before and after read back either way
    actual, expected = SAME_BYTES[case](tmp_path, capsys)
    assert actual == expected


def test_entry_point_exists():
    """The `loopmodel` console script is declared and resolves to cli.main.

    pyproject.toml is read directly, so the check also runs from a source
    tree that is not installed (PYTHONPATH=src). Where a loopmodel
    distribution is installed, its entry must say the same, which also
    catches a stale install from another tree.
    """
    import importlib.metadata as md

    expected = "loopmodel.cli:main"
    try:
        dist = md.distribution("loopmodel")
    except md.PackageNotFoundError:
        dist = None
    if dist is not None:
        installed = dist.entry_points.select(group="console_scripts",
                                             name="loopmodel")
        assert [ep.value for ep in installed] == [expected]

    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("loopmodel") == expected
    ep = md.EntryPoint(name="loopmodel", value=scripts["loopmodel"],
                       group="console_scripts")
    assert ep.load() is cli.main


def test_package_facade_exports_contract_surface():
    import loopmodel

    required = [
        "LinkPattern", "enumerate_patterns", "rank", "unrank", "apply_h",
        "rotate", "reflect",
        "FplState", "AsmMatrix", "PatternHistogram", "enumerate_states",
        "asm_count", "state_to_asm", "asm_to_state", "link_pattern_of",
        "histogram",
        "SparseIntMatrix", "BigIntVector", "build_hamiltonian",
        "preimage_sum", "perron_vector", "verify_conjecture",
        "spectral_radius_check",
        "PatternDistribution", "player_a_probability",
        "player_b_probability", "chain_step", "sample_stationary",
        "CapacityError", "ConjectureViolation",
    ]
    for name in required:
        assert hasattr(loopmodel, name), name
        assert name in loopmodel.__all__, name
    assert sorted(set(loopmodel.__all__)) == sorted(loopmodel.__all__)


def test_readme_library_tour_runs():
    # the README's python example is the documented public API; run it as is
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme[readme.index("\n## Library tour\n"):]
    start = tour.index("```python\n") + len("```python\n")
    exec(compile(tour[start:tour.index("```", start)], "README.md", "exec"), {})
