"""End-to-end and per-layer benchmark for loopmodel.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed operation is one fresh `python -m loopmodel.cli ...` child
process, run from the checkout's `src/` and timed from outside.  Runs
are closed-loop and sequential: one child at a time, from this one
process, so on a 2-core machine the child has a core to itself.
Children get `--workers 1`, single-threaded BLAS, a fixed hash seed and
a fresh `LOOPMODEL_CACHE` directory each, so no run reads another's
artifacts.  An untimed warm-up runs the same subcommand at a small n
first, so bytecode compilation is never timed.  The loop starts runs
until `--seconds` have passed (at least MIN_RUNS), and every run's
artifacts go through a correctness gate (gates.py); a run that exits
nonzero or fails its gate counts as failed and keeps its timing.

Times are speed-normalized.  On the shared 2-vCPU machines this runs
on, core speed drifts by up to 40% over tens of seconds, so raw medians
of two runs minutes apart differ by more than any bound worth setting.
A fixed reference program (reference.py) therefore runs between
consecutive timed children, and each child's wall time (and the import
times before it) is scaled by REF_NOMINAL_S over the geometric mean of
the two reference times around it: the result is that child's wall
time on a machine where the reference takes REF_NOMINAL_S.
Interpreter-bound and array-bound work drift differently, so each
workload names the reference kernel that tracks it (Workload.reference).
In logs of four to five minutes at the seed commit, the quartile spread
of 30-second medians went from 10% raw to 6.5% on chain-n10 and from
8.8% to 4.7% on census-n9 with the `interp` kernel, and from 7.0% to
4.7% on verify-n8 with the `numpy` kernel (12% with `interp`, whose
drift does not follow numpy's).  In one drifting period ten raw
chain-n10 runs spread by 30%.

With --trace 0 the last line reports the end-to-end metrics, medians
over the run's children:
  wall_s       spawn to exit of one CLI run, speed-normalized
  peak_rss_mb  that child's own peak RSS, from os.wait4
  setup_s      a fresh interpreter importing loopmodel and loopmodel.cli,
               SETUP_PER_RUN times before each CLI run, speed-normalized
  pass_ratio   runs that passed their gate / runs attempted; the result
               line's `failed` and `attempted` give the fail ratio

With --trace 1 the same timed loop runs, then one traced child per
workload (tracer.py) and the last line reports the per-layer metrics.
Each layer metric is taken from the workload that exercises that layer
(`patterns.basis_s` and `apply_h_calls`, `stochastic.*` from chain-n10;
`fpl.*`, `cli.*` from census-n9; `spectra.*` and the symmetry
permutations from verify-n8), so every traced run reports every metric.
The two `trace.*` metrics and the raw times `bench.wall_raw_s` (median
CLI wall time, not normalized) and `bench.ref_s` (median reference
time) belong to the selected workload.

Workloads and why:
  verify-n8  the full pipeline, both routes; the dense modular
             `perron_vector` is about 86% of it, the census about 5%.
  census-n9  the `fpl` sweep with the cache written; never touches
             `spectra`, so it bypasses eigenvector work and shows any
             memory a faster sweep costs.
  chain-n10  the sampler: a 16,796-pattern basis, a 336k-entry hop
             table built through `apply_h`, then the pure-Python chain;
             `fpl` and `spectra` stay idle.  The only seeded workload;
             the census workloads are deterministic and ignore --seed.

`verify -n 9` is not a workload yet: at the seed commit its dense
eigenvector takes 472 s and 824 MB, past the 180 s limit of one run.
It can join once the eigenvector stops being dense elimination.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gates

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
TRACER = Path(__file__).resolve().parent / "tracer.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

# The unit of normalized time, per reference kernel: about its median
# wall time on the 2-vCPU Xeon sandbox where the seed baseline was
# measured (121 and 34 runs), so normalized times read close to raw ones.
REF_NOMINAL_S = {"interp": 0.32, "numpy": 0.53}

MIN_RUNS = 2
SETUP_PER_RUN = 2
CHAIN_SAMPLES = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    # (run directory, seed) -> CLI arguments
    argv: Callable[[Path, int], list[str]]
    # CLI arguments of the untimed warm-up
    warmup: list[str]
    # (run directory, seed) -> None, or why the run's outputs are wrong
    check: Callable[[Path, int], str | None]
    # reference.py kernel whose drift follows this workload's
    reference: str = "interp"
    # artifact that must be byte-identical across runs with one seed
    repeatable: str | None = None


WORKLOADS = {
    "verify-n8": Workload(
        "verify-n8",
        lambda d, seed: ["verify", "-n", "8", "--long", "--workers", "1",
                         "--out", str(d / "report.json")],
        ["verify", "-n", "4", "--workers", "1", "--no-cache"],
        lambda d, seed: gates.check_verify(d / "report.json", 8),
        # about 86% of it is numpy int64 elimination in perron_vector
        reference="numpy",
    ),
    "census-n9": Workload(
        "census-n9",
        lambda d, seed: ["enumerate", "-n", "9", "--format", "csv",
                         "--workers", "1", "--out", str(d / "census.csv")],
        ["enumerate", "-n", "4", "--workers", "1", "--no-cache", "--out", "-"],
        lambda d, seed: gates.check_census_n9(d / "census.csv"),
    ),
    "chain-n10": Workload(
        "chain-n10",
        lambda d, seed: ["sample", "-n", "10", "--no-compare", "--seed", str(seed),
                         "--samples", str(CHAIN_SAMPLES), "--workers", "1",
                         "--out", str(d / "sample.json")],
        ["sample", "-n", "4", "--no-compare", "--samples", "1000",
         "--workers", "1", "--out", "-"],
        lambda d, seed: gates.check_chain(d / "sample.json", 10, CHAIN_SAMPLES,
                                          seed, gates.CHAIN_N10_DIM),
        repeatable="sample.json",
    ),
}


@dataclass
class Tally:
    """Every operation attempted, why each failure failed, and timings."""

    walls: list[float] = field(default_factory=list)  # speed-normalized
    raw_walls: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str | None = None  # of the first repeatable artifact

    def count(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)

    @property
    def failed(self) -> int:
        return len(self.failures)


def child_env(cache: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        LOOPMODEL_CACHE=str(cache),
    )
    return env


def spawn(cmd: list[str], env: dict[str, str], stderr_path: Path
          ) -> tuple[float, float, int]:
    """Run one child to exit; (wall seconds, its peak RSS in MB, exit code)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_once(wl: Workload, seed: int, tally: Tally, traced: Path | None = None,
             tamper: Callable[[Path], None] | None = None) -> tuple[float, float]:
    """One gated CLI run in a fresh directory; (wall seconds, peak RSS MB).

    With traced set, the run goes through tracer.py and writes its spans
    there.  tamper edits the artifacts before the gate sees them; only
    the gate's self-check uses it.
    """
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        d = Path(tmp)
        args = wl.argv(d, seed)
        if traced is None:
            cmd = [sys.executable, "-m", "loopmodel.cli", *args]
        else:
            cmd = [sys.executable, str(TRACER), str(traced), "--", *args]
        wall, rss, code = spawn(cmd, child_env(d / "cache"), d / "stderr.txt")
        if tamper is not None:
            tamper(d)
        if code == 0:
            reason = wl.check(d, seed)
        else:
            tail = (d / "stderr.txt").read_text(errors="replace").strip()
            reason = f"exit code {code}: {tail.splitlines()[-1] if tail else 'no stderr'}"
        if reason is None and wl.repeatable:
            digest = hashlib.sha256((d / wl.repeatable).read_bytes()).hexdigest()
            if tally.digest is None:
                tally.digest = digest
            elif digest != tally.digest:
                reason = f"{wl.repeatable} differs between runs with one seed"
        tally.count(reason)
        return wall, rss


def warm_up(wl: Workload) -> None:
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        d = Path(tmp)
        spawn([sys.executable, "-m", "loopmodel.cli", *wl.warmup],
              child_env(d / "cache"), d / "stderr.txt")


def import_times(k: int, tally: Tally) -> list[float]:
    """Wall times of k fresh interpreters importing the package and CLI."""
    times = []
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        d = Path(tmp)
        cmd = [sys.executable, "-c", "import loopmodel, loopmodel.cli"]
        for _ in range(k):
            wall, _, code = spawn(cmd, child_env(d / "cache"), d / "stderr.txt")
            tally.count(None if code == 0 else f"import exit code {code}")
            times.append(wall)
    return times


class SpeedReference:
    """Reference-program timings, giving the machine's speed over time."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.times: list[float] = []
        self._run()

    def _run(self) -> None:
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            d = Path(tmp)
            wall, _, code = spawn([sys.executable, str(REFERENCE), self.kind],
                                  child_env(d / "cache"), d / "stderr.txt")
        if code != 0:
            raise RuntimeError(f"reference program exited with code {code}")
        self.times.append(wall)

    def scale(self) -> float:
        """Factor normalizing what ran since the last reference run."""
        before = self.times[-1]
        self._run()
        return REF_NOMINAL_S[self.kind] / math.sqrt(before * self.times[-1])


def timed_loop(wl: Workload, seed: int, seconds: float, tally: Tally,
               ref: SpeedReference, setup: list[float] | None) -> None:
    """Run the workload until `seconds` have passed and MIN_RUNS are done.

    With setup given, SETUP_PER_RUN import timings precede each run, so
    set-up is sampled across the whole window like the workload is.
    """
    deadline = time.perf_counter() + seconds
    while len(tally.walls) < MIN_RUNS or time.perf_counter() < deadline:
        imports = [] if setup is None else import_times(SETUP_PER_RUN, tally)
        wall, rss = run_once(wl, seed, tally)
        scale = ref.scale()
        tally.walls.append(wall * scale)
        tally.raw_walls.append(wall)
        tally.rss_mb.append(rss)
        if setup is not None:
            setup += [t * scale for t in imports]


# -- per-layer metrics from the traced runs ----------------------------------


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _spans(trace: dict, name: str, probe: bool = False) -> list[dict]:
    return [s for s in trace["spans"] if s["name"] == name and s["probe"] == probe]


def _self_time(trace: dict, name: str) -> float:
    spans = trace["spans"]
    total = 0.0
    for i, s in enumerate(spans):
        if s["name"] == name and not s["probe"]:
            total += _dur(s) - sum(_dur(c) for c in spans if c["parent"] == i)
    return total


def layer_metrics(traces: dict[str, dict]) -> dict[str, tuple[float, str]]:
    # Each layer metric is read from the workload that exercises it.
    verify, census, chain = (traces[w] for w in ("verify-n8", "census-n9", "chain-n10"))
    basis = _spans(chain, "patterns.enumerate_patterns")[0]
    sweep = _spans(census, "fpl.histogram")[0]
    eig = _spans(verify, "spectra.perron_vector")[0]
    sample = _spans(chain, "stochastic.sample_stationary")[0]
    repeat = _spans(chain, "stochastic.sample_stationary", probe=True)[0]
    store = _spans(census, "cli.cache_store")[-1]
    load = _spans(census, "cli.cache_load", probe=True)[-1]

    def total(trace, *names):
        return sum(_dur(s) for n in names for s in _spans(trace, n))

    return {
        "patterns.basis_s": (_dur(basis), "s"),
        "patterns.basis_size": (basis["size"], "count"),
        "patterns.apply_h_calls": (chain["counts"]["patterns.apply_h"], "count"),
        "patterns.symmetry_perms_s": (
            total(verify, "patterns.rotation_permutation",
                  "patterns.reflection_permutation"), "s"),
        "fpl.census_s": (_dur(sweep), "s"),
        "fpl.census_states_per_s": (sweep["states"] / _dur(sweep), "1/s"),
        "fpl.census_rss_mb": (sweep["rss1_mb"] - sweep["rss0_mb"], "MB"),
        "spectra.build_s": (total(verify, "spectra.build_hamiltonian"), "s"),
        "spectra.nnz": (_spans(verify, "spectra.build_hamiltonian")[0]["nnz"], "count"),
        "spectra.eigvec_s": (_dur(eig), "s"),
        "spectra.eigvec_rss_mb": (eig["rss1_mb"] - eig["rss0_mb"], "MB"),
        "spectra.preimage_s": (total(verify, "spectra.preimage_sums_all"), "s"),
        "spectra.radius_check_s": (total(verify, "spectra.spectral_radius_check"), "s"),
        "spectra.power_iterations": (
            _spans(verify, "spectra.spectral_radius_check")[0]["iterations"], "count"),
        "spectra.verify_self_s": (_self_time(verify, "spectra.verify_conjecture"), "s"),
        "stochastic.sample_s": (_dur(sample), "s"),
        "stochastic.chain_steps_per_s": (repeat["steps"] / _dur(repeat), "1/s"),
        "stochastic.table_build_s": (_dur(sample) - _dur(repeat), "s"),
        "cli.cache_store_s": (_dur(store), "s"),
        "cli.cache_load_s": (_dur(load), "s"),
        "cli.artifact_bytes": (store["bytes"], "bytes"),
    }


def trace_metrics(trace: dict, wall: float, scale: float,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Trust in one traced run: its cost, and the time no span covers.

    wall is the traced child's raw wall time and scale its speed
    normalization; untraced_wall is the normalized untraced median.
    """
    traced = wall - trace["probe_s"]
    top = sum(_dur(s) for s in trace["spans"] if s["parent"] is None and not s["probe"])
    return {
        "trace.overhead_s": (traced * scale - untraced_wall, "s"),
        "trace.unattributed_s": (traced - top, "s"),
    }


def traced_runs(seed: int, tally: Tally, ref: SpeedReference
                ) -> tuple[dict[str, dict], dict[str, tuple[float, float]]]:
    """One traced child per workload: spans, and (raw wall, scale) of each."""
    traces, walls = {}, {}
    for name, wl in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            out = Path(tmp) / "spans.json"
            wall, _ = run_once(wl, seed, tally, traced=out)
            walls[name] = (wall, ref.scale())
            if out.is_file():
                traces[name] = json.loads(out.read_text())
    return traces, walls


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "loopmodel" / "cli.py").is_file():
        print(f"no loopmodel sources under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    tally = Tally()
    warm_up(wl)
    setup = None if args.trace else []
    ref = SpeedReference(wl.reference)
    timed_loop(wl, args.seed, args.seconds, tally, ref, setup)
    untraced_wall = statistics.median(tally.walls)
    if args.trace:
        traces, walls = traced_runs(args.seed, tally, ref)
        metrics = {}
        # a traced child that crashed leaves no spans and has failed its gate
        if len(traces) == len(WORKLOADS):
            metrics.update(layer_metrics(traces))
            metrics.update(trace_metrics(traces[wl.name], *walls[wl.name],
                                         untraced_wall))
            metrics["bench.wall_raw_s"] = (statistics.median(tally.raw_walls), "s")
            metrics["bench.ref_s"] = (statistics.median(ref.times), "s")
    else:
        metrics = {
            "wall_s": (untraced_wall, "s"),
            "peak_rss_mb": (statistics.median(tally.rss_mb), "MB"),
            "setup_s": (statistics.median(setup), "s"),
            "pass_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        }
    print(f"{wl.name}: {len(tally.walls)} timed runs, raw wall median "
          f"{statistics.median(tally.raw_walls):.4f} s, reference median "
          f"{statistics.median(ref.times):.4f} s over {len(ref.times)}", file=sys.stderr)
    for reason in tally.failures:
        print(f"failed run: {reason}", file=sys.stderr)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
