"""Self-check of the benchmark's correctness gate.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py

Runs real workload children through run.run_once, corrupts their
artifacts or forces a nonzero exit, and asserts that each corruption
registers as a failed run (attempted and failed both rise) rather than
vanishing, while untouched runs pass.  Takes about 20 s.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import run


def flip_census_count(d: Path) -> None:
    """Add one to the count of the first census row."""
    path = d / "census.csv"
    lines = path.read_text().splitlines()
    rank, match, count = lines[1].split(",")
    lines[1] = f"{rank},{match},{int(count) + 1}"
    path.write_text("\n".join(lines) + "\n")


def alter_chain_count(d: Path) -> None:
    """Add one to one sampled count, so the counts no longer sum up."""
    path = d / "sample.json"
    rep = json.loads(path.read_text())
    key = next(iter(rep["empirical"]))
    rep["empirical"][key] += 1
    path.write_text(json.dumps(rep, indent=2, sort_keys=True) + "\n")


def move_chain_count(d: Path) -> None:
    """Move one sample between two patterns; the sum still holds."""
    path = d / "sample.json"
    rep = json.loads(path.read_text())
    a, b = list(rep["empirical"])[:2]
    rep["empirical"][a] -= 1
    rep["empirical"][b] += 1
    path.write_text(json.dumps(rep, indent=2, sort_keys=True) + "\n")


class GateDefect(Exception):
    pass


def expect(tally: run.Tally, wl: run.Workload, tamper, should_fail: bool) -> None:
    before = (tally.attempted, tally.failed)
    wall, _ = run.run_once(wl, 7, tally, tamper=tamper)
    label = f"{wl.name} {getattr(tamper, '__name__', 'untouched')}"
    if tally.attempted != before[0] + 1 or not wall > 0:
        raise GateDefect(f"{label}: run not counted")
    failed = tally.failed == before[1] + 1
    if failed != should_fail:
        raise GateDefect(
            f"{label}: expected {'a failed' if should_fail else 'a passing'} "
            f"run, failures {tally.failures[before[1]:]}"
        )
    print(f"ok  {label}: {'failed' if failed else 'passed'}"
          + (f" ({tally.failures[-1]})" if failed else ""))


def main() -> int:
    run.SCRATCH.mkdir(exist_ok=True)
    chain = run.WORKLOADS["chain-n10"]
    census = run.WORKLOADS["census-n9"]
    # verify -n 8 without --long is refused with a nonzero exit at once
    refused = dataclasses.replace(
        run.WORKLOADS["verify-n8"],
        name="verify-n8 without --long",
        argv=lambda d, seed: ["verify", "-n", "8", "--workers", "1",
                              "--out", str(d / "report.json")],
    )
    tally = run.Tally()
    expect(tally, chain, None, should_fail=False)
    expect(tally, chain, alter_chain_count, should_fail=True)
    expect(tally, chain, move_chain_count, should_fail=True)
    expect(tally, census, flip_census_count, should_fail=True)
    expect(tally, refused, None, should_fail=True)
    run.SCRATCH.rmdir()
    print(f"gate self-check passed: {tally.failed} of {tally.attempted} runs "
          "failed as intended")
    return 0


if __name__ == "__main__":
    sys.exit(main())
