"""Traced run of one CLI command, with spans recorded from outside the package.

Usage: python3 perfbench/tracer.py SPANS_JSON -- CLI_ARGS...

Before running `loopmodel.cli.main(CLI_ARGS)` in this process, the
tracer replaces public functions of each layer with wrappers, as
module attributes.  Callers inside the package resolve these names
through the module at call time (`_fpl.histogram`, `build_hamiltonian`
inside `spectra`), so spans nest as the calls do.  Only public names
are wrapped: private helpers are expected to be replaced by later
optimisations and would break the benchmark.

Each span records its name, start, end, parent span and the rise of the
process's peak RSS across the call.  Calls to `apply_h` made by
`spectra` and `stochastic` are counted, not spanned.  After the command,
two probes run and are marked as such: the last `sample_stationary`
call is repeated with its hop table warm, and the last artifact written
through `cache_store` is read back through `cache_load`.
"""
from __future__ import annotations

import json
import resource
import sys
import time


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span log, written out once the command has ended."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.last_args: dict[str, tuple] = {}
        self._stack: list[int] = []
        self.probe = False

    def wrap(self, module, attr: str, name: str, sizes=None) -> None:
        """Replace module.attr by a wrapper that records a span per call.

        sizes maps the call's result to extra fields of the span.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            rec = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "probe": self.probe,
                "rss0_mb": _maxrss_mb(),
                "start": time.perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            self.last_args[name] = (args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                rec["rss1_mb"] = _maxrss_mb()
                self._stack.pop()
            if sizes is not None:
                rec.update(sizes(result))
            return result

        setattr(module, attr, traced)

    def count(self, module, attr: str, name: str) -> None:
        """Replace module.attr by a wrapper that counts its calls."""
        fn = getattr(module, attr)
        self.counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, counted)


def install(tracer: Tracer) -> None:
    from loopmodel import cli, fpl, patterns, spectra, stochastic

    tracer.wrap(patterns, "enumerate_patterns", "patterns.enumerate_patterns",
                lambda basis: {"size": len(basis)})
    tracer.wrap(patterns, "rotation_permutation", "patterns.rotation_permutation")
    tracer.wrap(patterns, "reflection_permutation", "patterns.reflection_permutation")
    tracer.count(spectra, "apply_h", "patterns.apply_h")
    tracer.count(stochastic, "apply_h", "patterns.apply_h")
    tracer.wrap(fpl, "histogram", "fpl.histogram",
                lambda hist: {"states": hist.total()})
    tracer.wrap(spectra, "build_hamiltonian", "spectra.build_hamiltonian",
                lambda H: {"nnz": len(H.entries)})
    tracer.wrap(spectra, "perron_vector", "spectra.perron_vector")
    tracer.wrap(spectra, "preimage_sums_all", "spectra.preimage_sums_all")
    tracer.wrap(spectra, "spectral_radius_check", "spectra.spectral_radius_check",
                lambda sc: {"iterations": sc.iterations})
    tracer.wrap(spectra, "verify_conjecture", "spectra.verify_conjecture")
    tracer.wrap(stochastic, "sample_stationary", "stochastic.sample_stationary",
                lambda rep: {"steps": rep.burn_in + rep.samples})
    tracer.wrap(cli, "cache_store", "cli.cache_store",
                lambda path: {"bytes": path.stat().st_size})
    tracer.wrap(cli, "cache_load", "cli.cache_load")


def run_probes(tracer: Tracer) -> None:
    from loopmodel import cli, stochastic

    tracer.probe = True
    sample = tracer.last_args.get("stochastic.sample_stationary")
    if sample is not None:
        stochastic.sample_stationary(*sample[0], **sample[1])
    store = tracer.last_args.get("cli.cache_store")
    if store is not None:
        n, name = store[0][:2]
        cli.cache_load(n, name)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    from loopmodel import cli

    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    t_probe = time.perf_counter()
    run_probes(tracer)
    with open(out, "w") as fh:
        json.dump({
            "probe_s": time.perf_counter() - t_probe,
            "spans": tracer.spans,
            "counts": tracer.counts,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
