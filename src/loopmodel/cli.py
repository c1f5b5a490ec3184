"""Command-line front end: reproducible runs with cached artifacts.

Subcommands map onto the library modules: ``enumerate`` runs the grid
census, ``groundstate`` builds the operator-sum matrix and extracts
the exact top eigenvector, ``verify`` runs the full census-versus-
spectrum comparison, ``sample`` drives the Markov-chain sampler, and
``render`` draws states and patterns.  Results are cached per n under
a root taken from $LOOPMODEL_CACHE (default ~/.cache/loopmodel), as
``v<CACHE_VERSION>/n=<n>/<name>.json``, so a format bump never reads an
older entry.  Each file carries a format version and a SHA-256 checksum
of its payload, computed by CPython's builtin hash module (hashlib only
where that module is missing), and is written atomically; a cache
write that fails prints one warning and leaves the command's output
alone.  One rule decides whether an entry is used, in one function: a
cached census only if it parses and fits n (its n, its total A_n, its
ranks and the signs of its counts), a cached eigenvector only if it
passes the same certificate as a fresh one; anything else, a corrupt
or absent entry included, is recomputed silently and stored again.
``verify`` neither reads nor writes the cache; it still accepts
``--no-cache``, and ignores it.

Every subcommand that takes ``-n`` refuses n above one size ceiling,
``loopmodel.patterns.MAX_N``, before any census or operator work, and
its ``--max-n`` lifts that ceiling.  ``verify`` also asks for
``--long`` from n = LONG_GATE_N up.

Exit status: 0 on success, 1 when a requested check fails or an
argument or artifact path is unusable, 2 on a capacity refusal (the
message names the ceiling and how to raise it).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import fpl as _fpl
from . import patterns as _pat
from . import render as _render
from . import spectra as _spec
from . import stochastic as _st
from .errors import CapacityError, ConjectureViolation

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CAPACITY = 2

CACHE_ENV = "LOOPMODEL_CACHE"
CACHE_VERSION = 1  # bump when a cached payload's format changes
LONG_GATE_N = 8  # census sizes from here up hide behind --long


def cache_root() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "loopmodel"


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _cache_path(n: int, name: str) -> Path:
    return cache_root() / f"v{CACHE_VERSION}" / f"n={n}" / f"{name}.json"


def _sha256(text: str) -> str:
    """Hex SHA-256 of text's UTF-8 bytes, from CPython's builtin module.

    hashlib maps OpenSSL, which raised a census run's peak RSS by about
    3 MB; CPython's random.py takes _sha512 the same way.
    """
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # not CPython, or built without the module
        from hashlib import sha256
    return sha256(text.encode()).hexdigest()


def cache_store(n: int, name: str, payload: dict) -> Path:
    """Write a payload with its checksum header; returns the path.

    Streamed into a file beside the target and moved in by os.replace,
    so readers never see a partial file; a failed write leaves no
    temporary file.
    """
    obj = {"sha256": _sha256(_canonical(payload)), "payload": payload}
    path = _cache_path(n, name)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.writelines(_json_chunks(obj, 1))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def cache_load(n: int, name: str) -> dict | None:
    """Read a cached payload; None when absent, corrupt, or mismatched."""
    path = _cache_path(n, name)
    try:
        obj = json.loads(path.read_text())
        payload = obj["payload"]
        if (not isinstance(payload, dict)
                or _sha256(_canonical(payload)) != obj["sha256"]):
            return None
        return payload
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _store(n: int, name: str, payload: dict) -> None:
    """cache_store for the commands: a failed write, like a failed read,
    costs only the cache, so the command keeps its output and status."""
    try:
        cache_store(n, name, payload)
    except OSError as exc:
        print(f"warning: {name} not cached: {exc}", file=sys.stderr)


def _json_chunks(obj, indent: int):
    """The text of json.dumps(obj, indent=indent, sort_keys=True) + "\n",
    chunk by chunk, so the whole text is never held at once."""
    yield from json.JSONEncoder(sort_keys=True, indent=indent).iterencode(obj)
    yield "\n"


def _emit(chunks, out: str | None) -> None:
    """Write an artifact's text chunks to stdout, or to the file out."""
    if out is None or out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w") as fh:
            fh.writelines(chunks)
        print(f"wrote {out}")


def _cached(n: int, name: str, use: bool, read, compute):
    """The commands' one cache path: read(payload) of entry name for n
    when use is set; on a miss (absent, or read raises) compute(), whose
    result is stored when use is set."""
    payload = cache_load(n, name) if use else None
    if payload is not None:
        try:
            return read(payload)
        except (ValueError, KeyError, TypeError, AttributeError,
                ConjectureViolation):
            pass
    value = compute()
    if use:
        _store(n, name, value.to_json_obj())
    return value


def _census_fit(n: int, payload: dict) -> _fpl.PatternHistogram:
    """The census in a cached payload; ValueError unless it is for n, has
    total A_n, ranks only inside the basis and only positive counts."""
    hist = _fpl.PatternHistogram.from_json_obj(payload)
    dim = _pat.catalan(n)
    if (hist.n != n or hist.total() != _fpl.asm_count(n)
            or any(not 0 <= r < dim for r in hist.counts)
            or any(c < 1 for c in hist.counts.values())):
        raise ValueError(f"the cached census does not fit n={n}")
    return hist


def _histogram(n: int, max_n: int | None, cache: bool = True) -> _fpl.PatternHistogram:
    """Census via the cache when cache is set; stores fresh results.

    n is checked against the ceiling first, so a cached census never
    lets a refused n through.
    """
    _pat.check_n(n, max_n)
    return _cached(n, "histogram", cache, lambda p: _census_fit(n, p),
                   lambda: _fpl.histogram(n, max_n=max_n))


def cmd_enumerate(args) -> int:
    hist = _histogram(args.n, args.max_n, not args.no_cache)
    dim = _pat.catalan(args.n)
    print(f"n={args.n}: {hist.total()} states over {dim} patterns")
    rows = sorted(hist.counts)
    shown = rows if len(rows) <= 50 else rows[:20]
    for r in shown:
        print(f"  {r:6d}  {_pat.unrank(args.n, r).to_text():<30} {hist.count(r)}")
    if len(rows) > len(shown):
        print(f"  ... {len(rows) - len(shown)} more rows in the artifact")
    if args.format == "csv":
        _emit([hist.to_csv_text()], args.out)
    elif args.format == "json":
        _emit(_json_chunks(hist.to_json_obj(), 2), args.out)
    return EXIT_OK


def cmd_groundstate(args) -> int:
    H = _spec.build_hamiltonian(args.n, max_n=args.max_n)

    def certified(payload) -> _spec.BigIntVector:
        if payload["kind"] != "perron-vector":
            raise ValueError(f"a cached vector of kind {payload['kind']!r}")
        return _spec.certify_perron(H, payload["components"])

    psi = _cached(args.n, "vector", not args.no_cache, certified,
                  lambda: _spec.perron_vector(H))
    print(f"n={args.n}: eigenvector at 2n={2 * args.n} over {H.dim} patterns")
    print(f"  component sum {psi.total()}")
    print(f"  component max {psi.maximum()}")
    if args.format == "json":
        _emit(_json_chunks(psi.to_json_obj(), 2), args.out)
    elif args.format == "csv":
        lines = ["rank,component"]
        lines += [f"{r},{v}" for r, v in enumerate(psi.components)]
        _emit(["\n".join(lines) + "\n"], args.out)
    else:
        _emit([" ".join(str(v) for v in psi.components) + "\n"], args.out)
    if args.with_matrix or args.matrix_out:
        _emit([H.to_coo_text()], args.matrix_out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.n >= LONG_GATE_N and not args.long:
        raise CapacityError(
            f"n={args.n} is a long run (n >= {LONG_GATE_N}); pass --long "
            "to run sizes this large"
        )
    report = _spec.verify_conjecture(args.n, max_n=args.max_n)
    for line in report.summary_lines():
        print(line)
    if args.out:
        _emit(_json_chunks(report.to_json_obj(), 2), args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_sample(args) -> int:
    compare = not args.no_compare and _histogram  # the census via the cache
    rep = _st.sample_stationary(
        args.n,
        burn_in=args.burn_in,
        samples=args.samples,
        seed=args.seed,
        chains=args.chains,
        max_n=args.max_n,
        compare=compare,
        tolerance=args.tolerance,
    )
    print(
        f"n={args.n}: {rep.samples} samples, seed {rep.seed}, "
        f"{rep.chains} chain(s)"
    )
    if rep.tv_distance is not None:
        print(
            f"  tv distance {rep.tv_distance:.6f} vs tolerance "
            f"{rep.tolerance:.6f}: {'pass' if rep.passed else 'FAIL'}"
        )
    _emit(_json_chunks(rep.to_json_obj(), 2), args.out)
    if rep.passed is False:
        return EXIT_FAIL
    return EXIT_OK


def cmd_render(args) -> int:
    if args.pattern is not None:
        p = _pat.LinkPattern.from_text(args.pattern)
        if args.format == "svg":
            _emit([_render.svg_chords(p)], args.out)
        else:
            _emit([p.to_parens() + "\n" + p.to_text() + "\n"], args.out)
        return EXIT_OK
    if args.n is None:
        raise ValueError("render needs --pattern or -n with --index")
    state = _fpl.state_at(args.n, args.index, max_n=args.max_n)
    if args.format == "svg":
        _emit([_render.svg_chords(_fpl.link_pattern_of(state))], args.out)
    else:
        text = _render.ascii_state(state)
        if args.with_asm:
            text += "\n" + _fpl.state_to_asm(state).to_text()
        _emit([text], args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="loopmodel",
        description="Grid-loop census and exact eigenvector verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def ignored_workers(p):
        # The census runs in one process (a split level cannot merge its
        # sweep states); --workers still parses so existing command lines work.
        p.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)

    def common(p):
        p.add_argument("-n", type=int, required=True, help="grid size")
        ignored_workers(p)
        p.add_argument("--out", default=None,
                       help="artifact path ('-' for stdout, the default)")

    def no_cache(p, text="skip reading and writing the artifact cache"):
        p.add_argument("--no-cache", action="store_true", help=text)

    def max_n(p):
        p.add_argument("--max-n", type=int, default=None,
                       help=f"raise the size ceiling (default {_pat.MAX_N})")

    p = sub.add_parser("enumerate", help="census of states per link pattern")
    common(p)
    no_cache(p)
    max_n(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("groundstate", help="exact top eigenvector of the operator sum")
    common(p)
    no_cache(p)
    max_n(p)
    p.add_argument("--format", choices=("csv", "json", "text"), default="json")
    p.add_argument("--with-matrix", action="store_true",
                   help="also write the matrix in coordinate text form")
    p.add_argument("--matrix-out", default=None,
                   help="write the matrix here; implies --with-matrix")
    p.set_defaults(func=cmd_groundstate)

    p = sub.add_parser("verify", help="census versus eigenvector, full report")
    common(p)
    no_cache(p, "ignored: verify always computes afresh and caches nothing")
    max_n(p)
    p.add_argument("--long", action="store_true",
                   help="allow long runs (n >= 8)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="Markov-chain sampler for the stationary law")
    common(p)
    max_n(p)
    p.add_argument("--chains", type=int, default=1,
                   help="independently seeded chains sharing the samples (default 1)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (echoed)")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--tolerance", type=float, default=None,
                   help="TV pass threshold (default 3x worst-case SE)")
    p.add_argument("--no-compare", action="store_true",
                   help="skip the exact-law comparison")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("render", help="draw a state (ASCII) or pattern (SVG)")
    p.add_argument("-n", type=int, default=None, help="grid size for --index")
    ignored_workers(p)
    max_n(p)
    p.add_argument("--index", type=int, default=0,
                   help="state index in enumeration order (default 0)")
    p.add_argument("--pattern", default=None,
                   help='pattern text like "2 1 4 3" (renders chords)')
    p.add_argument("--format", choices=("text", "svg"), default="text")
    p.add_argument("--with-asm", action="store_true",
                   help="append the alternating-sign matrix to ASCII output")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ConjectureViolation as exc:
        print(f"violation: {exc} {exc.details}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
