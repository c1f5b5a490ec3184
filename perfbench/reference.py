"""Fixed reference programs: the benchmark's yardsticks for machine speed.

Usage: python3 perfbench/reference.py interp|numpy

On a shared machine the speed of a core drifts by tens of percent over
tens of seconds.  The benchmark runs one of these programs as a fresh
child between the timed CLI runs and scales each CLI run by the
reference runs around it (run.py).  Interpreter-bound and array-bound
work drift differently, so there are two kernels:

  interp  merging a dict of tuple keys with multiplicities, as the census
          sweep does, then a modular integer recurrence, as the sampler
          does;
  numpy   the first pivot steps of an int64 elimination modulo a prime
          on a 1430 x 1430 matrix, as the modular eigenvector does at n=8.

Neither imports loopmodel, so no change to the program can move them.
"""
import sys


def interp() -> bool:
    level = {(0, (0,) * 8): 1}
    for step in range(9):
        nxt: dict = {}
        for (v, frontier), mult in level.items():
            for d in range(4):
                v2 = (v * 5 + d + step) % 211
                key = (v2, tuple((x + d * i + v2) % 13 for i, x in enumerate(frontier)))
                nxt[key] = nxt.get(key, 0) + mult
        level = dict(list(nxt.items())[:40000])
    acc = 0
    for i in range(600_000):
        acc = (acc * 31 + i) % 2147483647
    return bool(level) and acc != 0


def numpy() -> bool:
    import numpy as np

    p = 2147483647
    d = 1430
    M = np.random.default_rng(12345).integers(0, p, size=(d, d), dtype=np.int64)
    for r in range(24):
        inv = pow(int(M[r, r]) or 1, p - 2, p)
        M[r, r:] = (M[r, r:] * inv) % p
        below = M[r + 1:, r]
        nzb = np.nonzero(below)[0]
        M[r + 1 + nzb, r:] = (M[r + 1 + nzb, r:] - np.outer(below[nzb], M[r, r:])) % p
    return int(M[r, r]) == 1


KERNELS = {"interp": interp, "numpy": numpy}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in KERNELS:
        sys.exit(f"usage: reference.py {'|'.join(KERNELS)}")
    sys.exit(0 if KERNELS[sys.argv[1]]() else 1)
