"""Hot counting kernels: primitive integer vectors in a box.

The inner loop of projective point counting — enumerate v in [-B, B]^k and
keep the coprime ones — dominates the package's runtime, so it is compiled
with numba when available.  A pure-numpy path computes the same counts with
chunked vectorized gcds; select it explicitly with

    ORBITHEIGHT_BACKEND=numpy

(or =numba to insist on the JIT, failing loudly if numba is missing).  The
default is numba when importable, numpy otherwise.  Both paths return
identical exact integer counts; `benchmarks/bench_schanuel.py` compares
their speed.

Kernels count raw coprime vectors (v and -v both counted) over a range of
the leading digit, so callers can partition work across threads; integer
partial sums make the total independent of the chunking.
"""

from __future__ import annotations

import os

_CHUNK = 1 << 22  # elements per vectorized block in the numpy path

BACKEND_ENV = "ORBITHEIGHT_BACKEND"

_requested = os.environ.get(BACKEND_ENV, "").strip().lower()
if _requested not in ("", "numba", "numpy"):
    raise RuntimeError(
        f"{BACKEND_ENV} must be 'numba' or 'numpy', got {_requested!r}"
    )

if _requested == "numpy":
    HAS_NUMBA = False
else:
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:
        if _requested == "numba":
            raise
        HAS_NUMBA = False

BACKEND = "numba" if HAS_NUMBA else "numpy"


def _count_coprime_range_py(k: int, box: int, d0_lo: int, d0_hi: int) -> int:
    """Count v in [-box, box]^k, leading digit in [d0_lo, d0_hi), gcd|v| = 1.

    Digits run over [0, 2*box]; coordinate = digit - box.  The zero vector
    never counts (gcd 0).  Shared reference logic for both backends.
    """
    m = 2 * box + 1
    if k == 1:
        total = 0
        for d0 in range(d0_lo, d0_hi):
            c = d0 - box
            if c == 1 or c == -1:
                total += 1
        return total
    mid = m ** (k - 2)
    total = 0
    for d0 in range(d0_lo, d0_hi):
        c0 = d0 - box
        g0 = -c0 if c0 < 0 else c0
        for t in range(mid):
            g = g0
            tt = t
            for _ in range(k - 2):
                c = tt % m - box
                tt //= m
                if c < 0:
                    c = -c
                while c:
                    g, c = c, g % c
            if g == 1:
                total += m
            else:
                for d in range(m):
                    c = d - box
                    if c < 0:
                        c = -c
                    a, b = g, c
                    while b:
                        a, b = b, a % b
                    if a == 1:
                        total += 1
    return total


if HAS_NUMBA:
    count_coprime_range_njit = njit(cache=True, nogil=True)(_count_coprime_range_py)


def count_coprime_range_numpy(k: int, box: int, d0_lo: int, d0_hi: int) -> int:
    """Same count as the njit kernel, via chunked vectorized gcds.

    Prefix gcds are expanded one digit at a time; prefixes that already hit
    gcd 1 contribute a closed-form block count and leave the working set.
    """
    import numpy as np  # deferred: jobs that count no points never load numpy

    m = 2 * box + 1
    absc = np.abs(np.arange(m, dtype=np.int64) - box)

    def expand(g: np.ndarray, digits_done: int) -> int:
        remaining = k - digits_done
        ones = int(np.count_nonzero(g == 1))
        total = ones * m**remaining
        g = g[g != 1]
        if g.size == 0:
            return total
        if remaining == 1:
            step = max(1, _CHUNK // m)
            for i in range(0, g.size, step):
                blk = g[i : i + step]
                total += int(np.count_nonzero(np.gcd(blk[:, None], absc[None, :]) == 1))
            return total
        step = max(1, _CHUNK // m)
        for i in range(0, g.size, step):
            blk = g[i : i + step]
            total += expand(np.gcd(blk[:, None], absc[None, :]).ravel(), digits_done + 1)
        return total

    lead = np.abs(np.arange(d0_lo, d0_hi, dtype=np.int64) - box)
    if k == 1:
        return int(np.count_nonzero(lead == 1))
    return expand(lead, 1)


def count_coprime_range(k: int, box: int, d0_lo: int, d0_hi: int) -> int:
    """Dispatch to the active backend."""
    if HAS_NUMBA:
        return int(count_coprime_range_njit(k, box, d0_lo, d0_hi))
    return count_coprime_range_numpy(k, box, d0_lo, d0_hi)
