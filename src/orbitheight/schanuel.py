"""Counting points of P^n(Q) of bounded multiplicative height.

N(B) is the exact number of primitive integer vectors of length n+1 with
max|coord| <= B, up to sign.  Direct enumeration (see kernels) is the
trust anchor; a Moebius-inversion fast path is provided separately and
cross-checked in tests, never silently substituted.  The analytic
comparison constant 2^n / zeta(n+1) is the empirical benchmark the ratios
N(B)/B^(n+1) are displayed against.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetExceeded, InvalidParameter
from .kernels import count_coprime_range

DEFAULT_BUDGET = 10**9

_ZETA_TERMS = 10**6


@dataclass(frozen=True)
class CountReport:
    """Exact count at one bound, with the two derived ratios.

    kappa_fit = log N(B) / log B is undefined at B = 1 and reported as None
    there.
    """

    n: int
    B: int
    count: int
    ratio: float
    kappa_fit: Optional[float]


def count_points(
    n: int,
    bound: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> CountReport:
    """Exact N(B) for P^n(Q) by direct enumeration.

    Enumerates the box [-B, B]^(n+1), keeps vectors with coprime
    coordinates, and identifies v with -v.  Work is split over fixed
    leading-digit chunks whose integer subtotals are summed, so the result
    does not depend on the number of threads.
    """
    if n < 1:
        raise InvalidParameter("projective dimension must be >= 1")
    if bound < 1:
        raise InvalidParameter("height bound must be >= 1")
    if threads < 1:
        raise InvalidParameter("threads must be >= 1")
    k = n + 1
    m = 2 * bound + 1
    needed = m**k
    if needed > budget:
        raise BudgetExceeded(needed, budget)
    # chunking is fixed by the problem size, not by the worker count
    n_chunks = min(m, 64)
    edges = [round(i * m / n_chunks) for i in range(n_chunks + 1)]
    ranges = [
        (edges[i], edges[i + 1]) for i in range(n_chunks) if edges[i] < edges[i + 1]
    ]
    if threads == 1:
        raw = sum(count_coprime_range(k, bound, lo, hi) for lo, hi in ranges)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            raw = sum(
                pool.map(lambda r: count_coprime_range(k, bound, r[0], r[1]), ranges)
            )
    count = raw // 2  # v and -v were both enumerated; v = -v never happens
    return CountReport(
        n=n,
        B=bound,
        count=count,
        ratio=count / bound**k,
        kappa_fit=None if bound == 1 else math.log(count) / math.log(bound),
    )


def count_points_oracle(n: int, bound: int) -> int:
    """Naive reference count: explicit box walk with gcd and sign checks.

    Only meant for small bounds; tests cross-check the kernels against it.
    """
    from itertools import product
    from math import gcd

    k = n + 1
    count = 0
    for vec in product(range(-bound, bound + 1), repeat=k):
        g = 0
        for c in vec:
            g = gcd(g, abs(c))
        if g != 1:
            continue
        for c in vec:
            if c != 0:
                if c > 0:
                    count += 1
                break
    return count


def count_points_mobius(n: int, bound: int) -> int:
    """Moebius-inversion fast path for N(B).

    Sums mu(g) * ((2*floor(B/g)+1)^(n+1) - 1) / 2 over g <= B.  Optional:
    enumeration remains the default; tests assert both agree.
    """
    if n < 1 or bound < 1:
        raise InvalidParameter("need n >= 1 and bound >= 1")
    mu = _mobius_sieve(bound)
    k = n + 1
    total = 0
    for g in range(1, bound + 1):
        if mu[g] == 0:
            continue
        boxed = (2 * (bound // g) + 1) ** k - 1
        total += mu[g] * boxed
    return total // 2


def _mobius_sieve(limit: int):
    import numpy as np  # deferred, as in kernels

    mu = np.ones(limit + 1, dtype=np.int64)
    primes_mask = np.ones(limit + 1, dtype=bool)
    for p in range(2, limit + 1):
        if primes_mask[p]:
            primes_mask[2 * p :: p] = False
            mu[p::p] *= -1
            sq = p * p
            if sq <= limit:
                mu[sq::sq] = 0
    return mu


def zeta(s: int, terms: int = _ZETA_TERMS) -> float:
    """zeta(s) for integer s >= 2 by direct summation plus integral tail.

    Adds the Euler-Maclaurin tail M^(1-s)/(s-1) + M^(-s)/2 after M terms;
    for M = 10^6 and s >= 2 the remaining error is below 1e-9 (the next
    correction term is s/(12 M^(s+1))).
    """
    if s < 2:
        raise InvalidParameter("zeta is summed directly only for s >= 2")
    import numpy as np  # deferred, as in kernels

    j = np.arange(1, terms + 1, dtype=np.float64)
    partial = float(np.sum(j ** (-float(s))))
    tail = terms ** (1 - s) / (s - 1) + 0.5 * terms ** (-s)
    return partial + tail


def analytic_constant(n: int) -> float:
    """The empirical comparison constant 2^n / zeta(n+1) for ratios N(B)/B^(n+1)."""
    return 2**n / zeta(n + 1)


@dataclass(frozen=True)
class SchanuelFit:
    n: int
    reports: tuple[CountReport, ...]
    constant: float


def schanuel_fit(
    n: int,
    bounds: Sequence[int],
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> SchanuelFit:
    """Counts at each bound alongside the analytic comparison constant."""
    if not bounds:
        raise InvalidParameter("need at least one bound")
    reports = tuple(
        count_points(n, b, budget=budget, threads=threads) for b in bounds
    )
    return SchanuelFit(n=n, reports=reports, constant=analytic_constant(n))


def fit_to_csv(fit: SchanuelFit) -> str:
    """CSV with columns B, count, ratio, kappa_fit, analytic_constant."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["B", "count", "ratio", "kappa_fit", "analytic_constant"])
    for rep in fit.reports:
        writer.writerow(
            [
                rep.B,
                rep.count,
                f"{rep.ratio:.6f}",
                "" if rep.kappa_fit is None else f"{rep.kappa_fit:.6f}",
                f"{fit.constant:.6f}",
            ]
        )
    return buf.getvalue()
