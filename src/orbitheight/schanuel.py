"""Counting points of P^n(Q) of bounded multiplicative height.

N(B) is the exact number of primitive integer vectors of length n+1 with
max|coord| <= B, up to sign.  `count_points` computes it by integer
Moebius inversion.  This withdraws the earlier promise that the Moebius
path is "never silently substituted" for direct enumeration: enumeration
is now only an independent oracle (`count_points_oracle`, and the box
walks in the tests) that the count is checked against.  The analytic
comparison constant 2^n / zeta(n+1) is the empirical benchmark the ratios
N(B)/B^(n+1) are displayed against.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetExceeded, InvalidParameter

DEFAULT_BUDGET = 10**9


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
    """Exact N(B) for P^n(Q) by Moebius inversion (see `count_points_mobius`).

    `budget` caps the box size (2B+1)^(n+1) and is checked before any work,
    so it also bounds the sieve's O(B) memory.  `threads` is validated but
    the count is sequential, so the result cannot depend on it.
    """
    if n < 1:
        raise InvalidParameter("projective dimension must be >= 1")
    if bound < 1:
        raise InvalidParameter("height bound must be >= 1")
    if threads < 1:
        raise InvalidParameter("threads must be >= 1")
    k = n + 1
    needed = (2 * bound + 1) ** k
    if needed > budget:
        raise BudgetExceeded(needed, budget)
    count = count_points_mobius(n, bound)
    return CountReport(
        n=n,
        B=bound,
        count=count,
        ratio=count / bound**k,
        kappa_fit=None if bound == 1 else math.log(count) / math.log(bound),
    )


def count_points_oracle(n: int, bound: int) -> int:
    """Naive reference count: explicit box walk with gcd and sign checks.

    Only meant for small bounds; tests cross-check `count_points` against it.
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
    """N(B) as sum over g <= B of mu(g) * ((2*floor(B/g)+1)^(n+1) - 1) / 2.

    The nonzero vectors of [-B, B]^(n+1) whose gcd is a multiple of g are
    g times the nonzero vectors of [-B/g, B/g]^(n+1); Moebius inversion
    keeps the gcd-1 ones, and halving identifies v with -v.
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


def _mobius_sieve(limit: int) -> list[int]:
    """mu(g) at index g for 1 <= g <= limit, by a sieve of Eratosthenes."""
    mu = [1] * (limit + 1)
    composite = bytearray(limit + 1)
    for p in range(2, limit + 1):
        if composite[p]:
            continue
        composite[p * p :: p] = b"\x01" * len(range(p * p, limit + 1, p))
        for m in range(p, limit + 1, p):
            mu[m] = -mu[m]
        for m in range(p * p, limit + 1, p * p):
            mu[m] = 0
    return mu


_EM_CUTOFF = 20
# B_2k / (2k)! for k = 1..7, the Euler-Maclaurin correction coefficients
_EM_COEFFS = (
    1 / 12, -1 / 720, 1 / 30240, -1 / 1209600,
    1 / 47900160, -691 / 1307674368000, 1 / 74724249600,
)


def zeta(s: int) -> float:
    """zeta(s) for integer s >= 2 by Euler-Maclaurin summation.

    Sums j^(-s) for j < M = 20 directly, adds the tail M^(1-s)/(s-1) +
    M^(-s)/2, and the seven Bernoulli corrections
    B_2k/(2k)! * s(s+1)...(s+2k-2) * M^(1-s-2k), all through `math.fsum`.
    For real s the remainder is at most the first omitted term,
    |B_16|/16! * s(s+1)...(s+14) * M^(-s-15) (Edwards, Riemann's Zeta
    Function, 6.4): below 6e-22 at s = 2 and smaller for every larger s,
    so the result is within a few units in the last place of zeta(s).
    """
    if s < 2:
        raise InvalidParameter("zeta is summed directly only for s >= 2")
    m = _EM_CUTOFF
    tail = m ** -s
    terms = [j ** -s for j in range(1, m)]
    terms += [m * tail / (s - 1), tail / 2]
    rising = s * tail / m  # s(s+1)...(s+2k-2) * M^(1-s-2k) at k = 1
    for k, coeff in enumerate(_EM_COEFFS):
        terms.append(coeff * rising)
        rising *= (s + 2 * k + 1) * (s + 2 * k + 2) / (m * m)
    return math.fsum(terms)


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
