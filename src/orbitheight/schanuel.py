"""Counting points of P^n(Q) of bounded multiplicative height.

N(B) is the exact number of primitive integer vectors of length n+1 with
max|coord| <= B, up to sign.  `count_points` computes it by a recursion over
the O(sqrt B) quotients floor(B/g), in O(B^(3/4)) time and O(sqrt B) memory
(`count_points_mobius`).  Enumeration is only an independent oracle
(`count_points_oracle`, and the box walks in the tests) that the count is
checked against.  The analytic comparison constant 2^n / zeta(n+1) is the
empirical benchmark the ratios N(B)/B^(n+1) are displayed against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetExceeded, InvalidParameter
from .exact import report_csv

DEFAULT_BUDGET = 10**9
# largest n whose ratio N(B)/B^(n+1) fits a double: (3^(n+1) - 1)/2 at B = 1
MAX_DIMENSION = 645


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
    """Exact N(B) for P^n(Q) by the quotient recursion of `count_points_mobius`.

    `budget` caps the box size (2B+1)^(n+1) and is checked before any work,
    by bit lengths where they decide it, so an oversized box is never built;
    the count itself takes O(B^(3/4)) time and O(sqrt B) memory, far below
    the box.  `threads` is validated but the count is sequential, so the
    result cannot depend on it.
    """
    if not 1 <= n <= MAX_DIMENSION:
        raise InvalidParameter(f"projective dimension must lie in [1, {MAX_DIMENSION}]")
    if bound < 1:
        raise InvalidParameter("height bound must be >= 1")
    if threads < 1:
        raise InvalidParameter("threads must be >= 1")
    k = n + 1
    side = 2 * bound + 1
    # side^k >= 2^(k * (bits - 1)), which exceeds budget once that many bits do
    if k * (side.bit_length() - 1) >= budget.bit_length() or side**k > budget:
        raise BudgetExceeded(budget)
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
    """N(B) by the recursion N(x) = F(x) - sum_{g=2..x} N(floor(x/g)).

    F(x) = ((2x+1)^(n+1) - 1) / 2 counts the nonzero vectors of [-x, x]^(n+1)
    up to sign, and each is g times a primitive vector of height <= x/g, g
    its gcd: F(x) = sum_{g>=1} N(floor(x/g)), whose Moebius inversion is the
    classical mu-sum.  N(x) is found in increasing x over the O(sqrt B)
    values floor(B/m), m <= sqrt B, and 1..sqrt B, a set that holds every
    floor(x/g) of its members.  The g sharing one quotient q = floor(x/g)
    form the block g..floor(x/q): O(B^(3/4)) time and O(sqrt B) memory.
    """
    if n < 1 or bound < 1:
        raise InvalidParameter("need n >= 1 and bound >= 1")
    k = n + 1
    r = math.isqrt(bound)
    known: dict[int, int] = {}
    for x in sorted({bound // m for m in range(1, r + 1)} | set(range(1, r + 1))):
        total = ((2 * x + 1) ** k - 1) // 2
        g = 2
        while g <= x:
            q = x // g
            end = x // q
            total -= (end - g + 1) * known[q]
            g = end + 1
        known[x] = total
    return known[bound]


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
) -> SchanuelFit:
    """Counts at each bound alongside the analytic comparison constant."""
    if not bounds:
        raise InvalidParameter("need at least one bound")
    reports = tuple(count_points(n, b, budget=budget) for b in bounds)
    return SchanuelFit(n=n, reports=reports, constant=analytic_constant(n))


def fit_to_csv(fit: SchanuelFit) -> str:
    """CSV with columns B, count, ratio, kappa_fit, analytic_constant."""
    return report_csv(("B", "count", "ratio", "kappa_fit", "analytic_constant"), (
        (
            str(rep.B),
            str(rep.count),
            f"{rep.ratio:.6f}",
            "" if rep.kappa_fit is None else f"{rep.kappa_fit:.6f}",
            f"{fit.constant:.6f}",
        )
        for rep in fit.reports
    ))
