"""Return sets of an orbit to a polynomial subvariety, and their
decomposition into arithmetic progressions plus a sporadic residual.

Membership is exact: a point lies on the subvariety iff every defining
polynomial evaluates to exactly zero.  The decomposer is a horizon-bounded
greedy heuristic: it only declares a progression when the progression's
terms are all hits, it has at least min_terms of them, and it reaches
within one difference of the horizon (so it plausibly continues).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, InvalidParameter, OrbitUndefined
from .poly import Polynomial, RationalMap
from .orbit import iterate_states


@dataclass(frozen=True)
class Subvariety:
    """Common zero locus of finitely many polynomials."""

    equations: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.equations:
            raise InvalidParameter("a subvariety needs at least one equation")
        vars0 = self.equations[0].variables
        for eq in self.equations:
            if eq.variables != vars0:
                raise DimensionMismatch("equations must share one variable list")

    @property
    def variables(self) -> tuple[str, ...]:
        return self.equations[0].variables


def return_set(
    phi: RationalMap,
    start: Sequence[Fraction],
    subvariety: Subvariety,
    horizon: int,
) -> list[int]:
    """Sorted indices n <= horizon with the n-th orbit point on the subvariety.

    Raises OrbitUndefined(n) when iteration leaves the affine chart before
    the horizon.
    """
    if subvariety.variables != phi.variables:
        raise DimensionMismatch("subvariety and map must share a variable list")
    states, stopped_at = iterate_states(phi, start, horizon)
    if stopped_at is not None:
        raise OrbitUndefined(stopped_at, "orbit left the affine chart")
    equations = subvariety.equations
    return [n for n, s in enumerate(states) if all(eq.pair_at(s)[0] == 0 for eq in equations)]


@dataclass(frozen=True)
class Progression:
    a: int
    d: int

    def terms_up_to(self, horizon: int) -> list[int]:
        return list(range(self.a, horizon + 1, self.d))


@dataclass(frozen=True)
class ReturnDecomposition:
    horizon: int
    hits: tuple[int, ...]
    progressions: tuple[Progression, ...]
    residual: tuple[int, ...]
    residual_prefix_density: Fraction

    def to_json(self) -> str:
        payload = {
            "hits": list(self.hits),
            "progressions": [{"a": p.a, "d": p.d} for p in self.progressions],
            "residual": list(self.residual),
            "residual_density": str(self.residual_prefix_density),
        }
        return json.dumps(payload)


def ap_decompose(hits: Sequence[int], horizon: int, min_terms: int = 5) -> ReturnDecomposition:
    """Greedy progression extraction from a hit set.

    Repeatedly removes the progression (a, d) with the smallest difference
    (ties: smallest start) whose terms up to the horizon are all present,
    number at least min_terms, and reach past horizon - d; whatever remains
    is the residual, reported with its prefix density |residual|/(N+1).

    One pass over (d, a) in lexicographic order finds the same progressions:
    a pair qualifies only if all its terms remain, and removing terms never
    adds any, so a pair that failed once fails for good, and each pair taken
    is the least one qualifying at that point.  The pass ends when no hit
    remains or no start a <= horizon - (min_terms - 1)*d is left.  Terms run
    to the horizon, so the continuation rule holds by construction.
    """
    if min_terms < 3:
        raise InvalidParameter("min_terms must be at least 3")
    hit_list = sorted(set(hits))
    if hit_list and (hit_list[0] < 0 or hit_list[-1] > horizon):
        raise InvalidParameter("hits must lie in [0, horizon]")
    remaining = set(hit_list)
    progressions: list[Progression] = []
    d = 1
    while remaining and (last_start := horizon - (min_terms - 1) * d) >= 0:
        for a in sorted(x for x in remaining if x <= last_start):
            terms = range(a, horizon + 1, d)
            if remaining.issuperset(terms):
                progressions.append(Progression(a=a, d=d))
                remaining.difference_update(terms)
        d += 1
    residual = tuple(sorted(remaining))
    return ReturnDecomposition(
        horizon=horizon,
        hits=tuple(hit_list),
        progressions=tuple(progressions),
        residual=residual,
        residual_prefix_density=Fraction(len(residual), horizon + 1),
    )
