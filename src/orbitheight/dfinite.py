"""P-recursive sequences: exact expansion, growth classification, encoding.

A recurrence of order r is sum_{k=0}^{r} p_k(n) * a_{n+k} = 0 with
polynomial coefficients over Q, applied from an offset index.  It is a
rational self-map on (t, v_0, ..., v_{r-1}) whose observable projects to
v_0, so orbit machinery applies to coefficient sequences directly.

Terms are expanded as exact rationals by that map: each computed term is
one :func:`orbit.step` of its last component, so the recurrence has one
implementation.  Indices where the trailing coefficient vanishes (singular
indices) are those where that step is undefined, and must have their next
term supplied explicitly.  For the orbit of :func:`encode_as_dynamics`,
the start index is pushed past the last singular index so the orbit never
meets the locus p_r(t) = 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    HorizonTooShort,
    InvalidParameter,
    MissingInitialTerm,
    MissingSingularTerm,
)
from .exact import as_pair, height_pair, parse_rational
from .orbit import step
from .poly import Polynomial, RationalFunction, RationalMap, parse_polynomial


@dataclass(frozen=True)
class PRecurrence:
    """Order-r linear recurrence with polynomial coefficients in n."""

    order: int
    coeffs: tuple[Polynomial, ...]  # p_0 .. p_r, univariate in n
    initial_terms: dict[int, Fraction]
    offset: int = 0

    def __post_init__(self):
        if self.order < 1:
            raise InvalidParameter("recurrence order must be >= 1")
        if len(self.coeffs) != self.order + 1:
            raise InvalidParameter(
                f"expected {self.order + 1} coefficient polynomials, got {len(self.coeffs)}"
            )
        if self.coeffs[-1].is_zero():
            raise InvalidParameter("trailing coefficient must not be identically zero")

    def singular_indices(self) -> list[int]:
        """All n >= offset with p_r(n) = 0 (finite: integer roots of p_r)."""
        p = self.coeffs[-1]
        if len(p.variables) != 1:
            raise InvalidParameter("coefficients must be univariate")
        return sorted(
            m for m in _root_floors(p) if m >= self.offset and _at(p, m) == 0
        )

    def check_terms(self, n_max: int) -> None:
        """Raise for the first term that expanding a_0..a_n_max needs and
        `initial_terms` lacks: MissingInitialTerm for an index below offset +
        order, MissingSingularTerm(s) for a_{s + order} at a singular index s."""
        for n in range(min(self.offset + self.order, n_max + 1)):
            if n not in self.initial_terms:
                raise MissingInitialTerm(n)
        for s in self.singular_indices():
            if s + self.order <= n_max and s + self.order not in self.initial_terms:
                raise MissingSingularTerm(s)


def _at(p: Polynomial, m: int) -> int:
    """The univariate p at the integer m, summed directly: a build-time check
    evaluates p a few times, fewer than would repay compiling its form."""
    return sum(c * m**e for (e,), c in p.terms.items())


def _root_floors(p: Polynomial) -> set[int]:
    """Integers holding floor(x) for each real root x of the nonzero univariate
    p, found in time polynomial in its degree and coefficient bit size.

    The roots lie inside the Cauchy bound B = 2 + max|c_i| // |c_d|.  With b
    < b' the floors of consecutive real roots of p' (this routine on p'), p
    is monotone on [b + 1, b'], so bisection on its sign finds its one root
    there; any other root lies in some [b, b + 1).
    """
    d = max(e for e, in p.terms)
    if d == 0:
        return set()
    top = abs(p.terms[(d,)])
    bound = 2 + max([abs(c) for (e,), c in p.terms.items() if e < d], default=0) // top
    derivative = Polynomial(p.variables, {(e - 1,): e * c for (e,), c in p.terms.items() if e})
    breaks = sorted(b for b in _root_floors(derivative) if -bound <= b <= bound)
    floors = set(breaks)
    for a, b in zip([-bound] + [x + 1 for x in breaks], breaks + [bound]):
        sign = _at(p, a)
        if a <= b and sign * _at(p, b) <= 0:  # a root in [a, b]
            while b - a > 1 and sign:
                mid = (a + b) // 2
                a, b = (mid, b) if sign * _at(p, mid) > 0 else (a, mid)
            floors.add(b if sign and _at(p, b) == 0 else a)
    return floors


def _recurrence_map(rec: PRecurrence) -> RationalMap:
    """The map (t, v_0, ..., v_{r-1}) -> (t + 1, v_1, ..., v_{r-1},
    -(sum_k p_k(t) v_k) / p_r(t)), which advances the recurrence one index."""
    r = rec.order
    variables = ("t",) + tuple(f"v{k}" for k in range(r))
    coeffs = [p.rename_variables(("t",)) for p in rec.coeffs]

    def lift(p: Polynomial) -> Polynomial:
        return Polynomial(
            variables, {(e[0],) + (0,) * r: c for e, c in p.terms.items()}
        )

    t_poly = Polynomial.variable(variables, "t")
    one = Polynomial.constant(variables, 1)
    comps = [RationalFunction(t_poly + one, one)]
    for k in range(1, r):
        comps.append(
            RationalFunction.from_polynomial(Polynomial.variable(variables, f"v{k}"))
        )
    acc = Polynomial.constant(variables, 0)
    for k in range(r):
        acc = acc + lift(coeffs[k]) * Polynomial.variable(variables, f"v{k}")
    comps.append(RationalFunction(-acc, lift(coeffs[r])))
    return RationalMap(variables, tuple(comps))


def expand_terms(rec: PRecurrence, n_max: int) -> list[Fraction]:
    """Exact terms a_0..a_n_max.

    Terms below offset + order come from initial data; from there each term
    a_{n+r} is one orbit step of the last component of the recurrence map at
    (n, a_n, ..., a_{n+r-1}), except at singular indices, where that step is
    undefined (p_r(n) = 0) and the stored replacement term is used.  A term
    that is needed and not supplied raises before any step
    (`PRecurrence.check_terms`).
    """
    rec.check_terms(n_max)
    r = rec.order
    # reduced (numerator, denominator > 0)
    terms = [as_pair(rec.initial_terms[n]) for n in range(min(rec.offset + r, n_max + 1))]
    phi = _recurrence_map(rec)
    next_term = RationalMap(phi.variables, phi.components[-1:])
    for n in range(rec.offset, n_max + 1 - r):
        value = step(next_term, ((n, 1), *terms[n : n + r]))  # None at a singular index
        terms += value or (as_pair(rec.initial_terms[n + r]),)
    return [Fraction(u, v) for u, v in terms[: n_max + 1]]


def encode_as_dynamics(
    rec: PRecurrence,
) -> tuple[RationalMap, RationalFunction, tuple[Fraction, ...], int]:
    """Rewrite the recurrence as (map, observable, start, valid_from).

    The state (t, v_0, ..., v_{r-1}) models (n, a_n, ..., a_{n+r-1}); the
    map advances it one index, the observable projects to v_0, and the
    start point sits at valid_from = 1 + max singular index (offset when
    there are none), so observed values are a_{valid_from + n}.
    """
    phi = _recurrence_map(rec)
    observable = RationalFunction.from_polynomial(Polynomial.variable(phi.variables, "v0"))
    singular = rec.singular_indices()
    valid_from = (singular[-1] + 1) if singular else rec.offset
    window = expand_terms(rec, valid_from + rec.order - 1)
    start = (Fraction(valid_from),) + tuple(window[valid_from : valid_from + rec.order])
    return phi, observable, start, valid_from


EVENTUALLY_PERIODIC = "eventually-periodic"
HEIGHT_GROWTH = "height-growth"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class GrowthVerdict:
    """Three-way, horizon-bounded classification of a term sequence."""

    kind: str
    epsilon: float
    N0: int
    N: int
    preperiod: Optional[int] = None
    period: Optional[int] = None
    verified_to: Optional[int] = None
    tail_ratio: Optional[float] = None


def _minimal_periodicity(terms: Sequence) -> Optional[tuple[int, int]]:
    """Smallest (preperiod s, period p), lexicographically, with
    a_{n+p} = a_n on all of [s, N-p] and at least one equation checked.

    For each candidate period the least workable preperiod is one past the
    last violation, so the scan is O(N) per period.
    """
    n_last = len(terms) - 1
    best: Optional[tuple[int, int]] = None
    for p in range(1, n_last + 1):
        s = 0
        for m in range(n_last - p, -1, -1):
            if terms[m] != terms[m + p]:
                s = m + 1
                break
        if s <= n_last - p and (best is None or (s, p) < best):
            best = (s, p)
            if best == (0, p):
                break  # no later period can beat (0, p) lexicographically
    if best is None:
        return None
    s, p = best
    return p, s


def classify_height_growth(
    terms: Sequence[Fraction], epsilon: float = 0.5, n0: int = 10
) -> GrowthVerdict:
    """Height-growth dichotomy on an exact term list, up to its horizon.

    Exact periodicity is decided first (it needs no threshold and makes the
    verdict sound as stated); without it, the sup of h(a_n)/log n over the
    tail window [max(n0, ceil(N/2)), N] is compared against epsilon to
    split HeightGrowth from Undecided.  A HeightGrowth verdict therefore
    always carries tail_ratio > epsilon.
    """
    if n0 < 2:
        raise InvalidParameter("n0 must be at least 2")
    n_last = len(terms) - 1
    if n_last <= n0:
        raise HorizonTooShort(f"need terms beyond n0={n0}, have {n_last + 1}")
    pairs = [as_pair(t) for t in terms]  # compared and measured as int pairs
    found = _minimal_periodicity(pairs)
    if found is not None:
        period, preperiod = found
        return GrowthVerdict(
            kind=EVENTUALLY_PERIODIC,
            epsilon=epsilon,
            N0=n0,
            N=n_last,
            preperiod=preperiod,
            period=period,
            verified_to=n_last,
        )
    tail_start = max(n0, math.ceil(n_last / 2))
    tail_ratio = max(
        height_pair(u, v) / math.log(n)
        for n, (u, v) in enumerate(pairs[tail_start:], tail_start)
    )
    if tail_ratio > epsilon:
        return GrowthVerdict(
            kind=HEIGHT_GROWTH,
            epsilon=epsilon,
            N0=n0,
            N=n_last,
            tail_ratio=tail_ratio,
        )
    return GrowthVerdict(kind=UNDECIDED, epsilon=epsilon, N0=n0, N=n_last)


def parse_recurrence_job(data: dict) -> PRecurrence:
    """Recurrence from its JSON job form {"order": r, "coeffs": ["p0(n)", ...,
    "pr(n)"], "initial": {"0": "1", ...}, "offset": 0}, the one reader of it.

    `order` and `offset` >= 0 are JSON integers (not true, 1.7 or "2"),
    `coeffs` are strings (`poly.parse_polynomial`), and `initial` maps
    canonical ASCII decimals (int() would merge "0" with "00" or an
    Arabic-Indic zero) to ASCII rationals written as strings
    (`exact.parse_rational`; a JSON number is already rounded to a double);
    a bad field or term raises InvalidParameter.  Each p_k, an expression in n,
    is scaled by the lcm of their denominators, which keeps the terms and
    makes the coefficients integral.
    """
    order, offset = data.get("order"), data.get("offset", 0)
    texts, initial = data.get("coeffs"), data.get("initial", {})
    if type(order) is not int or type(offset) is not int or offset < 0:
        raise InvalidParameter("'order' must be an integer and 'offset' an integer >= 0")
    if not isinstance(texts, list):
        raise InvalidParameter("'coeffs' must be a list of polynomials in n")
    if not isinstance(initial, dict) or not all(
            isinstance(k, str) and re.fullmatch("0|[1-9][0-9]*", k) and isinstance(v, str)
            for k, v in initial.items()):
        raise InvalidParameter("'initial' must map decimal indices n >= 0 to rational strings")
    parsed = [parse_polynomial(text, ("n",)) for text in texts]
    common = math.lcm(*[den for _, den in parsed])
    coeffs = [num.scale(common // den) for num, den in parsed]
    initial = {int(k): parse_rational(v) for k, v in initial.items()}
    return PRecurrence(order=order, coeffs=tuple(coeffs), initial_terms=initial, offset=offset)
