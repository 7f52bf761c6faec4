"""P-recursive sequences: exact expansion, growth classification, encoding.

A recurrence of order r is sum_{k=0}^{r} p_k(n) * a_{n+k} = 0 with
polynomial coefficients over Q, applied from an offset index.  Terms are
expanded as exact rationals; indices where the trailing coefficient
vanishes (singular indices) must have their next term supplied explicitly.

The same recurrence can be rewritten as a rational self-map on (t, v_0,
..., v_{r-1}) whose observable projects to v_0, so orbit machinery applies
to coefficient sequences directly; the start index is pushed past the last
singular index so the orbit never meets the locus p_r(t) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    HorizonTooShort,
    InvalidParameter,
    MissingInitialTerm,
    MissingSingularTerm,
)
from .exact import as_pair, height_rational, reduced_pair
from .poly import Polynomial, RationalFunction, RationalMap, parse_expression


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
        return sorted(
            r for r in _integer_roots(self.coeffs[-1]) if r >= self.offset
        )


def _integer_roots(p: Polynomial) -> set[int]:
    """Integer roots of a nonzero univariate polynomial, exactly."""
    if len(p.variables) != 1:
        raise InvalidParameter("coefficients must be univariate")
    exps = {e[0] for e in p.terms}
    if not exps:
        return set()
    roots: set[int] = set()
    low = min(exps)
    if low > 0:
        roots.add(0)
    # divide out n^low, then integer roots divide the constant term
    shifted = {e[0] - low: c for e, c in p.terms.items()}
    c0 = abs(int(shifted[0] * math.lcm(*[c.denominator for c in shifted.values()])))
    for d in _divisors(c0):
        for cand in (d, -d):
            if p.evaluate([Fraction(cand)]) == 0:
                roots.add(cand)
    return roots


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def expand_terms(rec: PRecurrence, n_max: int) -> list[Fraction]:
    """Exact terms a_0..a_n_max.

    Terms below offset + order come from initial data; from there each term
    is -(sum_{k<r} p_k(n) a_{n+k}) / p_r(n), except at singular indices
    where the stored replacement term is used.
    """
    r = rec.order
    terms: list[tuple[int, int]] = []  # reduced (numerator, denominator > 0)
    for n in range(min(rec.offset + r, n_max + 1)):
        if n not in rec.initial_terms:
            raise MissingInitialTerm(n)
        terms.append(as_pair(rec.initial_terms[n]))
    for n in range(rec.offset, n_max + 1 - r):
        at_n = ((n, 1),)
        lead_num, lead_den = rec.coeffs[r].pair_at(at_n)
        if lead_num == 0:
            if n + r not in rec.initial_terms:
                raise MissingSingularTerm(n)
            terms.append(as_pair(rec.initial_terms[n + r]))
            continue
        # acc = sum_k p_k(n) a_{n+k} over one common denominator, unreduced
        acc_num, acc_den = 0, 1
        for k in range(r):
            c_num, c_den = rec.coeffs[k].pair_at(at_n)
            u, v = terms[n + k]
            den = c_den * v
            if den == acc_den:
                acc_num += c_num * u
            else:
                acc_num = acc_num * den + c_num * u * acc_den
                acc_den *= den
        terms.append(reduced_pair(-acc_num * lead_den, acc_den * lead_num))
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
    phi = RationalMap(variables, tuple(comps))
    observable = RationalFunction.from_polynomial(Polynomial.variable(variables, "v0"))

    singular = rec.singular_indices()
    valid_from = (singular[-1] + 1) if singular else rec.offset
    window = expand_terms(rec, valid_from + r - 1)
    start = (Fraction(valid_from),) + tuple(window[valid_from : valid_from + r])
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


def _minimal_periodicity(terms: Sequence[Fraction]) -> Optional[tuple[int, int]]:
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
    terms = [Fraction(t) for t in terms]
    found = _minimal_periodicity(terms)
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
        height_rational(terms[n]) / math.log(n)
        for n in range(tail_start, n_last + 1)
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
    """Recurrence from its JSON job form.

    Expected shape: {"order": r, "coeffs": ["p0(n)", ..., "pr(n)"],
    "initial": {"0": "1", ...}, "offset": 0}; coefficient strings use the
    expression grammar with the single variable n.
    """
    order = int(data["order"])
    coeff_texts = data["coeffs"]
    coeffs = []
    for text in coeff_texts:
        rf = parse_expression(str(text), ("n",))
        if not rf.den.is_constant():
            raise InvalidParameter(
                f"coefficient {text!r} is not polynomial in n"
            )
        coeffs.append(rf.num.scale(Fraction(1) / rf.den.constant_value()))
    initial = {
        int(k): Fraction(str(v)) for k, v in data.get("initial", {}).items()
    }
    return PRecurrence(
        order=order,
        coeffs=tuple(coeffs),
        initial_terms=initial,
        offset=int(data.get("offset", 0)),
    )
