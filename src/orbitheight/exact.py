"""Exact rationals, primitive projective coordinates over Q, and Weil heights.

A point of P^n(Q) is stored as a tuple of coprime integers with the first
nonzero coordinate positive, so v and -v share one representative.  On such
coordinates the absolute logarithmic Weil height is log max|x_i|, computed
here in double precision (>= 50 bits relative); every comparison that must
be exact (h = 0, h(a) = h(b), additivity of products) is done on the
integers themselves, never on the logs.

The exact core runs on integers: hot loops carry an affine rational as a
reduced int pair (numerator, denominator > 0) and spend at most one gcd per
output value, in one method, the compiled form's `value` (:mod:`poly`).
Where it knows the resultant R of its numerator and denominator, that gcd
divides R: it is taken on residues mod R, in time linear in the value, and
skipped when |R| = 1.
`fractions.Fraction` appears only at the boundary, in parsed start points
and initial terms and in public return types; polynomial coefficients are
ints, and a rational constant is the num/den of a rational function.
Exact values in report text go through :func:`format_int`, and every CSV
report is joined by :func:`report_csv` from rows of str fields.  The same
rule holds for P^1 values: orbit traces and grids keep them as canonical
pairs (p, q) with heights from :func:`height_pair`, and build `P1Value`
objects only for the rows read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import AllZero, ValueTooLarge

Rational = Fraction


def format_int(n: int) -> str:
    """Decimal text of an exact integer; ValueTooLarge past the int-to-str limit."""
    try:
        return str(n)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ValueTooLarge(
            f"an exact value of {n.bit_length()} bits has more than {limit} decimal "
            "digits, the interpreter's int-to-str limit (raise it with "
            "PYTHONINTMAXSTRDIGITS)"
        ) from exc


def format_ratio(num: int, den: int) -> str:
    """Serialize the reduced pair num/den as "p/q", or "p" when den is 1."""
    return format_int(num) if den == 1 else f"{format_int(num)}/{format_int(den)}"


def report_csv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Comma-separated text of a header and rows, each a sequence of two or
    more str fields, one line per row ending in "\\n".  Rows are consumed as
    they are produced, and each line is checked by counting its commas, not
    character by character: a field holding "," is quoted as
    `csv.QUOTE_MINIMAL` quotes it, and a field holding '"', "\\r" or "\\n"
    raises ValueError.
    """
    quoted = 0
    lines = []
    for row in chain((header,), rows):
        line = ",".join(row)
        if line.count(",") >= len(row):
            quoted += sum("," in f for f in row)
            line = ",".join([f'"{f}"' if "," in f else f for f in row])
        lines.append(line)
    lines.append("")
    text = "\n".join(lines)
    if text.count("\n") != len(lines) - 1 or text.count('"') != 2 * quoted or "\r" in text:
        raise ValueError('a report field holds \'"\', "\\r" or "\\n"')
    return text


def as_pair(q) -> tuple[int, int]:
    """Reduced (numerator, denominator > 0) of an int, a Fraction, or any
    other input the `Fraction` constructor accepts."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    return q.numerator, q.denominator


@dataclass(frozen=True)
class PrimitiveVector:
    """Coprime integer coordinates of a point of P^n(Q), sign-canonical."""

    coords: tuple[int, ...]

    def __post_init__(self):
        if not self.coords:
            raise AllZero("empty coordinate list")
        g = gcd(*self.coords)
        if g == 0:
            raise AllZero("all projective coordinates are zero")
        if g != 1:
            raise ValueError(f"coordinates not coprime (gcd {g}): {self.coords}")
        if next(c for c in self.coords if c) < 0:
            raise ValueError("first nonzero coordinate must be positive")

    @classmethod
    def _trusted(cls, coords: tuple[int, ...]):
        """Internal constructor for coordinates known to be canonical: no checks."""
        self = object.__new__(cls)
        object.__setattr__(self, "coords", coords)
        return self

    def __str__(self) -> str:
        return "(" + ":".join(format_int(c) for c in self.coords) + ")"

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def max_abs(self) -> int:
        return max(map(abs, self.coords))


class P1Value(PrimitiveVector):
    """A point of P^1(Q): the affine value a/b, or infinity when b = 0."""

    def __post_init__(self):
        super().__post_init__()
        if len(self.coords) != 2:
            raise ValueError("P1Value needs exactly two coordinates")

    @property
    def is_infinity(self) -> bool:
        return self.coords[1] == 0

    def as_fraction(self) -> Fraction:
        if self.is_infinity:
            raise ZeroDivisionError("point at infinity has no affine value")
        return Fraction(self.coords[0], self.coords[1])


def normalize_projective(raw: Sequence[Fraction | int]) -> PrimitiveVector:
    """Canonical primitive representative of a projective point over Q.

    Clears denominators, divides out the gcd, and flips sign so the first
    nonzero coordinate is positive.  Raises :class:`AllZero` when every
    entry vanishes.
    """
    nums = list(raw)
    if not all(type(c) is int for c in nums):
        values = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in nums]
        scale = lcm(*[q.denominator for q in values])
        nums = [q.numerator * (scale // q.denominator) for q in values]
    g = gcd(*nums)
    if g == 0:
        raise AllZero("all projective coordinates are zero")
    for c in nums:
        if c:
            if c < 0:
                g = -g
            break
    return PrimitiveVector._trusted(tuple(nums) if g == 1 else tuple([c // g for c in nums]))


def height_pair(p: int, q: int) -> float:
    """Height log max(|p|, |q|) of (p : q) in P^1, for coprime ints of any size."""
    return math.log(max(abs(p), abs(q)))


def height_projective(point: PrimitiveVector) -> float:
    """Absolute logarithmic Weil height: log max|x_i| on primitive coords."""
    return math.log(point.max_abs())


def height_rational(q: Fraction) -> float:
    """Height of an affine rational value, i.e. of (numerator : denominator)."""
    return height_pair(q.numerator, q.denominator)


def segre_product(p: PrimitiveVector, q: PrimitiveVector) -> PrimitiveVector:
    """All pairwise coordinate products p_i*q_j in row-major order.

    The product of two primitive integer vectors is again primitive, and
    the sign convention is preserved, so heights add exactly:
    max|p_i q_j| = max|p_i| * max|q_j|.
    """
    return PrimitiveVector._trusted(tuple([a * b for a in p.coords for b in q.coords]))
