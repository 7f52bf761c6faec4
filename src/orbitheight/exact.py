"""Exact rationals, primitive projective coordinates over Q, and Weil heights.

A point of P^n(Q) is stored as a tuple of coprime integers with the first
nonzero coordinate positive, so v and -v share one representative.  On such
coordinates the absolute logarithmic Weil height is log max|x_i|, computed
here in double precision (>= 50 bits relative); every comparison that must
be exact (h = 0, h(a) = h(b), additivity of products) is done on the
integers themselves, or on an :class:`Interval` that raises
:class:`Uncertain` where it cannot decide, never on the logs.

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
A trace that reads only heights turns values past `_BITS` bits into
:class:`Interval` enclosures, whose leading bits certify each height.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import AllZero, InvalidParameter, ValueTooLarge


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


def parse_rational(text: str) -> Fraction:
    """The rational that `text` writes as an ASCII integer, decimal or "p/q";
    other text, such as the Unicode digits `Fraction` also reads, or a
    decimal exponent past 9999 in absolute value, raises InvalidParameter."""
    if not text.isascii():
        raise InvalidParameter(f"{text!r} is not written in ASCII")
    exponent = re.search(r"[eE][-+]?([0-9_]+)\s*$", text)  # Fraction computes 10^exponent
    if exponent and len(exponent[1].replace("_", "").lstrip("0")) > 4:
        raise InvalidParameter(f"{text!r} has a decimal exponent outside [-9999, 9999]")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameter(f"bad rational {text!r}: {exc}") from exc


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


def as_pair(q: int | Fraction) -> tuple[int, int]:
    """Reduced (numerator, denominator > 0) of an int or a Fraction."""
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


def height_pair(p, q) -> float:
    """Height log max(|p|, |q|) of (p : q) in P^1, for coprime ints of any
    size or Intervals around them.  CPython's `math.log` of an int reads
    only the double x * 2^k it rounds to (frexp form): log(ldexp(x, k)) for
    k <= 1024, log(x) + log(2.0) * k above.  So an enclosure of max(|p|, |q|)
    gives the height when its ends round to one double, else Uncertain, and
    ValueTooLarge when k is past the double range."""
    if type(p) is int and type(q) is int:
        return math.log(max(abs(p), abs(q)))
    p, q = (v if v >= 0 else -v for v in map(Interval.of, (p, q)))
    m = p if p >= q else q
    (x, k), high = math.frexp(float(m.lo)), math.frexp(float(m.hi))
    if (x, k) != high:
        raise Uncertain("the ends of an interval round to different doubles")
    k += m.e
    try:
        return math.log(math.ldexp(x, k)) if k <= 1024 else math.log(x) + math.log(2.0) * k
    except OverflowError:  # from float(k), which math.log's rule needs
        raise ValueTooLarge(f"a value of at least 2^{k.bit_length() - 1} bits has a bit "
                            "count past the double range, and so no height") from None


_BITS = 160  # bits per end of an Interval: 53 for a double, the rest for widening


class Uncertain(ArithmeticError):
    """An Interval cannot decide a sign or a rounded double."""


@total_ordering
class Interval:
    """A real in [lo * 2^e, hi * 2^e] for ints lo <= hi of at most about
    `_BITS` bits, rounded outward by each operation; exact when lo == hi, so
    exact zeros stay exact.  It has the operators that compiled forms and
    `_IntForm.value` apply; an undecided comparison, `%` and math.gcd raise Uncertain."""

    __slots__ = ("lo", "hi", "e")

    def __init__(self, lo: int, hi: int, e: int = 0):
        s = max(-lo, hi).bit_length() - _BITS
        if s > 0:
            lo, hi, e = lo >> s, -(-hi >> s), e + s
        self.lo, self.hi, self.e = lo, hi, e

    @staticmethod
    def of(x) -> "Interval":
        return x if type(x) is Interval else Interval(x, x)

    def _sign(self, other=0) -> int:
        """The sign of self - other, or Uncertain."""
        d = self - other if other else self
        if d.lo > 0 or d.hi < 0 or d.lo == d.hi:  # the last: exact zero
            return (d.lo > 0) - (d.hi < 0)
        raise Uncertain("an interval holds both signs")

    def __add__(self, other) -> "Interval":
        # align at most 2 * _BITS bits below the larger top bit: a summand far
        # smaller than the other then widens the sum by one unit there, and no
        # shift is longer than 2 * _BITS bits
        x, y = self, Interval.of(other)
        top = max(x.e + max(-x.lo, x.hi).bit_length(), y.e + max(-y.lo, y.hi).bit_length())
        e = max(min(x.e, y.e), top - 2 * _BITS)
        (a, b), (c, d) = [(v.lo << v.e - e, v.hi << v.e - e) if v.e >= e
                          else (v.lo >> e - v.e, -(-v.hi >> e - v.e)) for v in (x, y)]
        return Interval(a + c, b + d, e)

    def __sub__(self, other) -> "Interval":
        return self + -other

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.e)

    def __mul__(self, other) -> "Interval":
        other = Interval.of(other)
        ends = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return Interval(min(ends), max(ends), self.e + other.e)

    __rmul__ = __mul__  # coefficient * power in the compiled forms

    def __floordiv__(self, unit: int) -> "Interval":
        # `value` divides an interval only by g = +-1: a gcd raises Uncertain
        return self * unit

    def __index__(self, *_):  # what math.gcd reads; `%` below takes a second argument
        raise Uncertain("an interval holds no exact int for a gcd")

    __mod__ = __index__

    def __pow__(self, k: int) -> "Interval":
        return math.prod([self] * k, start=Interval(1, 1))

    def __bool__(self) -> bool:
        return self._sign() != 0

    def __eq__(self, other) -> bool:
        return self._sign(other) == 0

    def __lt__(self, other) -> bool:
        return self._sign(other) < 0


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
