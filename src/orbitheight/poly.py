"""Multivariate polynomials and rational functions over Q.

Polynomials are sparse maps from exponent vector to nonzero Fraction
coefficient; that is their parse and serialization form.  Rational
functions are stored as num/den pairs reduced only by integer content (no
multivariate gcd); equality is decided by cross-multiplication.
Serialization follows graded-lexicographic term order so equal objects
print identically.

Evaluation runs on integers: on first use a polynomial or rational function
compiles itself into an :class:`_IntForm`, which takes a point as reduced int
pairs (a_i, b_i), b_i > 0, and returns integer numerator and denominator.

Because denominators are never minimized, two presentations of the same
function can have different representation-level domains: evaluation and
map application answer for the presentation given, not for the underlying
map, and points where numerator and denominator both vanish report as
INDETERMINATE.  Map components that evaluate to infinity count as leaving
the affine chart.

The expression grammar accepted by :func:`parse_expression`:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' nonneg-int)?
    base   := integer | variable | '(' expr ')' | '-' base

Whitespace is insignificant; identifiers must be declared variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

from .errors import (
    DimensionMismatch,
    ExpressionSyntaxError,
    UnknownVariable,
    ZeroDenominator,
)
from .exact import P1Value, as_pair


class Indeterminate:
    """Result of evaluating 0/0: membership in the indeterminacy locus.

    A value, not an error, so callers can tell indeterminacy apart from
    genuine failures.  There is a single instance, `INDETERMINATE`.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Indeterminate"


INDETERMINATE = Indeterminate()


def _grlex_key(exponents: tuple[int, ...]):
    return (sum(exponents), exponents)


# Largest degree D at which `_IntForm` takes the resultant of a non-constant den
_RESULTANT_MAX_DEGREE = 32


def _abs_det(rows: list[list[int]]) -> int:
    """|det| of a square int matrix by fraction-free Bareiss elimination, in place."""
    n, prev = len(rows), 1
    for k in range(n - 1):
        i = next((i for i in range(k, n) if rows[i][k]), None)
        if i is None:
            return 0
        rows[k], rows[i] = rows[i], rows[k]
        top = rows[k]
        for row in rows[k + 1 :]:
            for j in range(k + 1, n):
                row[j] = (row[j] * top[k] - row[k] * top[j]) // prev
        prev = top[k]
    return abs(rows[-1][-1])


class _IntForm:
    """Integer evaluator of num/den polynomials given as {exponents: int}.

    With D_i the largest exponent of variable i in either polynomial, at
    reduced pairs (a_i, b_i) it returns each polynomial times prod b_i^D_i:
    sum c_e prod a_i^e_i b_i^(D_i - e_i).  A term is stored as its integer
    coefficient and the positions of its factors in the flat list of powers
    a_i^1..a_i^D_i, b_i^1..b_i^D_i that `pair_at` builds per point.

    `resultant` is decided once, for forms whose num and den use at most one
    variable x_i: it is |R| for R = Res(F, G), the resultant of the binary
    forms F, G of degree D = D_i that `pair_at` evaluates.  At coprime
    (a, b), gcd(F(a, b), G(a, b)) divides R, because F u + G v = R X^(2D-1)
    and F u' + G v' = R Y^(2D-1) for some forms u, v, u', v' (the resultant
    lemma for morphisms of P^1).  So `divisor` finds the gcd of a pair from
    its residues mod R, and callers skip it when |R| = 1.  A constant den c
    gives the closed form |R| = |c f_D|^D, f_D the top coefficient of num;
    this is 1 for constant forms, whose content-canonical pairs are coprime.
    Other dens take the 2D x 2D Sylvester determinant by Bareiss
    elimination, whose O(D^3) big-int steps cost 0.4 ms at D = 8, 2.5 ms at
    16, 38 ms at 32 and 0.5 s at 64 for dense two-digit coefficients
    (CPython 3.11); hence the cap `_RESULTANT_MAX_DEGREE`.  `resultant` is
    0, meaning unknown, past that degree, for forms in two or more
    variables, and when R = 0 (F and G share a root, as in the uncancelled
    (x^2-1)/(x-1)); `divisor` then takes the full gcd.
    """

    __slots__ = ("degrees", "num", "den", "resultant")

    def __init__(self, num: dict[tuple[int, ...], int], den: dict[tuple[int, ...], int]):
        self.degrees = tuple(max(col) for col in zip(*num, *den))
        used = {i for e in (*num, *den) for i, k in enumerate(e) if k}
        self.resultant = 0
        if len(used) <= 1:
            i = min(used, default=0)
            d = self.degrees[i] if used else 0
            f, g = (
                [p.get(tuple(k if j == i else 0 for j in range(len(self.degrees))), 0)
                 for k in range(d, -1, -1)]
                for p in (num, den)
            )
            if not any(g[:-1]):
                self.resultant = abs(g[-1] * f[0]) ** d
            elif d <= _RESULTANT_MAX_DEGREE:
                self.resultant = _abs_det(
                    [[0] * r + p + [0] * (d - 1 - r) for p in (f, g) for r in range(d)]
                )
        starts = [sum(2 * d for d in self.degrees[:i]) for i in range(len(self.degrees))]

        def factors(exps):
            at = list(zip(starts, self.degrees, exps))
            return tuple(s + e - 1 for s, _, e in at if e) + tuple(
                s + d + (d - e) - 1 for s, d, e in at if d - e
            )

        self.num = tuple((c, factors(e)) for e, c in num.items())
        self.den = tuple((c, factors(e)) for e, c in den.items())

    def divisor(self, num: int, den: int) -> int:
        """gcd(num, den) of a pair that `pair_at` returned at reduced pairs;
        callers skip the call when `resultant` is 1."""
        r = self.resultant
        return gcd(r, num % r, den % r) if r else gcd(num, den)

    def pair_at(self, pairs: Sequence[tuple[int, int]]) -> tuple[int, int]:
        """Homogenized (numerator, denominator) at reduced pairs, unreduced."""
        if len(pairs) != len(self.degrees):
            raise DimensionMismatch(
                f"point has {len(pairs)} coordinates, expected {len(self.degrees)}"
            )
        powers = []
        for (a, b), d in zip(pairs, self.degrees):
            if d:
                pa, pb = [a], [b]
                for _ in range(d - 1):
                    pa.append(pa[-1] * a)
                    pb.append(pb[-1] * b)
                powers += pa
                powers += pb
        values = []
        for terms in (self.num, self.den):
            total = 0
            for c, factors in terms:
                for j in factors:
                    c *= powers[j]
                total += c
            values.append(total)
        return values[0], values[1]


class Polynomial:
    """Sparse polynomial over Q in a fixed ordered tuple of variables."""

    __slots__ = ("variables", "terms", "_form")

    def __init__(self, variables: Sequence[str], terms: dict[tuple[int, ...], Fraction]):
        self.variables = tuple(variables)
        nvars = len(self.variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            if len(exps) != nvars:
                raise DimensionMismatch(
                    f"exponent vector {exps} does not match {nvars} variables"
                )
            c = Fraction(coeff)
            if c != 0:
                clean[tuple(exps)] = c
        self.terms = clean
        self._form = None

    # --- constructors ---

    @classmethod
    def constant(cls, variables: Sequence[str], value: Fraction | int) -> "Polynomial":
        value = Fraction(value)
        zero = (0,) * len(tuple(variables))
        return cls(variables, {zero: value} if value else {})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        variables = tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exps: Fraction(1)})

    # --- predicates ---

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        zero = (0,) * len(self.variables)
        return self.terms.get(zero, Fraction(0))

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the graded-lex leading term (0 for the zero poly)."""
        if not self.terms:
            return Fraction(0)
        return self.terms[max(self.terms, key=_grlex_key)]

    # --- arithmetic ---

    def _check_same_vars(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise DimensionMismatch(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_vars(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + coeff
        return Polynomial(self.variables, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_vars(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Polynomial(self.variables, out)

    def scale(self, factor: Fraction) -> "Polynomial":
        factor = Fraction(factor)
        return Polynomial(self.variables, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # --- evaluation / substitution ---

    def pair_at(self, pairs: Sequence[tuple[int, int]]) -> tuple[int, int]:
        """Value at reduced int pairs as an unreduced (num, den), den > 0."""
        if self._form is None:
            scale = lcm(*[c.denominator for c in self.terms.values()])
            zero = (0,) * len(self.variables)
            self._form = _IntForm(
                {e: c.numerator * (scale // c.denominator) for e, c in self.terms.items()},
                {zero: scale},
            )
        return self._form.pair_at(pairs)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        num, den = self.pair_at([as_pair(p) for p in point])
        return Fraction(num, den)

    def substitute(self, args: Sequence["RationalFunction"]) -> "RationalFunction":
        """Plug rational functions in for the variables (symbolic evaluation)."""
        if len(args) != len(self.variables):
            raise DimensionMismatch(
                f"{len(args)} substitutions for {len(self.variables)} variables"
            )
        target_vars = args[0].variables if args else self.variables
        total = RationalFunction.constant(target_vars, 0)
        for exps, coeff in self.terms.items():
            part = RationalFunction.constant(target_vars, coeff)
            for arg, e in zip(args, exps):
                if e:
                    part = part * (arg**e)
            total = total + part
        return total

    def rename_variables(self, new_variables: Sequence[str]) -> "Polynomial":
        if len(new_variables) != len(self.variables):
            raise DimensionMismatch("renaming must preserve the variable count")
        return Polynomial(new_variables, dict(self.terms))

    # --- serialization ---

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self})"


class RationalFunction:
    """Quotient num/den of polynomials, reduced by integer content only.

    Canonical form: integer coefficients with joint content 1 and positive
    graded-lex leading coefficient of the denominator.  Two representations
    of the same function (e.g. (x^2-1)/(x-1) and x+1) stay distinct; use
    :func:`rf_equal` for mathematical equality.
    """

    __slots__ = ("num", "den", "_form")

    def __init__(self, num: Polynomial, den: Polynomial):
        num._check_same_vars(den)
        if den.is_zero():
            raise ZeroDenominator(f"denominator of {num}/{den} is identically zero")
        self.num, self.den = _content_canonical(num, den)
        self._form = None

    @property
    def form(self) -> _IntForm:
        """The integer evaluator, compiled on first use."""
        if self._form is None:
            # _content_canonical leaves integral coefficients
            self._form = _IntForm(
                {e: c.numerator for e, c in self.num.terms.items()},
                {e: c.numerator for e, c in self.den.terms.items()},
            )
        return self._form

    def pair_at(self, pairs: Sequence[tuple[int, int]]) -> tuple[int, int]:
        """(num, den) values at reduced int pairs, both scaled by one positive
        integer and left unreduced; (0, 0) on the indeterminacy locus."""
        return self.form.pair_at(pairs)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.num.variables

    @classmethod
    def constant(cls, variables: Sequence[str], value: Fraction | int) -> "RationalFunction":
        return cls(
            Polynomial.constant(variables, value),
            Polynomial.constant(variables, 1),
        )

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, Polynomial.constant(p.variables, 1))

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    # --- field arithmetic (cross-multiplication, no gcd reduction) ---

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.num.is_zero():
            raise ZeroDenominator("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            raise ValueError("negative rational-function power")
        return RationalFunction(self.num**n, self.den**n)

    def __eq__(self, other) -> bool:
        """Structural equality of the stored representation."""
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _content_canonical(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    coeffs = list(num.terms.values()) + list(den.terms.values())
    common = lcm(*[c.denominator for c in coeffs])
    g = gcd(*[c.numerator * (common // c.denominator) for c in coeffs])
    scale = Fraction(common, g) if g else Fraction(1)
    if den.leading_coefficient() * scale < 0:
        scale = -scale
    return num.scale(scale), den.scale(scale)


def evaluate(rf: RationalFunction, point: Sequence[Fraction]) -> Union[P1Value, Indeterminate]:
    """Value of rf at a rational point, as a point of P^1.

    Returns the affine value (num : den) when the denominator is nonzero,
    the point at infinity (1 : 0) when only the denominator vanishes, and
    `INDETERMINATE` when both vanish.
    """
    return evaluate_pairs(rf, [as_pair(p) for p in point])


def evaluate_pairs(
    rf: RationalFunction, pairs: Sequence[tuple[int, int]]
) -> Union[P1Value, Indeterminate]:
    """:func:`evaluate` at a point given as reduced int pairs (a_i, b_i), b_i > 0.

    The pairs must be reduced: the compiled form bounds the gcd of its value
    by its resultant on that premise, so unreduced pairs are not supported.
    """
    form = rf.form
    n, d = form.pair_at(pairs)
    if n == 0 and d == 0:
        return INDETERMINATE
    g = 1 if form.resultant == 1 else form.divisor(n, d)
    if n < 0 or (n == 0 and d < 0):
        g = -g
    return P1Value._trusted((n, d) if g == 1 else (n // g, d // g))


@dataclass(frozen=True)
class RationalMap:
    """Self-map of affine N-space: one rational function per coordinate."""

    variables: tuple[str, ...]
    components: tuple[RationalFunction, ...]

    def __post_init__(self):
        for comp in self.components:
            if comp.variables != self.variables:
                raise DimensionMismatch(
                    f"component over {comp.variables}, map over {self.variables}"
                )

    @property
    def dim(self) -> int:
        return len(self.variables)

    def is_self_map(self) -> bool:
        return len(self.components) == len(self.variables)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def apply_map(phi: RationalMap, point: Sequence[Fraction]):
    """One step of the map on an affine point.

    Returns ("ok", values) when every component is affine there; otherwise
    ("infinity", i) or ("indeterminate", i) for the first component i that
    leaves the chart.  Exiting to infinity counts as leaving the chart even
    though the orbit may continue projectively.
    """
    pairs = [as_pair(p) for p in point]
    values = []
    for i, comp in enumerate(phi.components):
        n, d = comp.pair_at(pairs)
        if d == 0:
            return ("indeterminate" if n == 0 else "infinity", i)
        values.append(Fraction(n, d))
    return ("ok", values)


def compose(outer: RationalMap, inner: RationalMap) -> RationalMap:
    """Symbolic substitution outer(inner(.)), canonicalized componentwise."""
    if outer.variables != inner.variables:
        raise DimensionMismatch("composed maps must share a variable list")
    if len(outer.components) != len(inner.components) or not outer.is_self_map():
        raise DimensionMismatch("composition needs self-maps of equal dimension")
    comps = []
    for comp in outer.components:
        num_sub = comp.num.substitute(inner.components)
        den_sub = comp.den.substitute(inner.components)
        if den_sub.num.is_zero():
            raise ZeroDenominator(
                f"denominator of {comp} vanishes identically after substitution"
            )
        comps.append(num_sub / den_sub)
    return RationalMap(outer.variables, tuple(comps))


def rf_equal(a: RationalFunction, b: RationalFunction) -> bool:
    """Mathematical equality via cross-multiplication: a.num*b.den = b.num*a.den."""
    if a.variables != b.variables:
        raise DimensionMismatch("rf_equal needs a common variable list")
    return a.num * b.den == b.num * a.den


# --- recursive-descent parser ---

_OPERATORS = set("+-*/^()")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return ("end", "", self.pos)
        ch = self.text[self.pos]
        if ch in _OPERATORS:
            return ("op", ch, self.pos)
        if ch.isdigit():
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return ("int", self.text[self.pos : j], self.pos)
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return ("ident", self.text[self.pos : j], self.pos)
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", self.pos)

    def next(self):
        kind, value, pos = self.peek()
        self.pos = pos + (len(value) if value else 0)
        return kind, value, pos


_MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = _Tokenizer(text)
        self.variables = tuple(variables)
        self.depth = 0

    def parse(self) -> RationalFunction:
        result = self.expr()
        kind, value, pos = self.tokens.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"trailing input {value!r}", pos)
        return result

    def _enter(self, pos: int) -> None:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ExpressionSyntaxError(
                f"expression nested deeper than {_MAX_NESTING}", pos
            )

    def expr(self) -> RationalFunction:
        result = self.term()
        while True:
            kind, value, _ = self.tokens.peek()
            if kind == "op" and value in "+-":
                self.tokens.next()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> RationalFunction:
        result = self.factor()
        while True:
            kind, value, pos = self.tokens.peek()
            if kind == "op" and value in "*/":
                self.tokens.next()
                rhs = self.factor()
                if value == "*":
                    result = result * rhs
                else:
                    if rhs.num.is_zero():
                        raise ZeroDenominator(
                            f"division by an identically-zero expression (at position {pos})"
                        )
                    result = result / rhs
            else:
                return result

    def factor(self) -> RationalFunction:
        result = self.base()
        kind, value, _ = self.tokens.peek()
        if kind == "op" and value == "^":
            self.tokens.next()
            ekind, evalue, epos = self.tokens.next()
            if ekind != "int":
                raise ExpressionSyntaxError("exponent must be a nonnegative integer", epos)
            result = result ** int(evalue)
        return result

    def base(self) -> RationalFunction:
        kind, value, pos = self.tokens.next()
        if kind == "int":
            return RationalFunction.constant(self.variables, int(value))
        if kind == "ident":
            if value not in self.variables:
                raise UnknownVariable(value, pos)
            return RationalFunction.from_polynomial(
                Polynomial.variable(self.variables, value)
            )
        if kind == "op" and value == "(":
            self._enter(pos)
            inner = self.expr()
            self.depth -= 1
            ckind, cvalue, cpos = self.tokens.next()
            if not (ckind == "op" and cvalue == ")"):
                raise ExpressionSyntaxError("expected ')'", cpos)
            return inner
        if kind == "op" and value == "-":
            self._enter(pos)
            result = -self.base()
            self.depth -= 1
            return result
        raise ExpressionSyntaxError(
            f"expected integer, variable, '(' or '-', got {value!r}", pos
        )


def parse_expression(text: str, variables: Sequence[str]) -> RationalFunction:
    """Parse an expression into a canonical rational function.

    Parsing, serializing with str(), and parsing again is idempotent.
    """
    return _Parser(text, variables).parse()


def parse_map(component_texts: Sequence[str], variables: Sequence[str]) -> RationalMap:
    comps = tuple(parse_expression(t, variables) for t in component_texts)
    return RationalMap(tuple(variables), comps)
