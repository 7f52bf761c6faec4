"""Multivariate polynomials and rational functions over Q.

Polynomials are sparse maps from exponent vector to nonzero int
coefficient; that is their parse and serialization form.  A rational
constant exists only as the num/den of a rational function.  Rational
functions are stored as num/den pairs reduced only by integer content (no
multivariate gcd); equality is decided by cross-multiplication.
Serialization follows graded-lexicographic term order so equal objects
print identically.

Evaluation runs on integers: on first use a polynomial or rational function
compiles itself into an :class:`_IntForm`, a generated straight-line function
that takes a point as reduced int pairs (a_i, b_i), b_i > 0, and returns
integer numerator and denominator.  `_IntForm.value` reduces that pair and
fixes its sign; every exact value of the package is made there.

Because denominators are never minimized, two presentations of the same
function can have different representation-level domains: evaluation and
map stepping answer for the presentation given, not for the underlying
map, and points where numerator and denominator both vanish are
indeterminate (:func:`p1_pair` returns None there).

The expression grammar accepted by :func:`parse_expression`:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' nonneg-int)?
    base   := integer | variable | '(' expr ')' | '-' base

Whitespace is insignificant; identifiers must be declared variables.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import gcd
from operator import add
from typing import Optional, Sequence

from .errors import (
    DimensionMismatch,
    ExpressionSyntaxError,
    InvalidParameter,
    UnknownVariable,
    ZeroDenominator,
)
from .exact import format_int


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


def _straight_line(degrees: tuple[int, ...], num: dict, den: dict):
    """`_IntForm.pair_at`, generated as straight-line source and compiled."""
    powers: dict[str, set[int]] = {}  # exponents needed per a_i and b_i, and 1
    coeffs: dict[str, int] = {}

    def name(v: str, k: int) -> str:
        return v if k == 1 else f"{v}_{k}"

    def join(op: str, parts: list[str]) -> str:  # by halves, so CPython's compiler
        if len(parts) <= 64:  # never recurses deeper than a few hundred levels
            return op.join(parts)
        h = len(parts) // 2
        return f"({join(op, parts[:h])}){op}({join(op, parts[h:])})"

    def polynomial(terms: dict) -> str:
        parts = []
        for e, c in terms.items():
            factors = []
            for i, (k, d) in enumerate(zip(e, degrees)):
                for v, j in ((f"a{i}", k), (f"b{i}", d - k)):
                    if j:
                        powers.setdefault(v, {1}).add(j)
                        factors.append(name(v, j))
            if abs(c) != 1:
                factors.insert(0, f"c{len(coeffs)}")
                coeffs[factors[0]] = c
            parts.append(("-" if c == -1 else "") + (join("*", factors) or "1"))
        return join(" + ", parts).replace("+ -", "- ") or "0"

    lines = [f"return {polynomial(num)}, {polynomial(den)}"]
    for v, ks in powers.items():  # each power as the last one times v^(k - last)
        ks = sorted(ks)
        lines[:0] = [f"{name(v, k)} = {name(v, j)}*{v}" + (f"**{k - j}" if k > j + 1 else "")
                     for j, k in zip(ks, ks[1:])]
    target = "".join(f"(a{i}, b{i}), " if d else "_, " for i, d in enumerate(degrees))
    source = "\n    ".join([
        f"def pair_at(pairs{''.join(f', {c}={c}' for c in coeffs)}):",
        f"({target}) = pairs",
        *lines,
    ])
    exec(compile(source, "<_IntForm>", "exec"), coeffs)
    return coeffs["pair_at"]


class _IntForm:
    """Integer evaluator of num/den polynomials given as {exponents: int}.

    With D_i the largest exponent of variable i in either polynomial, at
    reduced pairs (a_i, b_i) `pair_at` returns each polynomial times
    prod b_i^D_i: sum c_e prod a_i^e_i b_i^(D_i - e_i).  It is Python source
    generated for the form and compiled once, arithmetic only: it unpacks
    the pairs of the variables used, computes only the powers the terms need
    and returns both sums, coefficients +-1 dropped.  Only positional names
    (a0, b0, a0_3, c0) enter it, never job text or a global name; `value`
    calls `check_length` once its unpacking fails, a `pair_at` before it.
    Coefficients are default arguments, never printed: one past CPython's
    int-to-str digit limit could not be.  The source grows with the number
    of terms and distinct exponents, not with the degree; sums and products
    past 64 operands nest by halves, as a flat chain of thousands overflows
    CPython's compiler.  Building takes 0.045 ms for x+1, 0.1 ms for x^3000
    and 90 ms for the 5,456 terms of degree <= 30 in x, y, z (CPython 3.11).

    `resultant` is decided once, for forms whose num and den use at most one
    variable x_i: it is |R| for R = Res(F, G), the resultant of the binary
    forms F, G of degree D = D_i that `pair_at` evaluates.  At coprime
    (a, b), gcd(F(a, b), G(a, b)) divides R, because F u + G v = R X^(2D-1)
    and F u' + G v' = R Y^(2D-1) for some forms u, v, u', v' (the resultant
    lemma for morphisms of P^1).  So `value`, which reduces every exact value
    the package makes, takes the gcd on residues mod R and skips it when
    |R| = 1 or when the den it evaluates is 1, as a polynomial's is at
    integers.  A constant den c gives the closed form |R| = |c f_D|^D, f_D the
    top coefficient of num; this is 1 for constant forms, whose
    content-canonical pairs are coprime.
    Other dens take the 2D x 2D Sylvester determinant by Bareiss
    elimination, whose O(D^3) big-int steps cost 0.4 ms at D = 8, 2.5 ms at
    16, 38 ms at 32 and 0.5 s at 64 for dense two-digit coefficients
    (CPython 3.11); hence the cap `_RESULTANT_MAX_DEGREE`.  `resultant` is
    0, meaning unknown, past that degree, for forms in two or more
    variables, and when R = 0 (F and G share a root, as in the uncancelled
    (x^2-1)/(x-1)); `value` then takes the full gcd of a den other than 1.
    """

    __slots__ = ("pair_at", "arity", "resultant", "_terms")

    def __init__(self, num: dict[tuple[int, ...], int], den: dict[tuple[int, ...], int]):
        self._terms = (num, den)
        degrees = tuple(max(col) for col in zip(*num, *den))
        self.arity, self.resultant = len(degrees), 0
        if sum(map(bool, degrees)) <= 1:  # so e[i] = sum(e) for the one used x_i
            d = sum(degrees)
            f, g = [0] * (d + 1), [0] * (d + 1)  # coefficients, x_i^d first
            for p, q in ((num, f), (den, g)):
                for e, c in p.items():
                    q[d - sum(e)] = c
            if not any(g[:-1]):
                self.resultant = abs(g[-1] * f[0]) ** d
            elif d <= _RESULTANT_MAX_DEGREE:
                self.resultant = _abs_det(
                    [[0] * r + p + [0] * (d - 1 - r) for p in (f, g) for r in range(d)]
                )
        self.pair_at = _straight_line(degrees, num, den)

    def __reduce__(self):  # the generated function does not pickle; the terms do
        return _IntForm, self._terms

    def value(self, pairs: Sequence[tuple[int, int]]) -> Optional[tuple[int, int]]:
        """The form at reduced int pairs as coprime (num, den), den > 0 or
        (1, 0) where den vanishes; None where num and den both vanish."""
        try:
            num, den = self.pair_at(pairs)
        except ValueError:  # pairs did not unpack: a wrong length, or a malformed pair
            self.check_length(pairs)
            raise
        r = self.resultant
        g = 1 if r == 1 or den == 1 else gcd(r, num % r, den % r) if r else gcd(num, den)
        if den <= 0:
            if not (num or den):
                return None
            if den or num < 0:
                g = -g
        return (num, den) if g == 1 else (num // g, den // g)

    def check_length(self, pairs: Sequence[tuple[int, int]]) -> Sequence[tuple[int, int]]:
        """pairs if it holds `arity` pairs, else DimensionMismatch: the length rule."""
        if len(pairs) != self.arity:
            raise DimensionMismatch(f"point has {len(pairs)} coordinates, expected {self.arity}")
        return pairs


class Polynomial:
    """Sparse polynomial with int coefficients in a fixed ordered tuple of variables."""

    __slots__ = ("variables", "terms", "_form")

    def __init__(self, variables: Sequence[str], terms: dict[tuple[int, ...], int]):
        self.variables = tuple(variables)
        nvars = len(self.variables)
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            if len(exps) != nvars:
                raise DimensionMismatch(
                    f"exponent vector {exps} does not match {nvars} variables"
                )
            if type(coeff) is not int:
                raise TypeError(f"coefficient {coeff!r} is not an int")
            if coeff:
                clean[tuple(exps)] = coeff
        self.terms = clean
        self._form = None

    # --- constructors ---

    @classmethod
    def constant(cls, variables: Sequence[str], value: int) -> "Polynomial":
        return cls(variables, {(0,) * len(tuple(variables)): value})  # 0 is dropped

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        variables = tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exps: 1})

    # --- predicates ---

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        zero = (0,) * len(self.variables)
        return self.terms.get(zero, 0)

    def leading_coefficient(self) -> int:
        """Coefficient of the graded-lex leading term; ValueError on the zero poly."""
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
            out[exps] = out.get(exps, 0) + coeff
        return Polynomial(self.variables, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_vars(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self.variables, out)

    def scale(self, factor: int) -> "Polynomial":
        return Polynomial(self.variables, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # squaring past the top bit of n would be thrown away
                base = base * base
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
            self._form = RationalFunction.from_polynomial(self).form
        return self._form.pair_at(self._form.check_length(pairs))

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
        """Terms in descending graded-lex order, in text that parses back to
        the polynomial: a leading -1 before a power prints as -1*x^2, since
        the grammar reads -x^2 as (-x)^2."""
        out = []
        for exps in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[exps]
            factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(self.variables, exps) if e]
            if abs(coeff) != 1 or not factors or (not out and coeff < 0 and "^" in factors[0]):
                factors.insert(0, format_int(abs(coeff)))
            body = "*".join(factors)
            if out:
                out.append(f"{'-' if coeff < 0 else '+'} {body}")
            else:
                out.append(("-" if coeff < 0 else "") + body)
        return " ".join(out) or "0"

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
            raise ZeroDenominator("the denominator is identically zero")
        self.num, self.den = _content_canonical(num, den)
        self._form = None

    @property
    def form(self) -> _IntForm:
        """The integer evaluator, compiled on first use."""
        if self._form is None:
            self._form = _IntForm(self.num.terms, self.den.terms)
        return self._form

    def pair_at(self, pairs: Sequence[tuple[int, int]]) -> tuple[int, int]:
        """(num, den) values at reduced int pairs, both scaled by one positive
        integer and left unreduced; (0, 0) on the indeterminacy locus."""
        return self.form.pair_at(self.form.check_length(pairs))

    @property
    def variables(self) -> tuple[str, ...]:
        return self.num.variables

    @classmethod
    def constant(cls, variables: Sequence[str], value: int) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.constant(variables, value))

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, Polynomial.constant(p.variables, 1))

    # --- field arithmetic (cross-multiplication, no gcd reduction) ---

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if self.den.terms == other.den.terms == {(0,) * len(self.variables): 1}:
            # the cross-multiplied sum, term for term, without multiplying by 1
            return RationalFunction(self.num + other.num, self.den)
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
    """num and den divided by their joint content, signed so that the
    graded-lex leading coefficient of den is positive (den is nonzero)."""
    g = gcd(*num.terms.values(), *den.terms.values())
    if den.leading_coefficient() < 0:
        g = -g
    if g == 1:
        return num, den
    return (Polynomial(num.variables, {e: c // g for e, c in num.terms.items()}),
            Polynomial(den.variables, {e: c // g for e, c in den.terms.items()}))


def p1_pair(rf: RationalFunction, pairs: Sequence[tuple[int, int]]) -> Optional[tuple[int, int]]:
    """Canonical (p, q) of rf at reduced int pairs (a_i, b_i), b_i > 0, or
    None where rf is indeterminate: the form's `value` with the sign moved
    to q where p < 0.  The pairs must be reduced: the compiled form bounds
    the gcd of its value by its resultant on that premise."""
    v = rf.form.value(pairs)
    return v if v is None or v[0] >= 0 else (-v[0], -v[1])


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


def compose(outer: RationalMap, inner: RationalMap) -> RationalMap:
    """Symbolic substitution outer(inner(.)), canonicalized componentwise."""
    if outer.variables != inner.variables:
        raise DimensionMismatch("composed maps must share a variable list")
    if len(outer.components) != len(inner.components) or not outer.is_self_map():
        raise DimensionMismatch("composition needs self-maps of equal dimension")
    comps = []
    for i, comp in enumerate(outer.components):
        num_sub = comp.num.substitute(inner.components)
        den_sub = comp.den.substitute(inner.components)
        if den_sub.num.is_zero():  # named by index: its text may be past the int-to-str limit
            raise ZeroDenominator(
                f"the denominator of component {i} is identically zero after substitution"
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
_DIGITS = set("0123456789")  # ASCII only: str.isdigit also admits '²' and '٣'
_MAX_NESTING = 200


class _Parser:
    """One token of lookahead: `look` gives the current token, which `_read`
    takes from the text the first time it is looked at, and `take` moves past
    it.  A token is an operator, an ASCII integer literal, an identifier, or
    "" at the end; `at` is the position of the last one read."""

    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.variables = tuple(variables)
        self.token: Optional[str] = None  # None until the current token is read
        self.at = self.end = 0  # where the last token read starts and ends
        self.depth = 0

    def _read(self) -> str:
        text, i = self.text, self.end
        while i < len(text) and text[i].isspace():
            i += 1
        ch = text[i : i + 1]  # "" at the end
        j = i + len(ch)
        if ch in _DIGITS:
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
            if 0 < limit < j - i:
                raise ExpressionSyntaxError(f"integer literal of more than {limit} digits", i)
        elif ch.isalpha() or ch == "_":
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
        elif ch and ch not in _OPERATORS:
            raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
        self.at, self.end = i, j
        return text[i:j]

    def look(self) -> str:
        if self.token is None:
            self.token = self._read()
        return self.token

    def take(self) -> str:
        token, self.token = self.look(), None
        return token

    def parse(self) -> RationalFunction:
        result = self.expr()
        if self.look():
            raise ExpressionSyntaxError(f"trailing input {self.token!r}", self.at)
        return result

    def expr(self) -> RationalFunction:
        result = self.term()
        while self.look() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self) -> RationalFunction:
        result = self.factor()
        while self.look() in ("*", "/"):
            op, pos = self.take(), self.at
            rhs = self.factor()
            if op == "*":
                result = result * rhs
            elif rhs.num.is_zero():
                raise ZeroDenominator(
                    f"division by an identically-zero expression (at position {pos})"
                )
            else:
                result = result / rhs
        return result

    def factor(self) -> RationalFunction:
        result = self.base()
        if self.look() == "^":
            self.take()
            exponent = self.take()
            if exponent[:1] not in _DIGITS:
                raise ExpressionSyntaxError("exponent must be a nonnegative integer", self.at)
            result = result ** int(exponent)
        return result

    def base(self) -> RationalFunction:
        token = self.take()
        if token[:1] in _DIGITS:
            return RationalFunction.constant(self.variables, int(token))
        if token[:1].isalpha() or token[:1] == "_":
            if token not in self.variables:
                raise UnknownVariable(token, self.at)
            return RationalFunction.from_polynomial(Polynomial.variable(self.variables, token))
        if token in ("(", "-"):
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ExpressionSyntaxError(
                    f"expression nested deeper than {_MAX_NESTING}", self.at
                )
            result = -self.base() if token == "-" else self.expr()
            if token == "(" and self.take() != ")":
                raise ExpressionSyntaxError("expected ')'", self.at)
            self.depth -= 1
            return result
        raise ExpressionSyntaxError(
            f"expected integer, variable, '(' or '-', got {token!r}", self.at
        )


def parse_expression(text: str, variables: Sequence[str]) -> RationalFunction:
    """Parse an expression into a canonical rational function.

    Parsing, serializing with str(), and parsing again is idempotent.
    """
    return _Parser(text, variables).parse()


def parse_polynomial(text: str, variables: Sequence[str]) -> tuple[Polynomial, int]:
    """Parse an expression that must be a polynomial over Q, as (P, d): the
    polynomial is P/d, P has int coefficients and d is a positive int.  Text
    that is not a str raises InvalidParameter."""
    if not isinstance(text, str):
        raise InvalidParameter(f"{text!r} is not an expression string")
    rf = parse_expression(text, variables)
    if not rf.den.is_constant():
        raise InvalidParameter(f"{text!r} is not a polynomial in {', '.join(variables)}")
    return rf.num, rf.den.constant_value()


def parse_map(component_texts: Sequence[str], variables: Sequence[str]) -> RationalMap:
    comps = tuple(parse_expression(t, variables) for t in component_texts)
    return RationalMap(tuple(variables), comps)
