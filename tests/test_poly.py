import math
import time
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from orbitheight.errors import (
    DimensionMismatch,
    ExpressionSyntaxError,
    UnknownVariable,
    ZeroDenominator,
)
from orbitheight import poly
from orbitheight.exact import as_pair
from orbitheight.orbit import step
from orbitheight.poly import (
    Polynomial,
    RationalFunction,
    RationalMap,
    compose,
    p1_pair,
    parse_expression,
    parse_map,
    rf_equal,
)

XYZ = ("x", "y", "z")


def test_parse_examples():
    rf = parse_expression("2*x", XYZ)
    assert rf.den.is_constant() and rf.den.constant_value() == 1
    assert str(rf) == "2*x"

    rf2 = parse_expression("(x^2-1)/(x-1)", ("x",))
    # stored unreduced: no multivariate gcd cancellation
    assert str(rf2.num) == "x^2 - 1"
    assert str(rf2.den) == "x - 1"

    with pytest.raises(ZeroDenominator):
        parse_expression("1/0", ("x",))

    # -x^2 reads as (-x)^2, so a leading -1 before a power prints as a coefficient
    assert str(parse_expression("1-x^2", ("x",))) == "-1*x^2 + 1"
    assert str(parse_map(["1-x^2", "-x*y^2"], ("x", "y"))) == "(-1*x^2 + 1, -x*y^2)"


PARSE_ERRORS = {
    # id: (text, exception type, message before " (at position p)", p)
    "dollar": ("3 $ 4", ExpressionSyntaxError, "unexpected character '$'", 2),
    "superscript-two": ("x^²", ExpressionSyntaxError, "unexpected character '²'", 2),
    "arabic-indic-three": ("x^٣", ExpressionSyntaxError, "unexpected character '٣'", 2),
    "long-literal": ("x+" + "1" * 4301, ExpressionSyntaxError,
                     "integer literal of more than 4300 digits", 2),
    "implicit-product": ("x y", ExpressionSyntaxError, "trailing input 'y'", 2),
    "unopened": ("x)", ExpressionSyntaxError, "trailing input ')'", 1),
    "trailing-non-ascii": ("x\té", ExpressionSyntaxError, "trailing input 'é'", 2),
    "unclosed": ("(x", ExpressionSyntaxError, "expected ')'", 2),
    "unclosed-before-name": ("(x y", ExpressionSyntaxError, "expected ')'", 3),
    "deep-parens": ("(" * 201 + "x" + ")" * 201, ExpressionSyntaxError,
                    "expression nested deeper than 200", 200),
    "deep-minus": ("-" * 201 + "x", ExpressionSyntaxError, "expression nested deeper than 200", 200),
    "exponent-name": ("x ^ y", ExpressionSyntaxError, "exponent must be a nonnegative integer", 4),
    "exponent-negative": ("x ^ -2", ExpressionSyntaxError,
                          "exponent must be a nonnegative integer", 4),
    "exponent-missing": ("x^", ExpressionSyntaxError, "exponent must be a nonnegative integer", 2),
    "empty": ("", ExpressionSyntaxError, "expected integer, variable, '(' or '-', got ''", 0),
    "operand-missing": ("x +", ExpressionSyntaxError,
                        "expected integer, variable, '(' or '-', got ''", 3),
    "divide-by-zero": ("1/0", ZeroDenominator, "division by an identically-zero expression", 1),
    "divide-by-zero-expression": ("x/(x-x)", ZeroDenominator,
                                  "division by an identically-zero expression", 1),
    "unknown-name": ("x + w", UnknownVariable, "unknown variable 'w'", 4),
    "unknown-non-ascii": ("é", UnknownVariable, "unknown variable 'é'", 0),
    # two errors: the one met first in a left-to-right parse is raised
    "zero-before-dollar": ("2/0^2$", ZeroDenominator,
                           "division by an identically-zero expression", 1),
    "unknown-before-dollar": ("w$", UnknownVariable, "unknown variable 'w'", 0),
    "plus-before-superscript": ("+²", ExpressionSyntaxError,
                                "expected integer, variable, '(' or '-', got '+'", 0),
}


@pytest.mark.parametrize("text, kind, message, position", PARSE_ERRORS.values(),
                         ids=PARSE_ERRORS)
def test_parse_error_table(text, kind, message, position, int_str_limit):
    """Each raise site of the parser, with its exception type, message and
    position (ZeroDenominator carries it in the message alone)."""
    with pytest.raises(kind) as exc:
        parse_expression(text, XYZ)
    assert type(exc.value) is kind
    assert str(exc.value) == f"{message} (at position {position})"
    assert getattr(exc.value, "position", position) == position


def test_nesting_depth_guard():
    deep = "(" * 5000 + "x" + ")" * 5000
    with pytest.raises(ExpressionSyntaxError):
        parse_expression(deep, ("x",))
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("-" * 5000 + "x", ("x",))
    # sane nesting still parses
    ok = "(" * 50 + "x" + ")" * 50
    assert rf_equal(parse_expression(ok, ("x",)), parse_expression("x", ("x",)))


def test_unary_minus_binds_inside_power():
    # grammar: factor := base ('^' int)?, base := '-' base, so -2^2 = (-2)^2
    rf = parse_expression("-2^2", ())
    assert rf.num.constant_value() == 4


def test_parse_serialize_roundtrip():
    texts = ["(x^2-1)/(x-1)", "2*x - 3*y^2 + 1", "x/y + z/2", "-(x+1)/(y-2)", "1-x^2",
             "(-x^3*y+z)/(x^2+1)"]
    for text in texts:
        first = parse_expression(text, XYZ)
        again = parse_expression(str(first), XYZ)
        assert first == again, text


def test_each_token_is_read_once(monkeypatch):
    reads = []
    read = poly._Parser._read

    def counted(parser):
        reads.append(read(parser))
        return reads[-1]

    monkeypatch.setattr(poly._Parser, "_read", counted)
    parse_expression("(x^2+1)/(x+2)", ("x",))
    assert reads == ["(", "x", "^", "2", "+", "1", ")", "/", "(", "x", "+", "2", ")", ""]


def test_evaluate_examples():
    rf = parse_expression("x/y", ("x", "y"))
    assert p1_pair(rf, [(3, 1), (2, 1)]) == (3, 2)
    assert p1_pair(rf, [(3, 1), (0, 1)]) == (1, 0)
    assert p1_pair(rf, [(0, 1), (0, 1)]) is None


def test_compose_examples():
    phi1 = parse_map(["2*x", "y+1", "z"], XYZ)
    phi2 = parse_map(["x*z", "y", "z+1"], XYZ)
    c = compose(phi1, phi2)
    expected = parse_map(["2*x*z", "y+1", "z+1"], XYZ)
    assert all(rf_equal(a, b) for a, b in zip(c.components, expected.components))

    ident = parse_map(["x", "y", "z"], XYZ)
    back = compose(ident, phi1)
    assert all(rf_equal(a, b) for a, b in zip(back.components, phi1.components))

    shift = parse_map(["x+1"], ("x",))
    twice = compose(shift, shift)
    assert rf_equal(twice.components[0], parse_expression("x+2", ("x",)))


def test_compose_zero_denominator():
    outer = parse_map(["1/(x-y)", "y"], ("x", "y"))
    inner = parse_map(["x", "x"], ("x", "y"))
    with pytest.raises(ZeroDenominator):
        compose(outer, inner)


def test_rf_equal_examples():
    assert rf_equal(
        parse_expression("(x^2-1)/(x-1)", XYZ), parse_expression("x+1", XYZ)
    )
    assert not rf_equal(parse_expression("x/y", XYZ), parse_expression("x/z", XYZ))
    assert rf_equal(parse_expression("2*x/2", XYZ), parse_expression("x", XYZ))


def test_rf_equal_needs_common_variables():
    with pytest.raises(DimensionMismatch):
        rf_equal(parse_expression("x", ("x",)), parse_expression("x", ("x", "y")))


def test_content_canonicalization():
    rf = parse_expression("(2*x+2)/(4*y)", ("x", "y"))
    assert str(rf.num) == "x + 1"
    assert str(rf.den) == "2*y"
    # denominator leading coefficient positive
    rf2 = parse_expression("x/(-y)", ("x", "y"))
    assert rf2.den.leading_coefficient() > 0
    assert rf_equal(rf2, parse_expression("-x/y", ("x", "y")))
    with pytest.raises(ValueError):
        Polynomial(("x",), {}).leading_coefficient()
    # equal canonical forms hash alike, so sets and dict keys merge them
    same = parse_expression("(x+1)/(2*y)", ("x", "y"))
    assert {rf, same} == {rf} and {rf.num, same.num} == {rf.num}
    assert repr(rf.den) == "Polynomial(2*y)"


small_fracs = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
small_ints = st.integers(-1000, 1000)
denominators = st.integers(1, 20)


def _poly_from_coeffs(coeffs):
    terms = {}
    for i, c in enumerate(coeffs):
        terms[(i % 3, (i * 2) % 3)] = c
    return Polynomial(("x", "y"), terms)


def _value(p, point) -> Fraction:
    """A polynomial's or a quotient's value at a rational point, through pair_at."""
    return Fraction(*p.pair_at([as_pair(c) for c in point]))


@given(
    st.tuples(st.lists(small_ints, min_size=1, max_size=5), denominators),
    st.tuples(st.lists(small_ints, min_size=1, max_size=5), denominators),
    st.tuples(small_fracs, small_fracs),
)
def test_poly_arithmetic_exact(ca, cb, pt):
    """Evaluation is a ring homomorphism: on int polynomials A and B, and on
    the rational polynomials A/d and B/e as quotients."""
    a, b = _poly_from_coeffs(ca[0]), _poly_from_coeffs(cb[0])
    assert _value(a + b, pt) == _value(a, pt) + _value(b, pt)
    assert _value(a * b, pt) == _value(a, pt) * _value(b, pt)
    assert _value(a - b, pt) == _value(a, pt) - _value(b, pt)
    ra = RationalFunction(a, Polynomial.constant(a.variables, ca[1]))
    rb = RationalFunction(b, Polynomial.constant(b.variables, cb[1]))
    va, vb = _value(a, pt) / ca[1], _value(b, pt) / cb[1]
    assert _value(ra, pt) == va
    assert _value(ra + rb, pt) == va + vb
    assert _value(ra * rb, pt) == va * vb
    assert _value(ra - rb, pt) == va - vb


@given(st.tuples(small_fracs, small_fracs))
def test_evaluation_composition_coherence(point):
    phi = parse_map(["x + y", "x*y + 1"], ("x", "y"))
    psi = parse_map(["2*x - y", "y + 3"], ("x", "y"))
    comp = compose(phi, psi)
    state = tuple(as_pair(c) for c in point)
    inner = step(psi, state)
    assert inner is not None  # polynomial maps are everywhere defined
    direct = step(phi, inner)
    composed = step(comp, state)
    assert composed is not None and direct is not None
    assert composed == direct


def test_rf_equal_equivalence_properties():
    a = parse_expression("(x^2-1)/(x-1)", ("x", "y"))
    b = parse_expression("x+1", ("x", "y"))
    c = parse_expression("(x^2+x*y+x+y)/(x+y)", ("x", "y"))  # (x+1)(x+y)/(x+y)
    assert rf_equal(a, a)
    assert rf_equal(a, b) == rf_equal(b, a)
    assert rf_equal(a, b) and rf_equal(b, c) and rf_equal(a, c)
    # invariance under common nonzero polynomial factors
    y = parse_expression("y", ("x", "y"))
    scaled = RationalFunction(a.num * y.num, a.den * y.num)
    assert rf_equal(scaled, a)


def test_grlex_serialization_order():
    p = parse_expression("1 + x + y^2 + x*y + x^3", ("x", "y")).num
    assert str(p) == "x^3 + x*y + y^2 + x + 1"


def test_coefficients_are_ints():
    for coeff in (Fraction(1, 2), Fraction(2), 2.0, True):
        with pytest.raises(TypeError):
            Polynomial(("x",), {(1,): coeff})
    rf = parse_expression("x/2 - 3/4", ("x",))
    assert (rf.num.terms, rf.den.terms) == ({(1,): 2, (0,): -3}, {(0,): 4})
    assert all(type(c) is int for c in [*rf.num.terms.values(), *rf.den.terms.values()])


def test_large_power_parses_fast():
    t0 = time.perf_counter()
    rf = parse_expression("(x+y+1)^80", ("x", "y"))
    assert time.perf_counter() - t0 < 2.0
    assert len(rf.num.terms) == 3321
    assert rf.num.terms[(40, 40)] == math.comb(80, 40)
    assert rf.num.terms[(20, 30)] == math.factorial(80) // (
        math.factorial(20) * math.factorial(30) * math.factorial(30))


def test_sum_of_many_summands_is_the_polynomial():
    """x^1 + ... + x^1999 parses to the polynomial built directly, term for
    term and in the same order: summands over the denominator 1 add their
    numerators as the cross-multiplied sum would, without multiplying by 1."""
    terms = {(k,): 1 for k in range(1, 2000)}
    rf = parse_expression("+".join(f"x^{k}" for k in range(1, 2000)), ("x",))
    assert rf == RationalFunction.from_polynomial(Polynomial(("x",), terms))
    assert list(rf.num.terms.items()) == list(terms.items())
    mixed = parse_expression("x^2 - 2*x + x/3 - 1", ("x",))  # dens 1 and 3
    assert (mixed.num.terms, mixed.den.terms) == ({(2,): 3, (1,): -5, (0,): -3}, {(0,): 3})


# --- a Fraction-coefficient reference for the int arithmetic ---
#
# Polynomials are {exponents: Fraction} dicts and rational functions are
# (num, den) pairs of them, canonicalized by scaling with lcm(denominators)
# / gcd(numerators) and a sign.  Every operation mirrors the one the parser,
# `compose` and `rf_equal` apply, so the canonical pairs must agree exactly.

def ref_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def ref_mul(p: dict, q: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _grlex(e):
    return (sum(e), e)


def ref_canonical(num: dict, den: dict) -> tuple[dict, dict]:
    if not den:
        raise ZeroDenominator("reference: zero denominator")
    coeffs = [*num.values(), *den.values()]
    common = math.lcm(*[c.denominator for c in coeffs])
    scale = Fraction(common, math.gcd(*[c.numerator * (common // c.denominator) for c in coeffs]))
    if den[max(den, key=_grlex)] * scale < 0:
        scale = -scale
    return {e: c * scale for e, c in num.items()}, {e: c * scale for e, c in den.items()}


def ref_const(c, nvars: int) -> tuple[dict, dict]:
    zero = (0,) * nvars
    return ref_canonical({zero: Fraction(c)} if c else {}, {zero: Fraction(1)})


def ref_pow(p: dict, k: int, nvars: int) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, p)
    return out


def ref_op(op: str, a, b, nvars: int):
    (an, ad), (bn, bd) = a, b
    if op == "+":
        return ref_canonical(ref_add(ref_mul(an, bd), ref_mul(bn, ad)), ref_mul(ad, bd))
    if op == "-":
        return ref_op("+", a, ref_canonical({e: -c for e, c in bn.items()}, bd), nvars)
    if op == "*":
        return ref_canonical(ref_mul(an, bn), ref_mul(ad, bd))
    if not bn:
        raise ZeroDenominator("reference: division by zero")
    return ref_canonical(ref_mul(an, bd), ref_mul(ad, bn))


def ref_eval(tree, variables):
    """The reference rational function of an expression tree."""
    nvars = len(variables)
    kind = tree[0]
    if kind == "int":
        return ref_const(tree[1], nvars)
    if kind == "var":
        e = tuple(int(v == tree[1]) for v in variables)
        return ref_canonical({e: Fraction(1)}, {(0,) * nvars: Fraction(1)})
    if kind == "neg":
        n, d = ref_eval(tree[1], variables)
        return ref_canonical({e: -c for e, c in n.items()}, d)
    if kind == "^":
        n, d = ref_eval(tree[1], variables)
        return ref_canonical(ref_pow(n, tree[2], nvars), ref_pow(d, tree[2], nvars))
    return ref_op(kind, ref_eval(tree[1], variables), ref_eval(tree[2], variables), nvars)


def ref_compose(outer, inner, nvars: int):
    """Each outer component with the inner components substituted, term by term."""
    def substitute(p):
        total = ref_const(0, nvars)
        for e, c in p.items():
            part = ref_const(c, nvars)
            for arg, k in zip(inner, e):
                if k:
                    part = ref_op("*", part, ref_canonical(ref_pow(arg[0], k, nvars),
                                                           ref_pow(arg[1], k, nvars)), nvars)
            total = ref_op("+", total, part, nvars)
        return total

    return [ref_op("/", substitute(n), substitute(d), nvars) for n, d in outer]


def ref_str(rf, variables) -> str:
    def poly(p):
        out = []
        for e in sorted(p, key=_grlex, reverse=True):
            c = p[e]
            factors = [v if k == 1 else f"{v}^{k}" for v, k in zip(variables, e) if k]
            # -x^2 would read back as (-x)^2, so a leading -1 before a power is printed
            one = not factors or (not out and c == -1 and "^" in factors[0])
            body = "*".join(([str(abs(c))] if abs(c) != 1 or one else []) + factors)
            out.append(("-" if c < 0 else "") + body if not out else f"{'-' if c < 0 else '+'} {body}")
        return " ".join(out) or "0"

    num, den = rf
    return poly(num) if den == {(0,) * len(variables): 1} else f"({poly(num)})/({poly(den)})"


def tree_text(tree) -> str:
    kind = tree[0]
    if kind in ("int", "var"):
        return str(tree[1])
    if kind == "neg":
        return f"-({tree_text(tree[1])})"
    if kind == "^":
        return f"({tree_text(tree[1])})^{tree[2]}"
    return f"({tree_text(tree[1])}){kind}({tree_text(tree[2])})"


def degree_bound(tree) -> int:
    kind = tree[0]
    if kind in ("int", "var"):
        return int(kind == "var")
    if kind == "neg":
        return degree_bound(tree[1])
    if kind == "^":
        return tree[2] * degree_bound(tree[1])
    return degree_bound(tree[1]) + degree_bound(tree[2])


XY = ("x", "y")


def trees(max_degree: int):
    """Expression trees with a binary operator at the root."""
    leaves = st.one_of(st.tuples(st.just("var"), st.sampled_from(XY)),
                       st.tuples(st.just("int"), st.integers(0, 12)))
    inner = st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(st.sampled_from("+-*/"), inner, inner),
        st.tuples(st.just("neg"), inner),
        st.tuples(st.just("^"), inner, st.integers(0, 3)),
    ), max_leaves=6)
    return st.tuples(st.sampled_from("+-*/"), inner, inner).filter(
        lambda t: degree_bound(t) <= max_degree)


def parse_or_raise(tree):
    """(parsed, reference) of a tree, or None after checking both raise
    ZeroDenominator on a division by an identically zero expression."""
    try:
        expected = ref_eval(tree, XY)
    except ZeroDenominator:
        with pytest.raises(ZeroDenominator):
            parse_expression(tree_text(tree), XY)
        event("division by zero")
        return None
    return parse_expression(tree_text(tree), XY), expected


@settings(deadline=None)
@given(trees(max_degree=16))
def test_parse_matches_fraction_reference(tree):
    parsed = parse_or_raise(tree)
    if parsed is not None:
        rf, expected = parsed
        event("constant den" if len(expected[1]) == 1 and (0, 0) in expected[1]
              else "nonconstant den")
        assert (rf.num.terms, rf.den.terms) == expected
        assert all(type(c) is int for c in [*rf.num.terms.values(), *rf.den.terms.values()])
        assert str(rf) == ref_str(expected, XY)


@settings(deadline=None)
@given(trees(max_degree=16))
def test_str_parses_back(tree):
    try:
        rf = parse_expression(tree_text(tree), XY)
    except ZeroDenominator:
        return
    assert parse_expression(str(rf), XY) == rf


@settings(deadline=None)
@given(st.lists(trees(max_degree=3), min_size=4, max_size=4))
def test_compose_matches_fraction_reference(components):
    parsed = [parse_or_raise(t) for t in components]
    if None in parsed:
        return
    outer = RationalMap(XY, (parsed[0][0], parsed[1][0]))
    inner = RationalMap(XY, (parsed[2][0], parsed[3][0]))
    try:
        expected = ref_compose([p[1] for p in parsed[:2]], [p[1] for p in parsed[2:]], 2)
    except ZeroDenominator:
        with pytest.raises(ZeroDenominator):
            compose(outer, inner)
        return
    got = compose(outer, inner).components
    assert [(c.num.terms, c.den.terms) for c in got] == expected
    assert [str(c) for c in got] == [ref_str(e, XY) for e in expected]


@settings(deadline=None)
@given(trees(max_degree=6), trees(max_degree=6), st.data())
def test_rf_equal_matches_fraction_reference(a, c, data):
    b = data.draw(st.sampled_from([c, ("/", ("*", a, c), c), ("-", ("+", a, c), c)]))
    pa, pb = parse_or_raise(a), parse_or_raise(b)
    if pa is not None and pb is not None:
        (ra, (an, ad)), (rb, (bn, bd)) = pa, pb
        expected = ref_mul(an, bd) == ref_mul(bn, ad)
        event(f"equal: {expected}")
        assert rf_equal(ra, rb) == expected
