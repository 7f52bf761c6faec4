from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbitheight.errors import (
    DimensionMismatch,
    ExpressionSyntaxError,
    UnknownVariable,
    ZeroDenominator,
)
from orbitheight.poly import (
    INDETERMINATE,
    Polynomial,
    RationalFunction,
    apply_map,
    compose,
    evaluate,
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


def test_parse_errors():
    with pytest.raises(UnknownVariable) as exc:
        parse_expression("x + w", XYZ)
    assert exc.value.position == 4

    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x +", XYZ)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(x", XYZ)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x ^ y", XYZ)  # exponent must be a literal
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x ^ -2", XYZ)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("3 $ 4", XYZ)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x y", XYZ)  # no implicit multiplication


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
    texts = ["(x^2-1)/(x-1)", "2*x - 3*y^2 + 1", "x/y + z/2", "-(x+1)/(y-2)"]
    for text in texts:
        first = parse_expression(text, XYZ)
        again = parse_expression(str(first), XYZ)
        assert first == again, text


def test_evaluate_examples():
    rf = parse_expression("x/y", ("x", "y"))
    assert evaluate(rf, [Fraction(3), Fraction(2)]).coords == (3, 2)
    assert evaluate(rf, [Fraction(3), Fraction(0)]).coords == (1, 0)
    assert evaluate(rf, [Fraction(0), Fraction(0)]) is INDETERMINATE


def test_indeterminate_is_singleton():
    from orbitheight.poly import Indeterminate

    assert Indeterminate() is INDETERMINATE
    assert repr(INDETERMINATE) == "Indeterminate"


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


small_fracs = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


def _poly_from_coeffs(coeffs):
    terms = {}
    for i, c in enumerate(coeffs):
        terms[(i % 3, (i * 2) % 3)] = c
    return Polynomial(("x", "y"), terms)


@given(
    st.lists(small_fracs, min_size=1, max_size=5),
    st.lists(small_fracs, min_size=1, max_size=5),
    st.tuples(small_fracs, small_fracs),
)
def test_poly_arithmetic_exact(ca, cb, point):
    a = _poly_from_coeffs(ca)
    b = _poly_from_coeffs(cb)
    pt = list(point)
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
    assert (a - b).evaluate(pt) == a.evaluate(pt) - b.evaluate(pt)


@given(st.tuples(small_fracs, small_fracs))
def test_evaluation_composition_coherence(point):
    phi = parse_map(["x + y", "x*y + 1"], ("x", "y"))
    psi = parse_map(["2*x - y", "y + 3"], ("x", "y"))
    comp = compose(phi, psi)
    pt = list(point)
    inner_out = apply_map(psi, pt)
    assert inner_out[0] == "ok"  # polynomial maps are everywhere defined
    direct = apply_map(phi, inner_out[1])
    composed = apply_map(comp, pt)
    assert composed[0] == "ok" and direct[0] == "ok"
    assert composed[1] == direct[1]


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
