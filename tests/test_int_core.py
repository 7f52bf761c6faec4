"""Differential tests: the integer core against a Fraction reference evaluator.

The oracle below works in `Fraction` arithmetic: polynomials are summed
term by term, P^1 values are canonicalized through the validating public
constructor, and orbits are stepped one `Fraction` point at a time.  The
compiled integer evaluators, `apply_map`, and the int-pair stepper behind
`iterate_orbit` and `iterate_points` must agree with it exactly, including
where numerators or denominators vanish.
"""

import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import event, given, settings, strategies as st

from orbitheight.exact import P1Value, as_pair
from orbitheight.orbit import (
    COMPLETED,
    HIT_MAP_INDETERMINACY,
    HIT_OBSERVABLE_INDETERMINACY,
    iterate_orbit,
    iterate_points,
    step,
)
from orbitheight.poly import (
    INDETERMINATE,
    Polynomial,
    RationalFunction,
    RationalMap,
    apply_map,
    evaluate,
    parse_expression,
)

VARIABLES = ("x", "y", "z")


# --- the Fraction oracle ---

def oracle_poly(poly: Polynomial, point) -> Fraction:
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        value = Fraction(coeff)
        for base, e in zip(point, exps):
            value *= Fraction(base) ** e
        total += value
    return total


def oracle_p1(num: Fraction, den: Fraction) -> P1Value:
    if den == 0:
        return P1Value((1, 0))
    q = num / den
    coords = (q.numerator, q.denominator)
    if q < 0:
        coords = (-coords[0], -coords[1])
    return P1Value(coords)


def oracle_evaluate(rf: RationalFunction, point):
    n, d = oracle_poly(rf.num, point), oracle_poly(rf.den, point)
    if n == 0 and d == 0:
        return INDETERMINATE
    return oracle_p1(n, d)


def oracle_apply_map(phi: RationalMap, point):
    values = []
    for i, comp in enumerate(phi.components):
        v = oracle_evaluate(comp, point)
        if v is INDETERMINATE:
            return ("indeterminate", i)
        if v.is_infinity:
            return ("infinity", i)
        values.append(Fraction(v.coords[0], v.coords[1]))
    return ("ok", values)


def oracle_orbit(phi, observable, start, n_max):
    """(points, values, stop_reason, stop_index) of the former stepping loop."""
    point = tuple(Fraction(c) for c in start)
    points, values = [], []
    for n in range(n_max + 1):
        value = oracle_evaluate(observable, point)
        if value is INDETERMINATE:
            return points, values, HIT_OBSERVABLE_INDETERMINACY, n
        points.append(point)
        values.append(value)
        if n == n_max:
            break
        status, nxt = oracle_apply_map(phi, point)
        if status != "ok":
            return points, values, HIT_MAP_INDETERMINACY, n + 1
        point = tuple(nxt)
    return points, values, COMPLETED, None


def oracle_points(phi, start, n_steps):
    point = tuple(Fraction(c) for c in start)
    points = [point]
    for n in range(n_steps):
        status, nxt = oracle_apply_map(phi, point)
        if status != "ok":
            return points, n + 1
        point = tuple(nxt)
        points.append(point)
    return points, None


# --- strategies ---

small_rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)


@st.composite
def polynomials(draw, variables, max_degree=3, max_terms=4):
    nvars = len(variables)
    exps = st.tuples(*[st.integers(0, max_degree)] * nvars)
    terms = draw(st.dictionaries(exps, small_rationals, max_size=max_terms))
    return Polynomial(variables, terms)


@st.composite
def monic_polynomials(draw, variables, max_degree=4):
    """c_D x^D + ... + c_0 in one variable x with integer c_k and c_D = +-1:
    the numerators that compile to forms flagged as always reduced."""
    i = draw(st.integers(0, len(variables) - 1))
    degree = draw(st.integers(0, max_degree))
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=degree, max_size=degree))
    coeffs.append(draw(st.sampled_from((1, -1))))
    return Polynomial(variables, {
        tuple(k if j == i else 0 for j in range(len(variables))): Fraction(c)
        for k, c in enumerate(coeffs)
    })


@st.composite
def one_variable_quotients(draw, variables, max_degree=4):
    """num/den with integer coefficients of degree <= max_degree in one
    variable: Moebius maps, (x^2+c)/(x+d), monic polynomials and the like,
    whose compiled forms know their resultant when it is nonzero."""
    i = draw(st.integers(0, len(variables) - 1))

    def poly(coeffs):
        return Polynomial(variables, {
            tuple(k if j == i else 0 for j in range(len(variables))): Fraction(c)
            for k, c in enumerate(coeffs)
        })

    coeffs = st.lists(st.integers(-6, 6), max_size=max_degree + 1)
    num, den = poly(draw(coeffs)), poly(draw(coeffs))
    if den.is_zero():
        den = Polynomial.constant(variables, draw(st.sampled_from((1, -2, 3))))
    return RationalFunction(num, den)


def vanishing_at(poly: Polynomial, point) -> Polynomial:
    """poly minus its value at point: a polynomial through that point."""
    value = oracle_poly(poly, point)
    return poly - Polynomial.constant(poly.variables, value)


@st.composite
def rational_function_and_point(draw):
    nvars = draw(st.integers(1, 3))
    variables = VARIABLES[:nvars]
    point = tuple(draw(st.lists(small_rationals, min_size=nvars, max_size=nvars)))
    num = draw(polynomials(variables))
    den = draw(polynomials(variables))
    if draw(st.booleans()):
        num = vanishing_at(num, point)
    if draw(st.booleans()):
        den = vanishing_at(den, point)
        if den.is_zero():  # a constant den: vanish through x - x_0 instead
            den = vanishing_at(Polynomial.variable(variables, variables[0]), point)
    elif den.is_zero():
        den = Polynomial.constant(variables, draw(small_rationals.map(lambda q: q or 1)))
    return RationalFunction(num, den), point


@st.composite
def maps_and_starts(draw):
    """Low-degree self-maps in 1 or 2 variables, with small starts, so that
    short orbits meet vanishing denominators often."""
    nvars = draw(st.integers(1, 2))
    variables = VARIABLES[:nvars]
    comps = []
    for _ in range(nvars + 1):  # nvars map components plus the observable
        kind = draw(st.sampled_from(("monic", "quotient", "general")))
        if kind == "monic":  # |R| = 1: a form that skips its gcd
            comps.append(RationalFunction.from_polynomial(
                draw(monic_polynomials(variables, max_degree=2))
            ))
            continue
        if kind == "quotient":  # a gcd on residues mod R, or the full gcd if R = 0
            comps.append(draw(one_variable_quotients(variables, max_degree=2)))
            continue
        num = draw(polynomials(variables, max_degree=2, max_terms=3))
        den = draw(polynomials(variables, max_degree=1, max_terms=2))
        if den.is_zero():
            den = Polynomial.constant(variables, 1)
        comps.append(RationalFunction(num, den))
    start = tuple(draw(st.lists(small_rationals, min_size=nvars, max_size=nvars)))
    return RationalMap(variables, tuple(comps[:-1])), comps[-1], start


# --- differential checks ---

@given(rational_function_and_point())
def test_evaluate_matches_fraction_oracle(case):
    rf, point = case
    expected = oracle_evaluate(rf, point)
    event("indeterminate" if expected is INDETERMINATE
          else "infinity" if expected.is_infinity else "affine")
    assert evaluate(rf, point) == expected
    assert rf.num.evaluate(point) == oracle_poly(rf.num, point)
    assert rf.den.evaluate(point) == oracle_poly(rf.den, point)


wide_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=60),
)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    monic_polynomials(VARIABLES[:n]),
    st.lists(wide_rationals, min_size=n, max_size=n),
)))
def test_monic_forms_are_flagged_and_reduced(case):
    poly, point = case
    rf = RationalFunction.from_polynomial(poly)
    assert rf.form.resultant == 1
    num, den = rf.pair_at([as_pair(p) for p in point])
    assert den > 0 and gcd(num, den) == 1
    assert Fraction(num, den) == oracle_poly(poly, point)
    assert evaluate(rf, point) == oracle_evaluate(rf, point)


@pytest.mark.parametrize("text, variables, point", [
    ("2*x+1", ("x",), (Fraction(1, 2),)),  # top coefficient 2
    ("x/2+1", ("x",), (Fraction(0),)),  # denominator 2
    ("x*y+1", ("x", "y"), (Fraction(1, 2), Fraction(2))),  # two variables
    ("x+y", ("x", "y"), (Fraction(1, 2), Fraction(1, 2))),
    ("(x^2+1)/(x+2)", ("x",), (Fraction(3),)),  # nonconstant denominator
])
def test_unflagged_forms_cancel_and_match_oracle(text, variables, point):
    rf = parse_expression(text, variables)
    assert rf.form.resultant != 1
    num, den = rf.pair_at([as_pair(p) for p in point])
    assert gcd(num, den) > 1  # the gcd this form keeps is really needed
    assert evaluate(rf, point) == oracle_evaluate(rf, point)
    phi = RationalMap(variables, (rf,) * len(variables))
    points, values, _, _ = oracle_orbit(phi, rf, point, 1)
    trace = iterate_orbit(phi, rf, point, 1)
    assert [row.state for row in trace.rows] == [tuple(map(as_pair, p)) for p in points]
    assert [row.value for row in trace.rows] == values


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    one_variable_quotients(VARIABLES[:n]),
    st.lists(wide_rationals, min_size=n, max_size=n),
)))
def test_resultant_bounds_the_gcd(case):
    rf, point = case
    variables = rf.variables
    form = rf.form
    pairs = [as_pair(p) for p in point]
    num, den = form.pair_at(pairs)
    expected = oracle_evaluate(rf, point)
    event("R = 0" if form.resultant == 0 else "|R| = 1" if form.resultant == 1 else "|R| > 1")
    event("den < 0" if den < 0 else "den = 0" if den == 0 else "den > 0")
    assert evaluate(rf, point) == expected
    if expected is INDETERMINATE:
        assert form.resultant == 0
        return
    g = gcd(num, den)
    assert form.divisor(num, den) == g
    assert form.resultant % g == 0
    out = step(RationalMap(variables, (rf,) * len(variables)), pairs)
    if expected.is_infinity:
        assert out is None
    else:
        assert out == (as_pair(expected.as_fraction()),) * len(variables)


@pytest.mark.parametrize("text, point, resultant, pair, reduced", [
    ("(x^2+1)/(x+2)", 3, 5, (10, 5), (2, 1)),  # the full factor R = 5 cancels
    ("(x^2-1)/(x-1)", 3, 0, (8, 2), (4, 1)),  # R = 0: a common root, full gcd
    ("x/(x+1)", -2, 1, (-2, -1), (2, 1)),  # |R| = 1, yet the sign flips
    ("x/2+1", 0, 2, (2, 2), (1, 1)),  # constant den c: |R| = |c f_D|^D
    ("(x+3)/6", 3, 6, (6, 6), (1, 1)),
])
def test_resultant_fixed_cases(text, point, resultant, pair, reduced):
    rf = parse_expression(text, ("x",))
    assert rf.form.resultant == resultant
    assert rf.pair_at([(point, 1)]) == pair
    assert step(RationalMap(("x",), (rf,)), ((point, 1),)) == (reduced,)
    assert evaluate(rf, (point,)) == P1Value(reduced) == oracle_evaluate(rf, (point,))


@pytest.mark.parametrize("variables", [(), ("x", "y")])
def test_constant_forms_skip_the_gcd(variables):
    rf = parse_expression("-6/4", variables)
    assert rf.form.resultant == 1
    assert evaluate(rf, (Fraction(1, 2),) * len(variables)) == P1Value((3, -2))


def test_resultant_build_cost_is_capped():
    """Past the degree cap the Sylvester determinant is not taken (its cost
    grows as D^3); a constant den keeps its O(1) closed form at any degree."""
    x = ("x",)
    t0 = time.perf_counter()
    num = " + ".join(f"{k % 7 + 1}*x^{k}" for k in range(65))
    den = " + ".join(f"{k % 5 + 2}*x^{k}" for k in range(64))
    rf = parse_expression(f"({num})/({den})", x)
    assert rf.form.resultant == 0
    assert step(RationalMap(x, (rf,)), ((2, 3),)) is not None
    assert time.perf_counter() - t0 < 0.5
    monic = parse_expression("x^40 - 7*x^3 + 5", x)
    assert monic.form.resultant == 1
    assert parse_expression("3*x^40 + 1", x).form.resultant == 3**40


@given(maps_and_starts())
def test_apply_map_matches_fraction_oracle(case):
    phi, _, start = case
    assert apply_map(phi, start) == oracle_apply_map(phi, start)


@settings(max_examples=200)
@given(maps_and_starts(), st.integers(0, 6))
def test_stepper_matches_fraction_oracle(case, n_max):
    phi, observable, start = case
    points, values, stop_reason, stop_index = oracle_orbit(phi, observable, start, n_max)
    event(stop_reason)
    trace = iterate_orbit(phi, observable, start, n_max)
    assert (trace.stop_reason, trace.stop_index) == (stop_reason, stop_index)
    assert [row.point for row in trace.rows] == points
    assert [row.value for row in trace.rows] == values
    # states are reduced pairs with positive denominators
    assert [row.state for row in trace.rows] == [
        tuple((q.numerator, q.denominator) for q in p) for p in points
    ]

    assert iterate_points(phi, start, n_max) == oracle_points(phi, start, n_max)


def test_oracle_cases_cover_every_stop():
    """Fixed orbits for each stop reason, with the oracle as the expected value."""
    x = ("x",)
    t = Polynomial.variable(x, "x")
    one = Polynomial.constant(x, 1)
    recip = RationalMap(x, (RationalFunction(one, t),))  # 1/x
    ident = RationalFunction.from_polynomial(t)
    pole = RationalFunction(one, t - one)  # 1/(x-1)
    shift = RationalMap(x, (RationalFunction.from_polynomial(t + one),))
    cases = [
        (recip, ident, (Fraction(2),), 4, COMPLETED),
        (recip, ident, (Fraction(0),), 4, HIT_MAP_INDETERMINACY),
        (shift, pole, (Fraction(-2),), 5, COMPLETED),  # value at infinity is a value
        (shift, RationalFunction(t - one, t - one), (Fraction(-1),), 5,
         HIT_OBSERVABLE_INDETERMINACY),
    ]
    for phi, observable, start, n_max, expected in cases:
        points, values, stop_reason, stop_index = oracle_orbit(phi, observable, start, n_max)
        assert stop_reason == expected
        trace = iterate_orbit(phi, observable, start, n_max)
        assert (trace.stop_reason, trace.stop_index) == (stop_reason, stop_index)
        assert [row.point for row in trace.rows] == points
        assert [row.value for row in trace.rows] == values
