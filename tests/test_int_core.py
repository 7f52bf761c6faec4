"""Differential tests: the integer core against a Fraction reference evaluator.

The oracle below works in `Fraction` arithmetic: polynomials are summed
term by term, P^1 values are canonicalized through the validating public
constructor, and orbits are stepped one `Fraction` point at a time.  The
compiled integer evaluators behind `pair_at` and `p1_pair`, the int-pair
stepper `step` behind `iterate_orbit` and `iterate_states`, and the return
sets of `dml` must agree with it exactly, including where numerators or
denominators vanish.  Orbit reports are checked the same way, against
`csv.writer` fed from the oracle.

Polynomials hold int coefficients, so the strategies draw those, and a
rational coefficient comes in as a separately drawn common denominator of a
rational function's num or den.
"""

import csv
import io
import json
import math
import pickle
import sys
import time
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import event, example, given, settings, strategies as st

from orbitheight.cli import run_job
from orbitheight.dml import Subvariety, return_set
from orbitheight.errors import DimensionMismatch, OrbitUndefined, ValueTooLarge
from orbitheight.exact import P1Value, as_pair, height_projective
from orbitheight import orbit as orbit_mod
from orbitheight.orbit import (
    COMPLETED,
    HIT_MAP_INDETERMINACY,
    HIT_OBSERVABLE_INDETERMINACY,
    iterate_orbit,
    iterate_states,
    step,
    trace_to_csv,
)
from orbitheight.poly import (
    Polynomial,
    RationalFunction,
    RationalMap,
    _IntForm,
    p1_pair,
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
    """The P^1 value of rf at a rational point, None where it is 0/0."""
    n, d = oracle_poly(rf.num, point), oracle_poly(rf.den, point)
    if n == 0 and d == 0:
        return None
    return oracle_p1(n, d)


def oracle_apply_map(phi: RationalMap, point):
    values = []
    for i, comp in enumerate(phi.components):
        v = oracle_evaluate(comp, point)
        if v is None:
            return ("indeterminate", i)
        if v.is_infinity:
            return ("infinity", i)
        values.append(Fraction(v.coords[0], v.coords[1]))
    return ("ok", values)


def oracle_step(phi: RationalMap, point):
    """The next state as reduced pairs, None where phi leaves the affine chart."""
    status, values = oracle_apply_map(phi, point)
    return tuple(map(as_pair, values)) if status == "ok" else None


# --- the integer core, at rational points ---

def pairs_of(point):
    return tuple(map(as_pair, point))


def int_value(rf: RationalFunction, point):
    """`p1_pair` at a rational point, through the validating P1Value, or None."""
    coords = p1_pair(rf, pairs_of(point))
    return None if coords is None else P1Value(coords)


def poly_value(poly: Polynomial, point) -> Fraction:
    return Fraction(*poly.pair_at(pairs_of(point)))


def oracle_orbit(phi, observable, start, n_max):
    """(points, values, stop_reason, stop_index) of the former stepping loop."""
    point = tuple(Fraction(c) for c in start)
    points, values = [], []
    for n in range(n_max + 1):
        value = oracle_evaluate(observable, point)
        if value is None:
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


def oracle_trace_csv(points, values) -> str:
    """The orbit report of oracle points and values, field by field through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "point", "value", "height", "ratio"])
    for n, (point, value) in enumerate(zip(points, values)):
        p, q = value.coords
        height = math.log(max(abs(p), abs(q)))
        ratio = "" if n <= 1 else f"{height / math.log(n):.6f}"
        writer.writerow([n, ";".join(str(c) for c in point), f"({p}:{q})", f"{height:.6f}", ratio])
    return buf.getvalue()


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


def oracle_return_set(phi, start, equations, horizon):
    """(hits, first undefined index or None) of the orbit on the equations' zero set."""
    points, stop = oracle_points(phi, start, horizon)
    hits = [n for n, p in enumerate(points) if all(oracle_poly(eq, p) == 0 for eq in equations)]
    return hits, stop


# --- strategies ---

small_rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)
small_ints = st.integers(-12, 12)
# A common denominator d of num (or den) enters a quotient (num/d)/(den/e)
# as (num*e)/(den*d), so each quotient below scales by two drawn ones.
denominators = st.integers(1, 12)


@st.composite
def polynomials(draw, variables, max_degree=3, max_terms=4):
    nvars = len(variables)
    exps = st.tuples(*[st.integers(0, max_degree)] * nvars)
    terms = draw(st.dictionaries(exps, small_ints, max_size=max_terms))
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
        tuple(k if j == i else 0 for j in range(len(variables))): c
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
            tuple(k if j == i else 0 for j in range(len(variables))): c
            for k, c in enumerate(coeffs)
        })

    coeffs = st.lists(st.integers(-6, 6), max_size=max_degree + 1)
    num, den = poly(draw(coeffs)), poly(draw(coeffs))
    if den.is_zero():
        den = Polynomial.constant(variables, draw(st.sampled_from((1, -2, 3))))
    return RationalFunction(num, den)


def vanishing_at(poly: Polynomial, point) -> Polynomial:
    """q*poly - p for the value p/q of poly at point: a polynomial through
    that point, poly minus its value up to the positive factor q."""
    value = oracle_poly(poly, point)
    return poly.scale(value.denominator) - Polynomial.constant(poly.variables, value.numerator)


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
        den = Polynomial.constant(variables, draw(small_ints.filter(bool)))
    return RationalFunction(num.scale(draw(denominators)), den.scale(draw(denominators))), point


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
        comps.append(RationalFunction(num.scale(draw(denominators)), den.scale(draw(denominators))))
    start = tuple(draw(st.lists(small_rationals, min_size=nvars, max_size=nvars)))
    return RationalMap(variables, tuple(comps[:-1])), comps[-1], start


# --- differential checks ---

@given(rational_function_and_point())
def test_evaluate_matches_fraction_oracle(case):
    rf, point = case
    expected = oracle_evaluate(rf, point)
    event("indeterminate" if expected is None
          else "infinity" if expected.is_infinity else "affine")
    assert int_value(rf, point) == expected
    assert poly_value(rf.num, point) == oracle_poly(rf.num, point)
    assert poly_value(rf.den, point) == oracle_poly(rf.den, point)
    assert rf.form.pair_at.__code__.co_names == ()  # arithmetic only, no global name


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
    assert int_value(rf, point) == oracle_evaluate(rf, point)


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
    assert int_value(rf, point) == oracle_evaluate(rf, point)
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
    assert int_value(rf, point) == expected
    value = form.value(pairs)
    if expected is None:
        assert form.resultant == 0
        assert value is None
        return
    g = gcd(num, den)
    assert form.resultant % g == 0
    sign = -1 if den < 0 or (den == 0 and num < 0) else 1
    assert value == (sign * num // g, sign * den // g)
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
    assert int_value(rf, (point,)) == P1Value(reduced) == oracle_evaluate(rf, (point,))


@pytest.mark.parametrize("text, point, resultant, value", [
    ("x/(x+1)", -2, 1, (2, 1)),  # den < 0, the gcd skipped
    ("(x^2+1)/(x-8)", 3, 65, (-2, 1)),  # den < 0, the gcd 5 taken mod R
    ("-1/x", 0, 1, (1, 0)),  # den = 0 with num < 0
    ("(x-2)/x", 0, 2, (1, 0)),
    ("(x^2-1)/(x-1)", 1, 0, None),  # 0/0 on an R = 0 form
])
def test_value_fixed_cases(text, point, resultant, value):
    form = parse_expression(text, ("x",)).form
    assert form.resultant == resultant
    assert form.value([(point, 1)]) == value


@pytest.mark.parametrize("job, calls", [
    ({"kind": "orbit", "variables": ["x"], "map": ["x+1"], "observable": "x",
      "start": ["0"], "N": 30}, 30 + 31),
    ({"kind": "commuting", "variables": ["x"], "maps": [["x+1"], ["x+2"]],
      "observable": "x", "start": ["0"], "N": 5}, 20 + 21),
    ({"kind": "dfinite", "order": 1, "coeffs": ["-(n+1)", "1"], "initial": {"0": "1"},
      "N": 40}, 40),
    ({"kind": "gap", "variables": ["x", "y"], "map": ["y", "x+y"], "observable": "x",
      "start": ["0", "1"], "N": 10}, 2 * 10 + 11),
])
def test_every_exact_value_comes_from_one_method(job, calls, tmp_path, monkeypatch):
    """Each map step, observed value and expanded term of a job is one
    `_IntForm.value` call, so a value made anywhere else shows here."""
    count = 0
    value = _IntForm.value

    def counted(form, pairs):
        nonlocal count
        count += 1
        return value(form, pairs)

    monkeypatch.setattr(_IntForm, "value", counted)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    run_job(path, out_dir=tmp_path)
    assert count == calls


@pytest.mark.parametrize("variables", [(), ("x", "y")])
def test_constant_forms_skip_the_gcd(variables):
    rf = parse_expression("-6/4", variables)
    assert rf.form.resultant == 1
    assert int_value(rf, (Fraction(1, 2),) * len(variables)) == P1Value((3, -2))


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
    """One application of the map: `step` against the oracle's."""
    phi, _, start = case
    assert step(phi, pairs_of(start)) == oracle_step(phi, start)


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
    # the columns the views read: states, canonical (p, q), heights
    assert trace.states == tuple(row.state for row in trace.rows)
    assert trace.coords == tuple(v.coords for v in values)
    assert trace.h == trace.heights() == tuple(height_projective(v) for v in values)
    assert list(trace.values()) == values

    points, stop_index = oracle_points(phi, start, n_max)
    assert iterate_states(phi, start, n_max) == ([pairs_of(p) for p in points], stop_index)


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


_XY = ("x", "y")
_PAST_STR_LIMIT = (  # h(x^2 y^2) at n = 6 runs to about 16000 bits
    RationalMap(_XY, (parse_expression("x*y^2", _XY), parse_expression("x^2*y^2", _XY))),
    parse_expression("x^2*y^2", _XY),
    (Fraction(3), Fraction(5, 2)),
)


@settings(max_examples=200)
@given(maps_and_starts(), st.integers(0, 6))
@example(_PAST_STR_LIMIT, 6)
def test_trace_csv_matches_reference_formatter(case, n_max):
    """Where an integer of the report is past the int-to-str limit, the
    reference formatter raises ValueError and trace_to_csv ValueTooLarge."""
    phi, observable, start = case
    points, values, _, _ = oracle_orbit(phi, observable, start, n_max)
    trace = iterate_orbit(phi, observable, start, n_max)
    try:
        expected = oracle_trace_csv(points, values)
    except ValueError:
        event("past the int-to-str limit")
        with pytest.raises(ValueTooLarge):
            trace_to_csv(trace)
    else:
        assert trace_to_csv(trace) == expected


def test_trace_csv_fixed_cases():
    """Digit strings reused across rows, signs that flip from row to row,
    values at infinity, and p/q points; the Fibonacci trace formats each
    integer once."""
    cases = [
        (["y", "x+y"], "x/y", ["0", "1"], 40),  # point and value share F_n, F_(n+1)
        (["-x"], "x", ["2"], 5),  # 2 and -2 alternate between rows
        (["y", "-x"], "x-y", ["3", "-3"], 6),  # -3 and 3 in one row
        (["x+1"], "1/(x+3)", ["-6"], 8),  # the value (1:0) at n = 3
        (["x/2+1/3"], "(x-1)/(x+1)", ["-3/7"], 10),  # p/q points and values
    ]
    for components, obs, start_text, n_max in cases:
        variables = VARIABLES[: len(components)]
        phi = RationalMap(variables, tuple(parse_expression(c, variables) for c in components))
        observable = parse_expression(obs, variables)
        start = tuple(Fraction(c) for c in start_text)
        points, values, _, _ = oracle_orbit(phi, observable, start, n_max)
        assert trace_to_csv(iterate_orbit(phi, observable, start, n_max)) == \
            oracle_trace_csv(points, values), components


def test_trace_csv_formats_each_integer_once(monkeypatch):
    calls = []
    monkeypatch.setattr(orbit_mod, "format_int", lambda k: calls.append(k) or str(k))
    phi = RationalMap(("x", "y"), (parse_expression("y", ("x", "y")),
                                   parse_expression("x+y", ("x", "y"))))
    trace = iterate_orbit(phi, parse_expression("x/y", ("x", "y")), (Fraction(0), Fraction(1)), 60)
    trace_to_csv(trace)
    assert sorted(calls) == sorted({k for row in trace.rows for k in chain(*row.state, row.value.coords)})


@settings(max_examples=200)
@given(maps_and_starts(), st.integers(0, 6), st.data())
def test_return_set_matches_fraction_oracle(case, horizon, data):
    phi, _, start = case
    points, _ = oracle_points(phi, start, horizon)
    # the first equation vanishes at a drawn orbit point, so hits are common
    through = points[data.draw(st.integers(0, len(points) - 1))]
    equations = [vanishing_at(data.draw(polynomials(phi.variables, max_degree=2)), through)]
    if data.draw(st.booleans()):
        equations.append(data.draw(polynomials(phi.variables, max_degree=2)))
    hits, stop = oracle_return_set(phi, start, equations, horizon)
    event("undefined" if stop is not None else f"{len(hits)} hits")
    if stop is not None:
        with pytest.raises(OrbitUndefined) as exc:
            return_set(phi, start, Subvariety(tuple(equations)), horizon)
        assert exc.value.n == stop
    else:
        assert return_set(phi, start, Subvariety(tuple(equations)), horizon) == hits


# --- the generated evaluators ---

# names the generated source uses for its own locals, and builtins
NAMES = ("a0", "b0", "a0_2", "pairs", "gcd", "__import__")


@pytest.mark.parametrize("point", [
    (Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 7), Fraction(2, 9), Fraction(-1, 4)),
    (Fraction(3), Fraction(2, 3), Fraction(-5, 2), Fraction(1), Fraction(0), Fraction(7, 3)),
])
def test_generated_source_ignores_variable_names(point):
    texts = [
        "(a0^2*b0 - 3*a0_2 + pairs*gcd - __import__^3 + 7)/(b0^2 + 2*__import__ + 5)",
        "a0_2 - pairs^4/6 + 1",
        "gcd*__import__ - b0/3",
    ]
    for text in texts:
        rf = parse_expression(text, NAMES)
        assert int_value(rf, point) == oracle_evaluate(rf, point)
        assert poly_value(rf.num, point) == oracle_poly(rf.num, point)
    phi = RationalMap(NAMES, tuple(parse_expression(t, NAMES) for t in texts * 2))
    assert step(phi, pairs_of(point)) == oracle_step(phi, point)


@pytest.mark.parametrize("text, variables", [
    ("x^2+1", ("x",)),
    ("y+1", ("x", "y", "z")),  # x and z unused
    ("-6/4", ("x", "y")),  # no variable used
    ("5", ()),
])
def test_wrong_length_point_raises(text, variables):
    """Every public entry that evaluates a form states the length rule of
    `_IntForm.value`; the generated evaluator itself holds arithmetic only."""
    rf = parse_expression(text, variables)
    phi = RationalMap(variables, (rf,))
    n = len(variables)
    for wrong in {n + 1, max(n - 1, 0)} - {n}:
        pairs = [(1, 2)] * wrong
        for entry in (rf.pair_at, rf.num.pair_at, lambda p: p1_pair(rf, p),
                      lambda p: step(phi, p)):
            with pytest.raises(DimensionMismatch,
                               match=f"^point has {wrong} coordinates, expected {n}$"):
                entry(pairs)
    for form in (rf.form, rf.num._form):
        assert form.pair_at.__code__.co_names == ()


def test_malformed_pair_of_a_right_length_point_raises_value_error():
    """A point of the right length whose pair does not unpack is no length
    mismatch: the ValueError of the unpacking comes through unchanged."""
    rf = parse_expression("x^2+1", ("x",))
    phi = RationalMap(("x",), (rf,))
    for entry in (rf.pair_at, rf.num.pair_at, lambda p: p1_pair(rf, p),
                  lambda p: step(phi, p)):
        with pytest.raises(ValueError, match="too many values to unpack") as caught:
            entry([(1, 2, 3)])
        assert type(caught.value) is ValueError


def test_coefficient_past_the_int_str_limit():
    """Coefficients are bound into the generated code, never printed in it."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rf = parse_expression("x*10^5000+1", ("x",))
        point = (Fraction(1, 3),)
        assert rf.pair_at([(1, 3)]) == (10**5000 + 3, 3)
        assert int_value(rf, point) == oracle_evaluate(rf, point)
    finally:
        sys.set_int_max_str_digits(old)


def test_generated_source_does_not_grow_with_the_degree():
    t0 = time.perf_counter()
    rf = parse_expression("x^20000", ("x",))
    assert rf.pair_at([(1, 3)]) == (1, 3**20000)
    assert time.perf_counter() - t0 < 0.2


def test_forms_with_thousands_of_terms_and_factors():
    """Sums and products far longer than the compiler's recursion limit allows
    as flat chains: the 5,456 monomials of degree <= 30 in x, y, z, and a
    70-variable form whose every term has 70 factors."""
    xyz = ("x", "y", "z")
    # the coefficients c/(1 + k % 2) over their common denominator 2
    num = Polynomial(xyz, {
        (i, j, k): (-1) ** (i + j) * (1 + (i * 7 + j * 3 + k) % 5) * (2 - k % 2)
        for i in range(31) for j in range(31 - i) for k in range(31 - i - j)
    })
    assert len(num.terms) == 5456
    x, y = Polynomial.variable(xyz, "x"), Polynomial.variable(xyz, "y")
    big = RationalFunction(num, (x * x + y + Polynomial.constant(xyz, 3)).scale(2))
    point = (Fraction(1, 3), Fraction(-2, 5), Fraction(7))
    assert int_value(big, point) == oracle_evaluate(big, point)
    assert poly_value(num, point) == oracle_poly(num, point)
    phi = RationalMap(xyz, (big, parse_expression("x + y", xyz), parse_expression("z", xyz)))
    status, values = oracle_apply_map(phi, point)
    assert status == "ok"
    assert step(phi, tuple(as_pair(c) for c in point)) == tuple(as_pair(v) for v in values)

    names = tuple(f"v{i}" for i in range(70))
    terms = {(1,) * 70: 3}
    for i in range(70):
        terms[tuple(int(j == i) for j in range(70))] = -1 if i % 2 else i + 2
    wide = RationalFunction.from_polynomial(Polynomial(names, terms))
    point = tuple(Fraction(1 + i % 4, 1 + i % 3) for i in range(70))
    assert int_value(wide, point) == oracle_evaluate(wide, point)


def test_forms_pickle_after_evaluation():
    rf = parse_expression("(3*x^2*y - y + 1)/(x + 2)", ("x", "y"))
    phi = RationalMap(("x", "y"), (rf, parse_expression("y^2", ("x", "y"))))
    point = (Fraction(1, 3), Fraction(-2))
    expected = (int_value(rf, point), poly_value(rf.num, point), step(phi, pairs_of(point)))
    copy = pickle.loads(pickle.dumps((rf, phi)))
    assert (int_value(copy[0], point), poly_value(copy[0].num, point),
            step(copy[1], pairs_of(point))) == expected
    assert copy[0].form.resultant == rf.form.resultant
