import functools
import math
from fractions import Fraction

import pytest

from orbitheight.commuting import (
    check_commuting,
    check_grid_size,
    grid_orbit,
    norm_sliced_diagnostics,
)
from orbitheight.density import NATURALS, EventuallyPeriodicSet, evens
from orbitheight.dfinite import PRecurrence, classify_height_growth
from orbitheight.dml import Subvariety, return_set
from orbitheight.errors import (
    AllZero,
    DimensionMismatch,
    EmptyTail,
    HorizonTooShort,
    InvalidParameter,
    ZeroDenominator,
)
from orbitheight.exact import P1Value, PrimitiveVector, height_projective, segre_product
from orbitheight.orbit import (
    COMPLETED,
    HIT_MAP_INDETERMINACY,
    HIT_OBSERVABLE_INDETERMINACY,
    Limsup,
    Uniform,
    detect_window_repeat,
    epsilon_bounds,
    gap_diagnostics,
    iterate_orbit,
    trace_to_csv,
)
from orbitheight.poly import (
    Polynomial,
    RationalFunction,
    RationalMap,
    compose,
    parse_expression,
    parse_map,
)
from orbitheight.schanuel import count_points, count_points_mobius

X = ("x",)
FX = parse_expression("x", X)


def _affine_trace(start, n, expr="x+1"):
    return iterate_orbit(parse_map([expr], X), FX, [Fraction(start)], n)


def test_iterate_shift_map():
    trace = _affine_trace(0, 5)
    values = [row.value.as_fraction() for row in trace.rows]
    assert values == [Fraction(k) for k in range(6)]
    expected_heights = [0.0, 0.0, math.log(2), math.log(3), 2 * math.log(2), math.log(5)]
    for row, h in zip(trace.rows, expected_heights):
        assert row.height == pytest.approx(h, abs=1e-12)
    assert trace.stop_reason == COMPLETED


def test_iterate_doubling_map():
    trace = _affine_trace(1, 4, "2*x")
    values = [row.value.as_fraction() for row in trace.rows]
    assert values == [Fraction(2**k) for k in range(5)]
    for n, row in enumerate(trace.rows):
        assert row.height == pytest.approx(n * math.log(2), abs=1e-12)


def test_map_indeterminacy_infinity_exit():
    phi = parse_map(["y", "x/(x-1)"], ("x", "y"))
    f = parse_expression("x", ("x", "y"))
    trace = iterate_orbit(phi, f, [Fraction(1), Fraction(1)], 5)
    assert trace.stop_reason == HIT_MAP_INDETERMINACY
    assert trace.stop_index == 1
    assert len(trace.rows) == 1  # only n = 0 recorded


def test_observable_indeterminacy():
    phi = parse_map(["x+1", "y+1"], ("x", "y"))
    f = parse_expression("x/y", ("x", "y"))
    trace = iterate_orbit(phi, f, [Fraction(-2), Fraction(-2)], 5)
    # at n = 2 the point is (0, 0) where x/y is 0/0
    assert trace.stop_reason == HIT_OBSERVABLE_INDETERMINACY
    assert trace.stop_index == 2
    assert len(trace.rows) == 2


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        iterate_orbit(parse_map(["x+1"], X), FX, [Fraction(0), Fraction(1)], 3)


def test_reiteration_consistency():
    phi = parse_map(["(x+2)/(x+1)"], X)
    trace = iterate_orbit(phi, FX, [Fraction(1)], 12)
    k = 5
    again = iterate_orbit(phi, FX, trace.rows[k].point, 12 - k)
    for offset, row in enumerate(again.rows):
        assert row.value == trace.rows[k + offset].value
        assert row.point == trace.rows[k + offset].point


def test_window_repeat_constant():
    trace = _affine_trace(5, 100, "x")
    rep = detect_window_repeat(trace, 2)
    assert (rep.i, rep.j) == (0, 1)
    assert rep.period == 1
    assert rep.verified_to == 99  # horizon minus period


def test_window_repeat_two_cycle():
    trace = _affine_trace(1, 50, "3-x")  # 1, 2, 1, 2, ...
    rep = detect_window_repeat(trace, 1)
    assert (rep.i, rep.j) == (0, 2)
    assert rep.period == 2
    assert rep.verified_to == 48


def test_window_repeat_none():
    trace = _affine_trace(0, 40)
    assert detect_window_repeat(trace, 1) is None


def test_window_repeat_soundness():
    trace = _affine_trace(1, 60, "3-x")
    rep = detect_window_repeat(trace, 1)
    values = trace.values()
    for n in range(rep.i, rep.verified_to + 1):
        assert values[n] == values[n + rep.period]
    assert len(set(values)) <= rep.j + rep.period


def test_window_repeat_horizon_too_short():
    trace = _affine_trace(0, 2)
    with pytest.raises(HorizonTooShort):
        detect_window_repeat(trace, 5)


def test_gap_shift_map_tail():
    trace = _affine_trace(1, 10**4)
    report = gap_diagnostics(trace, 2, 0.5, [0.5])
    # oracle: h_n = log(n+1), tail sup is the closed form at the window start
    assert report.tail_sup == pytest.approx(math.log(5001) / math.log(5000), rel=1e-12)
    assert 1.0 <= report.tail_sup <= 1.001
    assert report.below_curve_density[0][1] == Fraction(0)


def test_gap_identity_map_tail():
    trace = _affine_trace(5, 10**4, "x")
    report = gap_diagnostics(trace)
    assert report.tail_sup == pytest.approx(math.log(5) / math.log(5000), rel=1e-12)
    assert report.tail_sup <= 0.19


def test_gap_monotone_consistency():
    trace = _affine_trace(1, 500)
    base = gap_diagnostics(trace, 2, 0.5, [0.4, 0.8])
    wider = gap_diagnostics(trace, 2, 0.5, [0.5, 1.2])
    for (c1, d1), (c2, d2) in zip(base.below_curve_density, wider.below_curve_density):
        assert c2 >= c1 and d2 >= d1
    looser = gap_diagnostics(trace, 10, 0.5)
    assert looser.tail_sup <= gap_diagnostics(trace, 2, 0.5).tail_sup + 1e-15


def test_gap_empty_tail():
    trace = _affine_trace(0, 5)
    with pytest.raises(EmptyTail):
        gap_diagnostics(trace, 10)


def test_window_height_identity():
    trace = _affine_trace(2, 20, "2*x")
    for i in range(5):
        window = [trace.rows[i + t].value for t in range(4)]
        folded = functools.reduce(segre_product, window)  # the iterated Segre product
        assert height_projective(folded) == pytest.approx(
            sum(trace.rows[i + t].height for t in range(4)), rel=1e-12, abs=1e-12
        )


def test_epsilon_bounds_exact():
    assert epsilon_bounds(Limsup(ell=0, degK=1)) == Fraction(1, 2)
    assert epsilon_bounds(Limsup(ell=3, degK=2)) == Fraction(1, 32)
    assert epsilon_bounds(Uniform(d=1, kappa=Fraction(21, 10))) == Fraction(10, 672)
    assert epsilon_bounds(Uniform(d=1, kappa=2.1)) == pytest.approx(0.0148810, abs=5e-8)
    assert epsilon_bounds(Uniform(d=0, kappa=2)) == Fraction(1, 8)


def test_epsilon_bounds_invalid():
    with pytest.raises(InvalidParameter):
        epsilon_bounds(Limsup(ell=-1, degK=1))
    with pytest.raises(InvalidParameter):
        epsilon_bounds(Limsup(ell=0, degK=0))
    with pytest.raises(InvalidParameter):
        epsilon_bounds(Uniform(d=1, kappa=0))


def test_trace_csv():
    trace = _affine_trace(0, 3)
    lines = trace_to_csv(trace).splitlines()
    assert lines[0] == "n,point,value,height,ratio"
    assert lines[1] == "0,0,(0:1),0.000000,"
    assert lines[2] == "1,1,(1:1),0.000000,"
    assert lines[3].startswith("2,2,(2:1),0.693147,")
    assert lines[3].split(",")[4] == f"{math.log(2) / math.log(2):.6f}"


X2 = ("x", "y")
P, Q = parse_expression("x", X).num, parse_expression("y", X2).num
F, G = parse_expression("x", X), parse_expression("x", X2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Polynomial(X, {(1, 0): 1}), DimensionMismatch, "does not match 1 variables"),
    (lambda: P.constant_value(), ValueError, "is not constant"),
    (lambda: P + Q, DimensionMismatch, "variable lists differ"),
    (lambda: P ** -1, ValueError, "negative polynomial power"),
    (lambda: P.substitute([]), DimensionMismatch, "0 substitutions for 1 variables"),
    (lambda: P.rename_variables(X2), DimensionMismatch, "preserve the variable count"),
    (lambda: RationalFunction(P, P - P), ZeroDenominator, "identically zero"),
    (lambda: F / (F - F), ZeroDenominator, "division by the zero rational function"),
    (lambda: F ** -1, ValueError, "negative rational-function power"),
    (lambda: RationalMap(X2, (F,)), DimensionMismatch, "component over"),
    (lambda: compose(parse_map(["x"], X), parse_map(["x", "y"], X2)), DimensionMismatch,
     "share a variable list"),
    (lambda: compose(parse_map(["x"], X2), parse_map(["x", "y"], X2)), DimensionMismatch,
     "self-maps of equal dimension"),
    (lambda: iterate_orbit(parse_map(["x"], X), FX, [0], -1), InvalidParameter,
     "horizon must be nonnegative"),
    (lambda: iterate_orbit(parse_map(["x"], X), G, [0], 1), DimensionMismatch,
     "observable and map"),
    (lambda: detect_window_repeat(_affine_trace(0, 3), -1), InvalidParameter,
     "window length"),
    (lambda: gap_diagnostics(_affine_trace(0, 3), n0=1), InvalidParameter, "n0 must be"),
    (lambda: gap_diagnostics(_affine_trace(0, 3), tail_fraction=0), InvalidParameter,
     "tail_fraction"),
    (lambda: epsilon_bounds(Uniform(d=-1)), InvalidParameter, "need d >= 0"),
    (lambda: epsilon_bounds("limsup"), InvalidParameter, "unknown mode"),
    (lambda: check_commuting([parse_map(["x"], X), parse_map(["x", "y"], X2)]),
     DimensionMismatch, "share one variable list"),
    (lambda: check_grid_size(0, 5), InvalidParameter, "1 to 3 maps"),
    (lambda: check_grid_size(4, 3), InvalidParameter, "not 4 maps to norm 3"),
    (lambda: check_grid_size(2, 201), InvalidParameter, "not 2 maps to norm 201"),
    (lambda: grid_orbit([], FX, [0], 2), InvalidParameter, "not 0 maps"),
    (lambda: grid_orbit([parse_map(["x+1"], X)], G, [0, 0], 2), DimensionMismatch,
     "observable and maps"),
    (lambda: grid_orbit([parse_map(["x+1"], X)], FX, [0, 1], 2), DimensionMismatch,
     "start point dimension"),
    (lambda: norm_sliced_diagnostics(grid_orbit([parse_map(["x+1"], X)], FX, [0], 3), NATURALS,
                                     n0=1), InvalidParameter, "so that log s > 0"),
    (lambda: PRecurrence(order=2, coeffs=(Polynomial.constant(("n",), 1),) * 2,
                         initial_terms={}), InvalidParameter, "expected 3 coefficient"),
    (lambda: PRecurrence(order=1, coeffs=(Q, Q), initial_terms={}).singular_indices(),
     InvalidParameter, "coefficients must be univariate"),
    (lambda: classify_height_growth([1] * 20, n0=1), InvalidParameter, "n0 must be at least 2"),
    (lambda: Subvariety(()), InvalidParameter, "at least one equation"),
    (lambda: Subvariety((P, Q)), DimensionMismatch, "equations must share one variable list"),
    (lambda: return_set(parse_map(["x+1", "-y"], X2), [0, 1], Subvariety((P,)), 3),
     DimensionMismatch, "subvariety and map"),
    (lambda: PrimitiveVector((0, 0)), AllZero, "all projective coordinates are zero"),
    (lambda: P1Value((1, 2, 3)), ValueError, "exactly two coordinates"),
    (lambda: count_points(1, 5, threads=0), InvalidParameter, "threads must be >= 1"),
    (lambda: count_points_mobius(0, 1), InvalidParameter, "need n >= 1 and bound >= 1"),
    (lambda: setattr(evens(), "modulus", 3), AttributeError, "immutable"),
    (lambda: EventuallyPeriodicSet.from_json([2, 0]), InvalidParameter, "a JSON object"),
    (lambda: EventuallyPeriodicSet.from_json({"modulus": 2.7, "residues": [True, "1"]}),
     InvalidParameter, "integer 'modulus'"),
])
def test_guards_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()
