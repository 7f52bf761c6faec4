import random
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from orbitheight.dml import Progression, ReturnDecomposition, Subvariety, ap_decompose, return_set
from orbitheight.errors import InvalidParameter, OrbitUndefined
from orbitheight.orbit import detect_window_repeat, iterate_orbit
from orbitheight.poly import parse_expression, parse_map


def _poly(text, variables):
    return parse_expression(text, variables).num


def alternation_map():
    return parse_map(["x+1", "-y"], ("x", "y"))


def test_return_set_alternation():
    y_eq = Subvariety((_poly("y-1", ("x", "y")),))
    hits = return_set(alternation_map(), [Fraction(0), Fraction(1)], y_eq, 20)
    assert hits == list(range(0, 21, 2))


def test_return_set_two_roots():
    phi = parse_map(["x+1"], ("x",))
    y_eq = Subvariety((_poly("(x-3)*(x-17)", ("x",)),))
    assert return_set(phi, [Fraction(0)], y_eq, 100) == [3, 17]


def test_return_set_doubling():
    phi = parse_map(["2*x"], ("x",))
    y_eq = Subvariety((_poly("x-8", ("x",)),))
    assert return_set(phi, [Fraction(1)], y_eq, 50) == [3]


def test_return_set_orbit_undefined():
    phi = parse_map(["1/x"], ("x",))
    y_eq = Subvariety((_poly("x", ("x",)),))
    with pytest.raises(OrbitUndefined) as exc:
        return_set(phi, [Fraction(0)], y_eq, 5)
    assert exc.value.n == 1


def test_multi_equation_subvariety():
    phi = parse_map(["x+1", "-y"], ("x", "y"))
    both = Subvariety((_poly("y-1", ("x", "y")), _poly("x-4", ("x", "y"))))
    hits = return_set(phi, [Fraction(0), Fraction(1)], both, 20)
    assert hits == [4]


def test_decompose_evens():
    d = ap_decompose(list(range(0, 21, 2)), 20, min_terms=3)
    assert [(p.a, p.d) for p in d.progressions] == [(0, 2)]
    assert d.residual == ()
    assert d.residual_prefix_density == 0


def test_decompose_sporadic():
    d = ap_decompose([3, 17], 100)
    assert d.progressions == ()
    assert d.residual == (3, 17)
    assert d.residual_prefix_density == Fraction(2, 101)


def test_decompose_greedy_trace():
    hits = sorted(set(range(0, 41, 2)) | {7})
    d = ap_decompose(hits, 40, min_terms=3)
    assert [(p.a, p.d) for p in d.progressions] == [(0, 2)]
    assert d.residual == (7,)


def test_decompose_prefers_small_difference():
    # consecutive run [0, 40] contains the evens; the d=1 progression wins
    d = ap_decompose(list(range(41)), 40, min_terms=3)
    assert [(p.a, p.d) for p in d.progressions] == [(0, 1)]
    assert d.residual == ()


def test_partition_invariant():
    hits = sorted(set(range(1, 61, 3)) | set(range(0, 61, 4)) | {11, 23})
    d = ap_decompose(hits, 60, min_terms=4)
    covered = []
    for prog in d.progressions:
        covered.extend(prog.terms_up_to(60))
    covered.extend(d.residual)
    assert sorted(covered) == hits
    for prog in d.progressions:
        assert all(t in set(hits) for t in prog.terms_up_to(60))


def test_min_terms_guard():
    with pytest.raises(InvalidParameter):
        ap_decompose([0, 2, 4], 4, min_terms=2)
    with pytest.raises(InvalidParameter):
        ap_decompose([99], 10)


def test_density_zero_signal_on_doubling():
    phi = parse_map(["x+1"], ("x",))
    y_eq = Subvariety((_poly("(x-3)*(x-17)", ("x",)),))
    densities = []
    for horizon in (100, 200, 400):
        hits = return_set(phi, [Fraction(0)], y_eq, horizon)
        densities.append(ap_decompose(hits, horizon).residual_prefix_density)
    assert densities == [Fraction(2, 101), Fraction(2, 201), Fraction(2, 401)]
    assert densities[1] < densities[0] and densities[2] < densities[1]


def test_periodicity_cross_check():
    # orbit certifies a window repeat with period 2; beyond the preperiod the
    # return set is exactly a residue class mod 2
    phi = alternation_map()
    f = parse_expression("y", ("x", "y"))
    trace = iterate_orbit(phi, f, [Fraction(0), Fraction(1)], 40)
    rep = detect_window_repeat(trace, 1)
    assert rep is not None and rep.period == 2
    y_eq = Subvariety((_poly("y-1", ("x", "y")),))
    hits = return_set(phi, [Fraction(0), Fraction(1)], y_eq, 40)
    mod_classes = {n % rep.period for n in hits if n >= rep.i}
    assert mod_classes == {0}
    assert [n for n in range(rep.i, 41) if n % 2 in mod_classes] == hits


def test_json_output():
    d = ap_decompose([3, 17], 100)
    assert d.to_json() == (
        '{"hits": [3, 17], "progressions": [], "residual": [3, 17], '
        '"residual_density": "2/101"}'
    )


def ap_decompose_by_restarts(hits, horizon, min_terms):
    """Reference: after every progression found, search again from d = 1."""
    remaining = set(hits)
    progressions = []
    while True:
        found = next((
            Progression(a=a, d=d)
            for d in range(1, horizon + 1)
            for a in sorted(remaining)
            if len(range(a, horizon + 1, d)) >= min_terms
            and all(t in remaining for t in range(a, horizon + 1, d))
        ), None)
        if found is None:
            break
        progressions.append(found)
        remaining.difference_update(found.terms_up_to(horizon))
    residual = tuple(sorted(remaining))
    return ReturnDecomposition(horizon, tuple(sorted(set(hits))), tuple(progressions),
                               residual, Fraction(len(residual), horizon + 1))


@st.composite
def hit_sets(draw):
    """A horizon <= 150 and hits drawn either as a random set or as a union of
    progressions that run to the horizon plus sporadic points."""
    horizon = draw(st.integers(0, 150))
    points = st.integers(0, horizon)
    if draw(st.booleans()):
        return horizon, draw(st.sets(points))
    hits = draw(st.sets(points, max_size=8))
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.integers(1, max(1, horizon // 2)))
        hits |= set(range(draw(points), horizon + 1, d))
    return horizon, hits


@given(hit_sets(), st.integers(3, 7))
def test_one_pass_matches_restarts(case, min_terms):
    horizon, hits = case
    assert ap_decompose(hits, horizon, min_terms) == ap_decompose_by_restarts(hits, horizon, min_terms)


def test_decompose_random_hits_runs_fast():
    hits = random.Random(2500).sample(range(2501), 1250)
    t0 = perf_counter()
    d = ap_decompose(hits, 2500)
    assert perf_counter() - t0 < 3.0
    covered = sorted(d.residual + tuple(t for p in d.progressions for t in p.terms_up_to(2500)))
    assert covered == sorted(hits)
