import math
import random
from fractions import Fraction

import pytest

from orbitheight.commuting import (
    check_commuting,
    grid_orbit,
    grid_to_csv,
    norm_sliced_diagnostics,
)
from orbitheight.density import EMPTY, NATURALS, EventuallyPeriodicSet
from orbitheight.errors import EmptyIntersection, InvalidParameter, NotCommuting
from orbitheight.orbit import iterate_orbit, step
from orbitheight.poly import p1_pair, parse_expression, parse_map

XYZ = ("x", "y", "z")


def example_52_maps():
    return [
        parse_map(["2*x", "y+1", "z"], XYZ),
        parse_map(["x*z", "y", "z+1"], XYZ),
    ]


def example_52_grid(n=12):
    maps = example_52_maps()
    f = parse_expression("x", XYZ)
    return grid_orbit(maps, f, [Fraction(1), Fraction(0), Fraction(0)], n)


def test_check_commuting_example():
    ok, witness = check_commuting(example_52_maps())
    assert ok and witness is None


def test_check_commuting_failure_witness():
    shift1 = parse_map(["x+1"], ("x",))
    double = parse_map(["2*x"], ("x",))
    ok, witness = check_commuting([shift1, double])
    assert not ok
    assert witness.pair == (0, 1)
    assert witness.component == 0


def test_single_map_commutes_vacuously():
    ok, witness = check_commuting([parse_map(["x+1"], ("x",))])
    assert ok and witness is None


def test_grid_closed_form():
    mtrace = example_52_grid(10)
    assert not mtrace.undefined_at
    for idx, entry in mtrace.entries.items():
        n1, n2 = idx
        expected = Fraction(0) if n2 > 0 else Fraction(2) ** n1
        assert entry.value.as_fraction() == expected
    # heights on the ray
    for n1 in range(11):
        assert mtrace.entries[(n1, 0)].height == pytest.approx(
            n1 * math.log(2), abs=1e-12
        )


def test_grid_requires_commuting():
    with pytest.raises(NotCommuting):
        grid_orbit(
            [parse_map(["x+1"], ("x",)), parse_map(["2*x"], ("x",))],
            parse_expression("x", ("x",)),
            [Fraction(0)],
            4,
        )


def test_grid_limits():
    maps = [parse_map(["x+1"], ("x",))]
    with pytest.raises(InvalidParameter):
        grid_orbit(maps, parse_expression("x", ("x",)), [Fraction(0)], 201)
    # the limit itself is allowed
    mt = grid_orbit(maps, parse_expression("x", ("x",)), [Fraction(0)], 200)
    assert len(mt.entries) == 201


def test_single_map_grid_matches_orbit():
    phi = parse_map(["(x+2)/(x+1)"], ("x",))
    f = parse_expression("x", ("x",))
    mtrace = grid_orbit([phi], f, [Fraction(1)], 15)
    trace = iterate_orbit(phi, f, [Fraction(1)], 15)
    for n in range(16):
        assert mtrace.entries[(n,)].value == trace.rows[n].value


def test_path_independence():
    maps = example_52_maps()
    mtrace = example_52_grid(8)
    rng = random.Random(13)
    for _ in range(20):
        idx = rng.choice(sorted(mtrace.entries))
        # walk a random monotone lattice path to idx
        steps = [i for i, k in enumerate(idx) for _ in range(k)]
        rng.shuffle(steps)
        state = ((1, 1), (0, 1), (0, 1))
        for i in steps:
            state = step(maps[i], state)
            assert state is not None
        value = p1_pair(parse_expression("x", XYZ), state)
        assert value == mtrace.entries[idx].value.coords


def test_undefined_propagation():
    # x^2 and 1/x commute; from x = 0 the reciprocal leaves the chart, so
    # every index with n2 >= 1 is undefined while the n2 = 0 ray survives
    maps = [parse_map(["x^2"], ("x",)), parse_map(["1/x"], ("x",))]
    f = parse_expression("x", ("x",))
    mtrace = grid_orbit(maps, f, [Fraction(0)], 4)
    for idx in mtrace.undefined_at:
        assert idx[1] >= 1
    for n1 in range(5):
        assert mtrace.entries[(n1, 0)].value.as_fraction() == 0
    assert all(idx[1] == 0 for idx in mtrace.entries)


def test_norm_sliced_example():
    mtrace = example_52_grid(12)
    report = norm_sliced_diagnostics(mtrace, EventuallyPeriodicSet(2, [0]), 2)
    assert report.sup_at == 12
    assert report.sup_ratio == pytest.approx(12 * math.log(2) / math.log(12), rel=1e-12)
    for st in report.slices:
        assert st.argmax == (st.s, 0)
        assert st.max_height == pytest.approx(st.s * math.log(2), abs=1e-12)


def test_norm_sliced_off_ray_is_zero():
    mtrace = example_52_grid(12)
    report = norm_sliced_diagnostics(
        mtrace, EventuallyPeriodicSet(2, [0]), 2, index_filter=lambda idx: idx[1] > 0
    )
    assert report.sup_ratio == 0.0


def test_norm_sliced_constant_observable():
    maps = example_52_maps()
    const = parse_expression("7", XYZ)
    mtrace = grid_orbit(maps, const, [Fraction(1), Fraction(0), Fraction(0)], 8)
    report = norm_sliced_diagnostics(mtrace, NATURALS, 2)
    for st in report.slices:
        assert st.max_height == pytest.approx(math.log(7), abs=1e-12)
    assert report.sup_ratio == pytest.approx(math.log(7) / math.log(2), rel=1e-12)


def test_restriction_consistency():
    mtrace = example_52_grid(12)
    full = norm_sliced_diagnostics(mtrace, NATURALS, 2)
    sub = norm_sliced_diagnostics(mtrace, EventuallyPeriodicSet(3, [0]), 2)
    assert sub.sup_ratio <= full.sup_ratio + 1e-15


def test_empty_intersection():
    mtrace = example_52_grid(6)
    with pytest.raises(EmptyIntersection):
        norm_sliced_diagnostics(mtrace, EMPTY, 2)


def test_csv_exports():
    mtrace = example_52_grid(3)
    lines = grid_to_csv(mtrace).splitlines()
    assert lines[0] == "n1,n2,value,height"
    assert lines[1] == "0,0,(1:1),0.000000"
