"""Orbit traces and commuting grids keep their rows as int-pair columns.

`OrbitTrace.rows`, `values()` and `MultiTrace.entries` are read-only views
that build `OrbitRow`, `P1Value` and `GridEntry` objects only for the rows
a caller reads; the jobs and reports read the columns and build none.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from orbitheight import commuting as commuting_mod
from orbitheight import orbit as orbit_mod
from orbitheight.cli import run_job
from orbitheight.commuting import grid_orbit
from orbitheight.exact import P1Value, height_projective
from orbitheight.orbit import iterate_orbit
from orbitheight.poly import parse_expression, parse_map

GOLDEN = Path(__file__).parent / "golden"
XYZ = ("x", "y", "z")


def _built(*args, **kwargs):
    raise AssertionError("a per-row object was built")


@pytest.fixture
def no_row_objects(monkeypatch):
    monkeypatch.setattr(P1Value, "_trusted", _built)
    monkeypatch.setattr(orbit_mod, "OrbitRow", _built)
    monkeypatch.setattr(commuting_mod, "GridEntry", _built)


def sample_trace():
    """x+1 with observable 1/(x+3) from -6: negative values, the value
    (1:0) at n = 3, and p/q values."""
    return iterate_orbit(parse_map(["x+1"], ("x",)), parse_expression("1/(x+3)", ("x",)),
                         (Fraction(-6),), 10)


def sample_grid():
    maps = [parse_map(["2*x", "y+1", "z"], XYZ), parse_map(["x*z", "y", "z+1"], XYZ)]
    return grid_orbit(maps, parse_expression("x/(y-2)", XYZ), (Fraction(1), Fraction(0), Fraction(0)), 6)


@pytest.mark.parametrize("name", ["orbit-affine", "gap-affine", "example-5-2-commuting"])
def test_jobs_build_no_row_objects(no_row_objects, tmp_path, name):
    """orbit, gap with a window check (ell), and commuting jobs."""
    for path in run_job(name, out_dir=tmp_path):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes()


def test_view_lengths_build_nothing(no_row_objects):
    trace, mtrace = sample_trace(), sample_grid()
    assert len(trace.rows) == len(trace.values()) == len(trace.heights()) == 11
    assert len(mtrace.entries) == len(mtrace.coords) > 0
    with pytest.raises(AssertionError):  # the guard is live
        trace.rows[0]
    with pytest.raises(AssertionError):
        mtrace.entries[(0, 0)]


def test_views_equal_columns():
    trace = sample_trace()
    rows = list(trace.rows)
    assert [(r.n, r.state, r.value.coords, r.height) for r in rows] == \
        list(zip(range(11), trace.states, trace.coords, trace.h))
    assert trace.coords[3] == (1, 0) and trace.coords[0] == (1, -3)
    assert trace.rows[-1] == rows[-1] and trace.rows[2:5] == rows[2:5]
    with pytest.raises(IndexError):
        trace.rows[11]
    with pytest.raises(IndexError):
        trace.rows[-12]
    assert [v.coords for v in trace.values()] == list(trace.coords)
    assert list(trace.heights()) == [height_projective(v) for v in trace.values()]

    mtrace = sample_grid()
    assert mtrace.undefined_at  # x = 0 and y = 2 at (2, k), k >= 1: 0/0
    assert {idx: (e.value.coords, e.height) for idx, e in mtrace.entries.items()} == \
        {idx: (mtrace.coords[idx], mtrace.h[idx]) for idx in mtrace.coords}
    assert all(e.height == height_projective(e.value) for e in mtrace.entries.values())
    with pytest.raises(KeyError):
        mtrace.entries[(0, 9)]
