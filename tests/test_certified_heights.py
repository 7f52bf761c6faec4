"""Heights certified from interval enclosures against the exact path.

A `gap` job without `ell` runs its orbit on `exact.Interval` values when no
value needs a gcd and the map has degree >= 2.  Its heights come from
`height_pair`'s rule for `math.log` of an int, and must be the floats the
exact path gives, so that the reports are byte-identical; where an interval
cannot decide, the job runs again exactly.  The rule is checked against
`math.log` itself, the intervals against exact int arithmetic, and the
reports against the same jobs forced onto the exact path.
"""

import json
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from orbitheight import orbit as orbit_mod
from orbitheight.cli import _build, run_job
from orbitheight.errors import OrbitHeightError
from orbitheight.exact import Interval, Uncertain, height_pair
from orbitheight.orbit import iterate_orbit
from orbitheight.poly import parse_expression, parse_map


def _ties(m: int, s: int) -> int:
    """m * 2^s plus half a unit of its last place: a tie between m and m + 1."""
    return (m << s) + (1 << (s - 1))


def _log_rule_cases():
    rng = random.Random(16)
    cases = [1, 2, 3, 10**20, 2**53 - 1, 2**53, 2**53 + 1]
    # random ints of 1 to 200,000 bits
    cases += [rng.getrandbits(b) | 1 << (b - 1)
              for b in [1, 2, 52, 53, 54, 159, 160, 161, 300, 1023, 1024, 1025,
                        5000, 65_537, 200_000]]
    cases += [rng.getrandbits(rng.randrange(1, 200_001)) | 1 for _ in range(60)]
    # just below and just above 2^1024, where math.log leaves float(n)
    cases += [2**1024 - 2**971,  # the largest double
              2**1024 - 2**970 - 2**864,  # rounds down to it, and fits in 160 bits
              2**1024 - 2**970,  # a tie with m = 2^53 - 1 odd: rounds up to 2^1024
              2**1024 - 1, 2**1024, 2**1024 + 1, 2**1025 - 1]
    # exact half ties, m even (rounds down) and m odd (rounds up), and the
    # carry from m = 2^53 - 1 up to 2^53, at small and large bit counts
    for m in (2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1):
        for s in (1, 60, 107, 971, 972, 5000, 199_000):
            cases.append(_ties(m, s))
            if s <= 107:  # n fits in 160 bits: its interval is exact
                cases += [_ties(m, s) - 1, _ties(m, s) + 1]
    return cases


def test_height_rule_matches_math_log():
    """height_pair on an interval around n is math.log(n), for every n
    whose interval rounds to one double; the listed cases all do."""
    for n in _log_rule_cases():
        assert height_pair(Interval.of(n), 1) == math.log(n), n.bit_length()
        assert height_pair(Interval.of(3), Interval.of(-n)) == math.log(max(n, 3))
    assert height_pair(Interval(1, 1, 5000), 0) == math.log(2**5000)


@pytest.mark.parametrize("m", [2**52, 2**52 + 1])
def test_height_rule_refuses_an_undecided_rounding(m):
    """Past 160 bits the interval of a tie plus or minus one has the tie as
    an end: it decides the side to which the tie rounds too (down for m
    even, up for m odd), and refuses the other rather than guess."""
    tie = _ties(m, 5000)
    decided, undecided = (tie - 1, tie + 1) if m % 2 == 0 else (tie + 1, tie - 1)
    assert height_pair(Interval.of(decided), 1) == math.log(decided)
    with pytest.raises(Uncertain):
        height_pair(Interval.of(undecided), 1)


def _encloses(x: Interval, n: int) -> bool:
    return x.lo << x.e <= n <= x.hi << x.e


wide_ints = st.one_of(st.integers(-50, 50), st.integers(-(2**600), 2**600))


@given(wide_ints, wide_ints, st.integers(0, 5))
def test_interval_operators_enclose_the_exact_result(a, b, k):
    x, y = Interval.of(a), Interval.of(b)
    for result, exact in ((x + y, a + b), (x - y, a - b), (x * y, a * b), (a * y, a * b),
                          (-x, -a), (x**k, a**k), (x * y + x * x, a * b + a * a)):
        assert _encloses(result, exact)
        assert result.lo <= result.hi and max(-result.lo, result.hi).bit_length() <= 161
    assert (x * 0 == 0) is True  # an exact zero stays exact
    for test, exact in ((lambda: x == b, a == b), (lambda: x < b, a < b),
                        (lambda: x <= b, a <= b), (lambda: x >= b, a >= b),
                        (lambda: bool(x - y), a != b)):
        try:
            assert test() == exact
        except Uncertain:  # only where a - b is below the intervals' last bits
            event("undecided")
            assert abs(a - b) < 2 ** (max(a.bit_length(), b.bit_length()) - 150)


# --- reports against the exact path ---

def _report(job: dict) -> str:
    """The csv and json text of a job, or the error it fails with."""
    try:
        csv_text, payload = _build(job, 10**9)()
    except OrbitHeightError as exc:
        return f"{type(exc).__name__}: {exc}"
    return csv_text + json.dumps(payload, indent=2)


def _exact_report(job: dict) -> str:
    with mock.patch.object(orbit_mod, "_on_intervals", return_value=False):
        return _report(job)


def _report_and_paths(job: dict) -> tuple[str, list, float]:
    """The job's report, the number types its orbit ran on, in order, and
    the largest height of the orbit."""
    numbers, heights, trace = [], [0.0], orbit_mod._trace

    def spy(phi, observable, start, n_max, number):
        numbers.append(number)
        result = trace(phi, observable, start, n_max, number)
        heights.extend(result.h)
        return result

    with mock.patch.object(orbit_mod, "_trace", spy):
        return _report(job), numbers, max(heights)


def _gap_job(variables, maps, observable, start, n_max):
    return {"kind": "gap", "variables": list(variables), "map": maps, "observable": observable,
            "start": [str(c) for c in start], "N": n_max, "curve_constants": [0.5, 1, 3]}


coefficients = st.integers(-3, 3)


@st.composite
def monic(draw, variable, degree):
    lower = [f"({draw(coefficients)})*{variable}^{k}" for k in range(1, degree)]
    return "+".join([f"{variable}^{degree}", *lower, f"({draw(coefficients)})"])


@st.composite
def resultant_one_jobs(draw):
    """Maps whose forms each read one variable and have resultant 1, monic
    polynomials and reciprocals of monic ones, from rational starts.  Values
    pass 160 bits after about 5 steps, and horizons stay under 15,000 bits."""
    degree = draw(st.integers(2, 3))
    if draw(st.booleans()):
        variables, maps = ("x",), [draw(monic("x", degree))]
    else:
        variables = ("x", "y")
        maps = [draw(monic("y", degree)), f"1/({draw(monic('x', draw(st.integers(1, 2))))})"]
    observable = draw(st.sampled_from(["x", "1/x", "x^2-x+1", "1/(x^2+1)"]))
    start = [Fraction(draw(st.integers(-40, 40)), draw(st.integers(2, 40))) for _ in variables]
    n_max = draw(st.integers(6, 11 if degree == 2 else 7))
    return _gap_job(variables, maps, observable, start, n_max)


@st.composite
def polynomial_jobs(draw):
    """Integral polynomial maps in one or two variables, of degree 2 through
    a square in the first component, from integral starts."""
    variables = ("x", "y")[:draw(st.integers(1, 2))]
    monomials = ["1", *variables, *[f"{u}*{v}" for u in variables for v in variables]]

    def polynomial():
        terms = draw(st.lists(st.tuples(coefficients, st.sampled_from(monomials)),
                              min_size=1, max_size=3))
        return "+".join(f"({c})*{m}" for c, m in terms)

    maps = [f"{variables[-1]}^2+{polynomial()}", *[polynomial() for _ in variables[1:]]]
    start = [draw(st.sampled_from([-1, 1])) * draw(st.integers(2, 9)) for _ in variables]
    return _gap_job(variables, maps, polynomial(), start, draw(st.integers(6, 10)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(resultant_one_jobs(), polynomial_jobs()))
def test_gap_reports_match_the_exact_path(job):
    report, numbers, height = _report_and_paths(job)
    event({(int,): "exact path", (Interval.of,): "intervals",
           (Interval.of, int): "fell back"}[tuple(numbers)])
    event("values past 160 bits" if height > 160 * math.log(2) else "values within 160 bits")
    assert report == _exact_report(job)


def test_cancellation_falls_back_to_exact():
    """y - x = 1 at every step, which the intervals of x^2 and x^2 + 1 past
    160 bits cannot tell from 0: the job runs again exactly."""
    job = _gap_job(("x", "y"), ["x^2", "x^2+1"], "y-x", [3, 10], 12)
    report, numbers, _ = _report_and_paths(job)
    assert numbers == [Interval.of, int]
    assert report == _exact_report(job)
    assert '"tail_sup": "0.000000"' in report


def test_gap_past_the_reach_of_exact_values(tmp_path):
    """x^2 + 1 from 1/3 has values of about 2^60 bits at N = 60, which the
    exact path cannot hold; certified heights take well under a second and
    equal the exact ones as far as those can be computed."""
    job = _gap_job(("x",), ["x^2+1"], "x", ["1/3"], 60)
    path = tmp_path / "square.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    t0 = time.perf_counter()
    _, json_path = run_job(path, out_dir=tmp_path)
    assert time.perf_counter() - t0 < 1.0
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert (payload["stop_reason"], payload["tail_start"]) == ("completed", 30)
    phi, f = parse_map(["x^2+1"], ("x",)), parse_expression("x", ("x",))
    heights = iterate_orbit(phi, f, [Fraction(1, 3)], 60, heights_only=True).h
    assert heights[:17] == iterate_orbit(phi, f, [Fraction(1, 3)], 16).h
    assert heights[60] / heights[59] == pytest.approx(2)


@pytest.mark.parametrize("maps, observable, start, expected", [
    (["x^2+1"], "x", ["1/3"], True),  # resultant 1
    (["(x^2+1)/(x+2)"], "x", ["1/3"], False),  # resultant 5: a gcd mod 5
    (["y", "x*y+1"], "y", ["3", "4"], True),  # polynomial, integral start
    (["y", "x*y+1"], "y", ["3", "1/4"], False),  # x*y+1 has no resultant: a full gcd
    (["y", "x*y+1"], "y/2", ["3", "4"], False),  # a den other than 1
    (["x+1"], "x", ["0"], False),  # degree 1: values stay small
])
def test_which_orbits_run_on_intervals(maps, observable, start, expected):
    variables = ("x", "y")[:len(maps)]
    phi, f = parse_map(maps, variables), parse_expression(observable, variables)
    assert orbit_mod._on_intervals(phi, f, [Fraction(c) for c in start]) is expected
