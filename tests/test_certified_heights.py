"""Heights certified from interval enclosures against the exact path.

A `gap` job without `ell` starts its orbit on ints and turns its state
into `exact.Interval` values at the first step where a coordinate passes
160 bits.  Its heights come from `height_pair`'s rule for `math.log` of an
int, and must be the floats the exact path gives, so that the reports are
byte-identical.  Where an interval cannot decide a sign or a rounding, or
where a value needs a gcd, which `Interval` refuses as it refuses `%` and
`__index__`, the job runs again exactly.  The rule is checked against
`math.log` itself, the intervals against exact int arithmetic, and the
reports against the same jobs forced onto the exact path.
"""

import json
import math
import random
import statistics
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from orbitheight import orbit as orbit_mod
from orbitheight.cli import _build, run_job
from orbitheight.errors import OrbitHeightError, ValueTooLarge
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


def test_height_rule_past_the_double_range():
    """math.log's rule log(x) + log(2.0) * k needs the bit count k as a
    double: where k rounds to 2^1024 or more, height_pair raises
    ValueTooLarge.  Just below, k rounds to the largest double."""
    tie = 2**1024 - 2**970  # halfway between the largest double and 2^1024
    # Interval(1, 1, e) is 2^e, whose frexp exponent k is e + 1
    k = tie - 1  # rounds down to the largest double
    assert height_pair(Interval(1, 1, k - 1), 1) == math.log(0.5) + math.log(2.0) * k
    for k in (tie, 2**1024, 2**2000):  # the tie rounds up, to 2^1024
        with pytest.raises(ValueTooLarge, match="bit count past the double range"):
            height_pair(Interval(1, 1, k - 1), Interval.of(3))


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
    """The report of the job with its orbit forced onto ints throughout."""
    trace = orbit_mod._trace
    with mock.patch.object(orbit_mod, "_trace", lambda *args: trace(*args[:4])):
        return _report(job)


def _report_and_outcome(job: dict) -> tuple[str, str, float]:
    """The job's report, its outcome ("ints only", "promoted", or "fell back:"
    and what the intervals could not decide) and the largest height of the
    orbit."""
    runs, heights, trace = [], [0.0], orbit_mod._trace

    def spy(phi, observable, start, n_max, promote=False):
        try:
            result = trace(phi, observable, start, n_max, promote)
        except Uncertain as exc:
            runs.append(f"fell back: {exc}")
            raise
        on_intervals = any(type(state[0][0]) is Interval for state in result.states)
        runs.append("promoted" if on_intervals else "ints only" if promote else "exact")
        heights.extend(result.h)
        return result

    with mock.patch.object(orbit_mod, "_trace", spy):
        report = _report(job)
    assert runs in (["ints only"], ["promoted"]) or runs[1:] == ["exact"], runs
    return report, runs[0], max(heights)


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
def quotient_jobs(draw):
    """One-variable quotients (x^2+ax+b)/(cx+d) with resultant R > 1, whose
    values need a gcd mod R once they pass 160 bits, from rational starts."""
    a, b, c, d = draw(coefficients), draw(coefficients), draw(st.integers(1, 3)), draw(coefficients)
    assume(abs(d * d - a * c * d + b * c * c) > 1)  # |R| = |c^2 num(-d/c)|
    start = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 40)))
    observable = draw(st.sampled_from(["x", "1/x", "x^2-x+1"]))
    return _gap_job(("x",), [f"(x^2+({a})*x+({b}))/(({c})*x+({d}))"], observable, [start],
                    draw(st.integers(6, 11)))


@st.composite
def product_jobs(draw):
    """(x, y) -> (y, x*y+1) from rational starts: two-variable forms have no
    resultant, so a den other than 1 takes a full gcd."""
    start = [Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))) for _ in "xy"]
    observable = draw(st.sampled_from(["y", "x/y", "x*y-1"]))
    return _gap_job(("x", "y"), ["y", "x*y+1"], observable, start, draw(st.integers(10, 18)))


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


@settings(max_examples=200, deadline=None)
@given(st.one_of(resultant_one_jobs(), polynomial_jobs(), quotient_jobs(), product_jobs()))
def test_gap_reports_match_the_exact_path(job):
    report, outcome, height = _report_and_outcome(job)
    event(outcome)
    event("values past 160 bits" if height > 160 * math.log(2) else "values within 160 bits")
    assert report == _exact_report(job)


def test_cancellation_falls_back_to_exact():
    """y - x = 1 at every step, which the intervals of x^2 and x^2 + 1 past
    160 bits cannot tell from 0: the job runs again exactly."""
    job = _gap_job(("x", "y"), ["x^2", "x^2+1"], "y-x", [3, 10], 12)
    report, outcome, _ = _report_and_outcome(job)
    assert outcome == "fell back: an interval holds both signs"
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


GCD = "fell back: an interval holds no exact int for a gcd"


@pytest.mark.parametrize("maps, observable, start, n_max, expected", [
    (["x^2+1"], "x", ["1/3"], 12, "promoted"),  # resultant 1
    (["(x^2+1)/(x+2)"], "x", ["1/3"], 12, GCD),  # resultant 5: num % 5
    (["y", "x*y+1"], "y", ["3", "4"], 15, "promoted"),  # polynomial, integral start
    (["y", "x*y+1"], "y", ["3", "1/4"], 15, GCD),  # x*y+1 has no resultant: math.gcd
    (["y", "x*y+1"], "y/2", ["3", "4"], 15, GCD),  # y/2 has resultant 2 and den 2
    (["x+1"], "x", ["0"], 50, "ints only"),  # degree 1: values stay small
    (["x^2-1"], "x", ["0"], 50, "ints only"),  # the cycle 0, -1
], ids=["square", "quotient", "product", "product-rational", "product-halved", "shift",
        "cycle"])
def test_which_orbits_are_promoted(maps, observable, start, n_max, expected):
    """Every gap job without ell starts on ints; a value past 160 bits turns
    the state into intervals, and a gcd on them sends the job back to ints."""
    job = _gap_job(("x", "y")[:len(maps)], maps, observable, start, n_max)
    report, outcome, _ = _report_and_outcome(job)
    assert outcome == expected
    assert report == _exact_report(job)


@pytest.mark.parametrize("maps", [["x^2-1"], ["x+1"]])
def test_small_orbits_cost_what_exact_ones_do(maps):
    """An orbit whose values stay small runs on ints either way: the heights
    only trace pays one bit-length test per step, within 1.5x of the exact
    path in the median of interleaved runs at N = 2000."""
    phi, f = parse_map(maps, ("x",)), parse_expression("x", ("x",))
    times = {True: [], False: []}
    for _ in range(9):
        for heights_only in times:
            t0 = time.perf_counter()
            iterate_orbit(phi, f, [Fraction(0)], 2000, heights_only=heights_only)
            times[heights_only].append(time.perf_counter() - t0)
    assert statistics.median(times[True]) < 1.5 * statistics.median(times[False])
