import math
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from orbitheight.errors import BudgetExceeded, InvalidParameter
from orbitheight.schanuel import (
    MAX_DIMENSION,
    analytic_constant,
    count_points,
    count_points_mobius,
    count_points_oracle,
    fit_to_csv,
    schanuel_fit,
    zeta,
)


def test_exact_small_counts():
    assert count_points(1, 1).count == 4
    assert count_points(1, 2).count == 8
    assert count_points(2, 1).count == 13


def test_against_oracle_p1():
    for bound in range(1, 21):
        assert count_points(1, bound).count == count_points_oracle(1, bound)


def test_against_oracle_higher_dim():
    for bound in (1, 2, 3, 4, 5):
        assert count_points(2, bound).count == count_points_oracle(2, bound)
    for bound in (1, 2, 3):
        assert count_points(3, bound).count == count_points_oracle(3, bound)


def test_mobius_fast_path_agrees():
    # count_points is the quotient recursion; check it against the box walk
    for n, bound in [(1, 50), (1, 137), (2, 30), (3, 8)]:
        expected = count_points_oracle(n, bound)
        assert count_points_mobius(n, bound) == expected
        assert count_points(n, bound).count == expected


# largest bound drawn per dimension n, keeping each box walk near 0.3 s
_ORACLE_BOUND = {1: 300, 2: 30, 3: 10, 4: 5}


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_quotient_recursion_matches_box_walk(n, data):
    # from B = 4 on, some quotient floor(x/g) is shared by a block of several g
    bound = data.draw(st.integers(1, _ORACLE_BOUND[n]), label="bound")
    assert count_points_mobius(n, bound) == count_points_oracle(n, bound)


@pytest.mark.parametrize("n, bound, count", [
    (1, 10**7, 121585425708968),
    (2, 10**5, 3327670384236577),
    (3, 10**4, 73928732809404592),
    (4, 1000, 15467512565040961),
])
def test_large_counts_pinned_and_fast(n, bound, count):
    """Counts at bounds far past any box walk, as a Moebius sieve over
    g <= B gave them, each within 1 s of CPU time (the sieve's O(B) loop
    takes several seconds at B = 10^7)."""
    start = time.process_time()
    assert count_points(n, bound, budget=10**40).count == count
    assert time.process_time() - start < 1.0


def test_monotone_and_bounded():
    prev = 0
    for bound in range(1, 12):
        c = count_points(1, bound).count
        assert c >= prev
        assert c <= (2 * bound + 1) ** 2
        prev = c


def test_enumerated_vectors_are_primitive():
    # the oracle enumerates exactly the canonical primitive vectors, so
    # agreement with it (tested above) certifies the invariants; spot-check
    # the definition once more by explicit reconstruction
    from itertools import product
    from math import gcd

    vectors = []
    for vec in product(range(-2, 3), repeat=2):
        g = 0
        for c in vec:
            g = gcd(g, abs(c))
        if g != 1:
            continue
        first = next(c for c in vec if c != 0)
        if first > 0:
            vectors.append(vec)
    assert len(vectors) == count_points(1, 2).count


def test_threads_deterministic():
    single = count_points(2, 25, threads=1).count
    for threads in (2, 3, 7):
        assert count_points(2, 25, threads=threads).count == single


def test_budget():
    with pytest.raises(BudgetExceeded):
        count_points(3, 1000)
    with pytest.raises(BudgetExceeded):
        count_points(1, 10, budget=100)
    # the box 21^2 = 441 sits at the budget's bit length, so its exact size decides
    with pytest.raises(BudgetExceeded):
        count_points(1, 10, budget=440)
    assert count_points(1, 10, budget=441).count == count_points_oracle(1, 10)
    # a box of about 10^2600000 is refused by its bit length, never built
    start = time.process_time()
    with pytest.raises(BudgetExceeded):
        count_points(MAX_DIMENSION, 10**4000)
    assert time.process_time() - start < 0.1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int-to-str digit limit")
def test_budget_past_the_int_to_str_limit():
    """The error names a budget of more digits than the int-to-str limit
    by its bit length, and a smaller one in decimal, as before."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(BudgetExceeded, match="budget of a 14617-bit number of vectors$"):
            count_points(1, 10**5000, budget=10**4400)
    finally:
        sys.set_int_max_str_digits(old)
    with pytest.raises(BudgetExceeded, match=r"^box \(2B\+1\)\^\(n\+1\) has more than the "
                                             r"budget of 100 vectors$"):
        count_points(1, 10, budget=100)


def test_invalid_parameters():
    with pytest.raises(InvalidParameter):
        count_points(0, 5)
    # at B = 1 the ratio is (3^(n+1) - 1)/2, a double only up to MAX_DIMENSION
    top = (3 ** (MAX_DIMENSION + 1) - 1) // 2
    assert count_points(MAX_DIMENSION, 1, budget=10**500).ratio == float(top)
    with pytest.raises(InvalidParameter):
        count_points(MAX_DIMENSION + 1, 1, budget=10**500)
    with pytest.raises(InvalidParameter):
        count_points(1, 0)
    with pytest.raises(InvalidParameter):
        schanuel_fit(1, [])


def test_zeta_values():
    assert zeta(2) == pytest.approx(math.pi**2 / 6, abs=1e-14)
    assert zeta(3) == pytest.approx(1.2020569031595943, abs=1e-14)
    assert zeta(4) == pytest.approx(math.pi**4 / 90, abs=1e-14)
    assert zeta(6) == pytest.approx(math.pi**6 / 945, abs=1e-14)
    with pytest.raises(InvalidParameter):
        zeta(1)


def test_analytic_constant_report_strings():
    # the six-decimal strings the reports carried when zeta was a 10^6-term sum
    expected = [
        "1.215854", "3.327629", "7.391507", "15.430197", "31.454483",
        "63.470071", "127.480218", "255.486882", "511.491283", "1023.494201",
    ]
    assert [f"{analytic_constant(n):.6f}" for n in range(1, 11)] == expected


def test_analytic_constants():
    assert analytic_constant(1) == pytest.approx(12 / math.pi**2, abs=1e-9)
    assert analytic_constant(2) == pytest.approx(4 / 1.2020569031595943, abs=1e-9)


def test_ratio_converges_to_constant():
    # the error term oscillates at the 1e-3 scale (it is O(log B / B), not
    # monotone pointwise: err(250) < err(500) on exact counts), so assert
    # decay across quadrupling plus the end-of-range accuracy
    const = analytic_constant(1)
    errs = {b: abs(count_points(1, b).ratio - const) for b in (125, 250, 500, 1000)}
    assert errs[500] < errs[125]
    assert errs[1000] < errs[250]
    assert errs[1000] < 0.02 * const


def test_kappa_fit():
    rep = count_points(1, 1000)
    assert 2.0 < rep.kappa_fit < 2.05
    assert count_points(1, 1).kappa_fit is None


def test_fit_csv():
    fit = schanuel_fit(1, [1, 2])
    lines = fit_to_csv(fit).splitlines()
    assert lines[0] == "B,count,ratio,kappa_fit,analytic_constant"
    assert lines[1] == f"1,4,4.000000,,{fit.constant:.6f}"
    assert lines[2].startswith("2,8,2.000000,3.000000")
