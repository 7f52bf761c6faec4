"""An enumeration oracle for the projective point count.

`count_points` counts by the quotient recursion
N(x) = F(x) - sum_{g>=2} N(floor(x/g)).  The box walk below is a test-only
reference that shares no logic with it: a pure-Python loop that counts the
raw coprime vectors of [-box, box]^k (v and -v both) whose leading digit
lies in a given range.  Its counts over a partition of the range must add
up, and half of its full-box count must equal `count_points(k - 1, box).count`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from orbitheight.schanuel import count_points, count_points_oracle


def _count_coprime_range_py(k: int, box: int, d0_lo: int, d0_hi: int) -> int:
    """Count v in [-box, box]^k, leading digit in [d0_lo, d0_hi), gcd|v| = 1.

    Digits run over [0, 2*box]; coordinate = digit - box.  The zero vector
    never counts (gcd 0).
    """
    m = 2 * box + 1
    if k == 1:
        total = 0
        for d0 in range(d0_lo, d0_hi):
            c = d0 - box
            if c == 1 or c == -1:
                total += 1
        return total
    mid = m ** (k - 2)
    total = 0
    for d0 in range(d0_lo, d0_hi):
        c0 = d0 - box
        g0 = -c0 if c0 < 0 else c0
        for t in range(mid):
            g = g0
            tt = t
            for _ in range(k - 2):
                c = tt % m - box
                tt //= m
                if c < 0:
                    c = -c
                while c:
                    g, c = c, g % c
            if g == 1:
                total += m
            else:
                for d in range(m):
                    c = d - box
                    if c < 0:
                        c = -c
                    a, b = g, c
                    while b:
                        a, b = b, a % b
                    if a == 1:
                        total += 1
    return total


GRID = [
    (2, 1), (2, 2), (2, 9), (2, 25),
    (3, 1), (3, 4), (3, 7),
    (4, 2), (4, 3),
    (5, 1),
]


@pytest.mark.parametrize("k,box", GRID)
def test_numpy_matches_reference(k, box):
    m = 2 * box + 1
    assert count_points(k - 1, box).count == _count_coprime_range_py(k, box, 0, m) // 2


@pytest.mark.parametrize("k,box", [(2, 11), (3, 5)])
def test_partial_ranges_partition(k, box):
    m = 2 * box + 1
    total = _count_coprime_range_py(k, box, 0, m)
    cuts = [0, m // 3, m // 2, m - 1, m]
    parts = sum(_count_coprime_range_py(k, box, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    assert parts == total == 2 * count_points(k - 1, box).count


def test_k1_edge():
    # P^0 is never requested, but the oracle stays consistent there too
    assert _count_coprime_range_py(1, 5, 0, 11) == 2


# largest bound drawn per dimension n, keeping each box walk under 10 ms
_MAX_BOUND = {1: 80, 2: 20, 3: 7}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_count_points_matches_enumeration(n, data):
    bound = data.draw(st.integers(1, _MAX_BOUND[n]), label="bound")
    threads = data.draw(st.integers(1, 8), label="threads")
    m = 2 * bound + 1
    count = count_points(n, bound, threads=threads).count
    assert 2 * count == _count_coprime_range_py(n + 1, bound, 0, m)
    if m ** (n + 1) <= 3000:  # tiny boxes: the naive oracle too
        assert count == count_points_oracle(n, bound)
