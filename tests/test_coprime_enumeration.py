"""Enumeration oracles for the projective point count.

`count_points` counts by the quotient recursion
N(x) = F(x) - sum_{g>=2} N(floor(x/g)).  The two box walks below are
test-only references that share no logic with it: a pure-Python loop and a
chunked numpy gcd expansion.  Both count the raw coprime vectors of
[-box, box]^k (v and -v both) whose leading digit lies in a given range, so
they must agree with each other on every range, and half of their full-box
count must equal `count_points(k - 1, box).count`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitheight.schanuel import count_points, count_points_oracle

_CHUNK = 1 << 22  # elements per vectorized block in the numpy walk


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


def count_coprime_range_numpy(
    k: int, box: int, d0_lo: int, d0_hi: int, chunk: int = _CHUNK
) -> int:
    """Same count as `_count_coprime_range_py`, via chunked vectorized gcds.

    Prefix gcds are expanded one digit at a time; prefixes that already hit
    gcd 1 contribute a closed-form block count and leave the working set.
    """
    m = 2 * box + 1
    absc = np.abs(np.arange(m, dtype=np.int64) - box)
    step = max(1, chunk // m)

    def expand(g: np.ndarray, digits_done: int) -> int:
        remaining = k - digits_done
        ones = int(np.count_nonzero(g == 1))
        total = ones * m**remaining
        g = g[g != 1]
        for i in range(0, g.size, step):
            blk = np.gcd(g[i : i + step, None], absc[None, :])
            if remaining == 1:
                total += int(np.count_nonzero(blk == 1))
            else:
                total += expand(blk.ravel(), digits_done + 1)
        return total

    lead = np.abs(np.arange(d0_lo, d0_hi, dtype=np.int64) - box)
    if k == 1:
        return int(np.count_nonzero(lead == 1))
    return expand(lead, 1)


GRID = [
    (2, 1), (2, 2), (2, 9), (2, 25),
    (3, 1), (3, 4), (3, 7),
    (4, 2), (4, 3),
    (5, 1),
]


@pytest.mark.parametrize("k,box", GRID)
def test_numpy_matches_reference(k, box):
    m = 2 * box + 1
    raw = _count_coprime_range_py(k, box, 0, m)
    assert count_coprime_range_numpy(k, box, 0, m) == raw
    assert count_points(k - 1, box).count == raw // 2


@pytest.mark.parametrize("k,box", [(2, 11), (3, 5)])
def test_partial_ranges_partition(k, box):
    m = 2 * box + 1
    total = count_coprime_range_numpy(k, box, 0, m)
    cuts = [0, m // 3, m // 2, m - 1, m]
    for lo, hi in zip(cuts, cuts[1:]):
        assert count_coprime_range_numpy(k, box, lo, hi) == _count_coprime_range_py(
            k, box, lo, hi
        )
    parts = sum(
        count_coprime_range_numpy(k, box, lo, hi) for lo, hi in zip(cuts, cuts[1:])
    )
    assert parts == total


def test_k1_edge():
    # P^0 is never requested, but the oracles stay consistent there too
    assert count_coprime_range_numpy(1, 5, 0, 11) == 2
    assert _count_coprime_range_py(1, 5, 0, 11) == 2


def test_chunked_numpy_path():
    # force many chunks to exercise the recursion split
    box = 6
    m = 2 * box + 1
    assert count_coprime_range_numpy(3, box, 0, m, chunk=64) == (
        _count_coprime_range_py(3, box, 0, m)
    )


# largest bound drawn per dimension n, keeping each numpy walk under 0.1 s
_MAX_BOUND = {1: 80, 2: 20, 3: 7}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_count_points_matches_enumeration(n, data):
    bound = data.draw(st.integers(1, _MAX_BOUND[n]), label="bound")
    threads = data.draw(st.integers(1, 8), label="threads")
    m = 2 * bound + 1
    count = count_points(n, bound, threads=threads).count
    assert 2 * count == count_coprime_range_numpy(n + 1, bound, 0, m)
    if m ** (n + 1) <= 3000:  # tiny boxes: the naive oracle too
        assert count == count_points_oracle(n, bound)
