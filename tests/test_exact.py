import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbitheight.errors import AllZero
from orbitheight.exact import (
    P1Value,
    PrimitiveVector,
    format_rational,
    height_projective,
    height_rational,
    normalize_projective,
    p1_value,
    segre_fold,
    segre_product,
)


def test_normalize_examples():
    assert normalize_projective([3, 6, 2]).coords == (3, 6, 2)
    assert normalize_projective([Fraction(1, 2), Fraction(1, 3)]).coords == (3, 2)
    assert normalize_projective([-2, 4]).coords == (1, -2)


def test_normalize_all_zero():
    with pytest.raises(AllZero):
        normalize_projective([0, 0, 0])
    with pytest.raises(AllZero):
        normalize_projective([Fraction(0)])


def test_primitive_vector_invariants():
    with pytest.raises(ValueError):
        PrimitiveVector((2, 4))
    with pytest.raises(ValueError):
        PrimitiveVector((-1, 2))
    with pytest.raises(AllZero):
        PrimitiveVector(())


def test_height_examples():
    assert height_projective(PrimitiveVector((1, 0))) == 0.0
    assert height_projective(PrimitiveVector((2, 3))) == pytest.approx(math.log(3), rel=1e-12)
    assert height_projective(PrimitiveVector((3, 6, 2))) == pytest.approx(math.log(6), rel=1e-12)
    assert height_rational(Fraction(1)) == 0.0
    assert height_rational(Fraction(2, 3)) == pytest.approx(math.log(3), rel=1e-12)
    assert height_rational(Fraction(1024)) == pytest.approx(10 * math.log(2), rel=1e-12)


def test_height_huge_integer():
    q = Fraction(2**5000, 3**2000)
    expected = 5000 * math.log(2)  # numerator dominates
    assert height_rational(q) == pytest.approx(expected, rel=1e-12)


def test_segre_examples():
    assert segre_product(PrimitiveVector((1, 0)), PrimitiveVector((1, 0))).coords == (1, 0, 0, 0)
    prod = segre_product(PrimitiveVector((2, 3)), PrimitiveVector((1, 5)))
    assert prod.coords == (2, 10, 3, 15)
    assert prod.max_abs() == 15  # = 3 * 5, exact additivity on the integers
    assert height_projective(prod) == pytest.approx(math.log(3) + math.log(5), rel=1e-12)


coord_lists = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4).filter(
    lambda v: any(c != 0 for c in v)
)
nonzero_rationals = st.fractions(
    min_value=Fraction(-10**4), max_value=Fraction(10**4), max_denominator=10**3
).filter(lambda q: q != 0)


@given(coord_lists, nonzero_rationals)
def test_scaling_invariance(coords, lam):
    base = normalize_projective(coords)
    scaled = normalize_projective([Fraction(c) * lam for c in coords])
    assert scaled == base


@given(coord_lists, coord_lists)
def test_segre_additivity_exact(a, b):
    p = normalize_projective(a)
    q = normalize_projective(b)
    prod = segre_product(p, q)
    # exact on the integers; the constructor already re-checked primitivity
    assert prod.max_abs() == p.max_abs() * q.max_abs()
    assert height_projective(prod) == pytest.approx(
        height_projective(p) + height_projective(q), rel=1e-12, abs=1e-12
    )


@given(coord_lists)
def test_height_nonnegative(coords):
    p = normalize_projective(coords)
    h = height_projective(p)
    assert h >= 0.0
    assert (h == 0.0) == (p.max_abs() == 1)


def test_segre_fold_window_identity():
    values = [p1_value(Fraction(3, 7), 1), p1_value(5, 2), p1_value(1, 1), P1Value((1, 0))]
    folded = segre_fold(values)
    assert folded.max_abs() == 7 * 5 * 1 * 1
    assert height_projective(folded) == pytest.approx(
        sum(height_projective(v) for v in values), rel=1e-12, abs=1e-12
    )


def test_p1_value():
    v = p1_value(Fraction(2, 3), Fraction(1, 2))
    assert v.coords == (4, 3)
    assert v.as_fraction() == Fraction(4, 3)
    inf = p1_value(5, 0)
    assert inf.is_infinity
    with pytest.raises(ZeroDivisionError):
        inf.as_fraction()


def test_serialization():
    assert str(PrimitiveVector((3, 6, 2))) == "(3:6:2)"
    assert format_rational(Fraction(2, 3)) == "2/3"
    assert format_rational(Fraction(5)) == "5"
