import csv
import functools
import io
import math
import string
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbitheight.errors import AllZero
from orbitheight.exact import (
    P1Value,
    PrimitiveVector,
    format_ratio,
    height_projective,
    height_rational,
    normalize_projective,
    report_csv,
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
    values = [P1Value((3, 7)), P1Value((5, 2)), P1Value((1, 1)), P1Value((1, 0))]
    folded = functools.reduce(segre_product, values)
    assert folded.max_abs() == 7 * 5 * 1 * 1
    assert height_projective(folded) == pytest.approx(
        sum(height_projective(v) for v in values), rel=1e-12, abs=1e-12
    )


def test_p1_value():
    v = P1Value(normalize_projective([Fraction(2, 3), Fraction(1, 2)]).coords)
    assert v.coords == (4, 3)
    assert v.as_fraction() == Fraction(4, 3)
    inf = P1Value(normalize_projective([5, 0]).coords)
    assert inf.is_infinity
    with pytest.raises(ZeroDivisionError):
        inf.as_fraction()


def test_serialization():
    assert str(PrimitiveVector((3, 6, 2))) == "(3:6:2)"
    assert format_ratio(2, 3) == "2/3"
    assert format_ratio(-5, 1) == "-5"


# --- the report writer against csv.writer ---

REPORT_ALPHABET = string.digits + string.ascii_letters + "-/;:()., =[]{}+_"
report_fields = st.one_of(
    st.text(REPORT_ALPHABET, max_size=12),
    st.sampled_from(["progression(a=0,d=2)", "mod 3: {0,1} +{7}", ",", ",,", ""]),
)
report_rows = st.lists(report_fields, min_size=2, max_size=6)


def csv_writer_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@given(report_rows, st.lists(report_rows, max_size=8))
def test_report_csv_matches_csv_writer(header, rows):
    assert report_csv(header, (tuple(r) for r in rows)) == csv_writer_text(header, rows)


def test_report_csv_quotes_only_fields_with_commas():
    text = report_csv(("n", "component"), iter([("0", "progression(a=0,d=2)"), ("1", "residual")]))
    assert text == 'n,component\n0,"progression(a=0,d=2)"\n1,residual\n'


@pytest.mark.parametrize("bad", [
    'say "hi"', '"', "a\nb", "a\rb", "end\n", 'x,"y"', '"x,y"', "x,\ny",
])
def test_report_csv_rejects_quotes_and_line_breaks(bad):
    for header, rows in [(("a", "b"), [("1", bad)]),
                         (("a", "b"), [("1", "p,q"), (bad, "2")]),
                         (("a", bad), [])]:
        with pytest.raises(ValueError):
            report_csv(header, iter(rows))
