import math
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from orbitheight.dfinite import (
    EVENTUALLY_PERIODIC,
    HEIGHT_GROWTH,
    UNDECIDED,
    PRecurrence,
    _root_floors,
    classify_height_growth,
    encode_as_dynamics,
    expand_terms,
    parse_recurrence_job,
)
from orbitheight.errors import (
    HorizonTooShort,
    InvalidParameter,
    MissingInitialTerm,
    MissingSingularTerm,
)
from orbitheight.orbit import iterate_orbit
from orbitheight.poly import Polynomial


def catalan():
    return parse_recurrence_job(
        {"order": 1, "coeffs": ["-(4*n+2)", "n+2"], "initial": {"0": "1"}}
    )


def factorial():
    return parse_recurrence_job(
        {"order": 1, "coeffs": ["-(n+1)", "1"], "initial": {"0": "1"}}
    )


def fibonacci():
    return parse_recurrence_job(
        {"order": 2, "coeffs": ["-1", "-1", "1"], "initial": {"0": "0", "1": "1"}}
    )


def period3():
    return parse_recurrence_job(
        {"order": 3, "coeffs": ["-1", "0", "0", "1"], "initial": {"0": "1", "1": "7", "2": "7"}}
    )


def motzkin():
    return parse_recurrence_job(
        {"order": 2, "coeffs": ["-(3*n+3)", "-(2*n+5)", "n+4"], "initial": {"0": "1", "1": "1"}}
    )


def singular_step():
    # trailing coefficient n-3 vanishes at n=3; a_4 supplied explicitly
    return parse_recurrence_job(
        {"order": 1, "coeffs": ["-(n+1)", "n-3"], "initial": {"0": "1", "4": "7"}}
    )


def test_expand_catalan():
    assert expand_terms(catalan(), 5) == [1, 1, 2, 5, 14, 42]


def test_expand_factorial():
    assert expand_terms(factorial(), 5) == [1, 1, 2, 6, 24, 120]


def test_expand_period3():
    assert expand_terms(period3(), 8) == [1, 7, 7, 1, 7, 7, 1, 7, 7]


def test_expand_fibonacci_and_motzkin():
    assert expand_terms(fibonacci(), 10) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert expand_terms(motzkin(), 8) == [1, 1, 2, 4, 9, 21, 51, 127, 323]


def test_expand_rational_terms():
    rec = parse_recurrence_job(
        {"order": 1, "coeffs": ["-1", "n+1"], "initial": {"0": "1"}}
    )
    # a_{n+1} = a_n / (n+1), so a_n = 1/n!
    assert expand_terms(rec, 4) == [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]


def test_missing_initial_term():
    rec = PRecurrence(
        order=2,
        coeffs=(
            Polynomial.constant(("n",), -1),
            Polynomial.constant(("n",), -1),
            Polynomial.constant(("n",), 1),
        ),
        initial_terms={0: Fraction(0)},
    )
    with pytest.raises(MissingInitialTerm):
        expand_terms(rec, 5)


def test_missing_singular_term():
    rec = parse_recurrence_job(
        {"order": 1, "coeffs": ["-(n+1)", "n-3"], "initial": {"0": "1"}}
    )
    with pytest.raises(MissingSingularTerm) as exc:
        expand_terms(rec, 8)
    assert exc.value.n == 3


def test_check_terms_names_the_first_missing_term():
    rec = parse_recurrence_job({"order": 1, "coeffs": ["-(n+1)", "n-5"], "initial": {"0": "1"}})
    rec.check_terms(5)  # a_6, past the singular index 5, is not needed up to n = 5
    with pytest.raises(MissingSingularTerm) as exc:
        rec.check_terms(6)
    assert exc.value.n == 5
    assert str(exc.value) == "trailing coefficient vanishes at n=5; supply the term it would define"
    with pytest.raises(MissingInitialTerm) as exc:
        parse_recurrence_job({"order": 1, "coeffs": ["-(n+1)", "1"]}).check_terms(30)
    assert exc.value.n == 0 and str(exc.value) == "initial term a_0 not supplied"


def test_singular_expansion():
    terms = expand_terms(singular_step(), 6)
    assert terms[:4] == [1, Fraction(-1, 3), Fraction(1, 3), -1]
    assert terms[4] == 7  # supplied across the singular index
    assert terms[5] == 35 and terms[6] == 105


def divisor_roots(p: Polynomial) -> set[int]:
    """Reference: integer roots of p among the divisors of its lowest
    nonzero coefficient (0 when n divides p), by trial division."""
    low = min(e for e, in p.terms)
    c0 = abs(p.terms[(low,)])
    divisors = [d for d in range(1, math.isqrt(c0) + 1) if c0 % d == 0]
    candidates = {s * d for d in divisors + [c0 // d for d in divisors] for s in (1, -1)}
    return {m for m in candidates | ({0} if low else set()) if p.pair_at(((m, 1),))[0] == 0}


N_POLY = Polynomial.variable(("n",), "n")


def n_minus(c: int) -> Polynomial:
    return N_POLY - Polynomial.constant(("n",), c)


def is_square(d: int) -> bool:
    return d >= 0 and math.isqrt(d) ** 2 == d


@st.composite
def products_of_linear_factors(draw):
    """c * prod (n - r_i), |r_i| <= 30, repeated roots allowed, sometimes
    times an irreducible quadratic n^2 + b n + e, whose real roots (if any)
    are irrational and move the breakpoints of the root search."""
    p = Polynomial.constant(("n",), draw(st.sampled_from([1, -1, 2, -3, 7])))
    for r in draw(st.lists(st.integers(-30, 30), max_size=6)):
        p = p * n_minus(r)
    if draw(st.booleans()):
        b, e = draw(st.tuples(st.integers(-20, 20), st.integers(-20, 20)).filter(
            lambda be: not is_square(be[0] ** 2 - 4 * be[1])))
        p = p * (N_POLY * N_POLY + N_POLY.scale(b) + Polynomial.constant(("n",), e))
    return p


@given(products_of_linear_factors())
def test_integer_roots_match_divisor_enumeration(p):
    assert {m for m in _root_floors(p) if p.pair_at(((m, 1),))[0] == 0} == divisor_roots(p)


def singular_indices_of(trailing: Polynomial) -> list[int]:
    return PRecurrence(1, (Polynomial.constant(("n",), 1), trailing), {}).singular_indices()


def test_singular_indices_of_a_large_root_are_fast():
    t0 = perf_counter()
    assert singular_indices_of(n_minus(10**18)) == [10**18]
    assert perf_counter() - t0 < 0.1


def test_singular_indices_include_root_zero():
    assert singular_indices_of(N_POLY * n_minus(5)) == [0, 5]
    assert PRecurrence(
        1, (Polynomial.constant(("n",), 1), N_POLY * n_minus(5)), {}, offset=1
    ).singular_indices() == [5]


def poly_text(coeffs: list[Fraction]) -> str:
    return " + ".join(f"({c.numerator}/{c.denominator})*n^{k}" for k, c in enumerate(coeffs))


def reference_terms(coeffs, initial, offset, n_max):
    """Terms of sum_k p_k(n) a_{n+k} = 0 in Fraction arithmetic, with the
    p_k as lists of rational coefficients; the n with p_r(n) = 0 and no
    supplied a_{n+r} is returned in place of the terms."""
    r = len(coeffs) - 1
    at = [lambda n, c=c: sum(ck * n**k for k, ck in enumerate(c)) for c in coeffs]
    terms = [initial[n] for n in range(min(offset + r, n_max + 1))]
    for n in range(offset, n_max + 1 - r):
        lead = at[r](n)
        if lead == 0:
            if n + r not in initial:
                return n
            terms.append(initial[n + r])
        else:
            terms.append(-sum(at[k](n) * terms[n + k] for k in range(r)) / lead)
    return terms


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def recurrence_jobs(draw):
    """Order 1-3, offset 0-2, coefficients of degree <= 2 with rational
    coefficients; the trailing one often has roots in the expanded range,
    and each of its singular indices gets its term supplied or not."""
    r, offset, n_max = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 40))
    coeffs = [draw(st.lists(rationals, min_size=1, max_size=3)) for _ in range(r)]
    if draw(st.booleans()):  # c (n - s), or c (n - s)(n - s'), with s, s' in range
        roots = draw(st.lists(st.integers(-2, 42), min_size=1, max_size=2))
        trailing = [draw(rationals.filter(bool))]
        for s in roots:  # multiply by (n - s)
            trailing = [-s * a + b for a, b in zip(trailing + [0], [0] + trailing)]
    else:
        trailing = draw(st.lists(rationals, min_size=1, max_size=3).filter(any))
    coeffs.append(trailing)
    initial = {n: draw(rationals) for n in range(offset + r)}
    for n in range(offset, n_max + 1):
        if sum(c * n**k for k, c in enumerate(trailing)) == 0 and draw(st.booleans()):
            initial[n + r] = draw(rationals)
    job = {"order": r, "coeffs": [poly_text(c) for c in coeffs], "offset": offset,
           "initial": {str(n): str(v) for n, v in initial.items()}}
    return job, reference_terms(coeffs, initial, offset, n_max), n_max


@given(recurrence_jobs())
def test_expand_terms_matches_fraction_reference(case):
    job, expected, n_max = case
    rec = parse_recurrence_job(job)
    if isinstance(expected, int):
        with pytest.raises(MissingSingularTerm) as exc:
            expand_terms(rec, n_max)
        assert exc.value.n == expected
    else:
        assert expand_terms(rec, n_max) == expected


def test_encode_catalan():
    phi, observable, start, valid_from = encode_as_dynamics(catalan())
    assert valid_from == 0
    assert start == (Fraction(0), Fraction(1))
    assert str(phi) == "(t + 1, (4*t*v0 + 2*v0)/(t + 2))"
    trace = iterate_orbit(phi, observable, start, 500)
    terms = expand_terms(catalan(), 500)
    for n in range(501):
        assert trace.rows[n].value.as_fraction() == terms[n]


def test_encode_fibonacci_constant_coeffs():
    phi, observable, start, valid_from = encode_as_dynamics(fibonacci())
    assert str(phi) == "(t + 1, v1, v0 + v1)"
    assert start == (Fraction(0), Fraction(0), Fraction(1))
    assert valid_from == 0


def test_encode_factorial():
    phi, observable, start, _ = encode_as_dynamics(factorial())
    assert str(phi) == "(t + 1, t*v0 + v0)"
    assert start == (Fraction(0), Fraction(1))


def test_encode_skips_singular_indices():
    rec = singular_step()
    phi, observable, start, valid_from = encode_as_dynamics(rec)
    assert valid_from == 4
    assert start == (Fraction(4), Fraction(7))
    trace = iterate_orbit(phi, observable, start, 60)
    terms = expand_terms(rec, 64)
    assert trace.stop_reason == "completed"
    for k in range(61):
        assert trace.rows[k].value.as_fraction() == terms[valid_from + k]


@pytest.mark.parametrize(
    "rec_factory,horizon",
    [(catalan, 500), (factorial, 200), (fibonacci, 500), (period3, 500), (motzkin, 500)],
)
def test_encoding_equivalence_catalog(rec_factory, horizon):
    rec = rec_factory()
    phi, observable, start, valid_from = encode_as_dynamics(rec)
    trace = iterate_orbit(phi, observable, start, horizon - valid_from)
    terms = expand_terms(rec, horizon)
    assert trace.stop_reason == "completed"
    for k, row in enumerate(trace.rows):
        assert row.value.as_fraction() == terms[valid_from + k]


def test_classify_period3():
    verdict = classify_height_growth(expand_terms(period3(), 500))
    assert verdict.kind == EVENTUALLY_PERIODIC
    assert (verdict.preperiod, verdict.period) == (0, 3)
    assert verdict.verified_to == 500
    # soundness of the claim
    terms = expand_terms(period3(), 500)
    for n in range(0, 500 - 3 + 1):
        assert terms[n] == terms[n + 3]


def test_classify_preperiodic():
    terms = [Fraction(9), Fraction(9)] + expand_terms(period3(), 400)
    verdict = classify_height_growth(terms)
    assert verdict.kind == EVENTUALLY_PERIODIC
    assert (verdict.preperiod, verdict.period) == (2, 3)


def test_classify_factorial():
    verdict = classify_height_growth(expand_terms(factorial(), 200), epsilon=1.0)
    assert verdict.kind == HEIGHT_GROWTH
    # oracle: exact big-integer height of 200! against the Stirling scale
    h200 = math.log(math.factorial(200))
    assert verdict.tail_ratio == pytest.approx(h200 / math.log(200), rel=1e-9)
    assert verdict.tail_ratio >= 100


def test_classify_catalan():
    verdict = classify_height_growth(expand_terms(catalan(), 500), epsilon=1.0)
    assert verdict.kind == HEIGHT_GROWTH
    c500 = math.comb(1000, 500) // 501
    assert verdict.tail_ratio == pytest.approx(math.log(c500) / math.log(500), rel=1e-9)
    assert verdict.tail_ratio >= 50


def test_classify_undecided():
    terms = [Fraction(n) for n in range(200)]
    verdict = classify_height_growth(terms, epsilon=2.0)
    assert verdict.kind == UNDECIDED


def test_classify_horizon_too_short():
    with pytest.raises(HorizonTooShort):
        classify_height_growth([Fraction(1)] * 5, n0=10)


def test_monotone_horizon_on_catalog():
    for factory in (catalan, factorial, fibonacci):
        terms = expand_terms(factory(), 400)
        r1 = classify_height_growth(terms[:201], epsilon=1.0).tail_ratio
        r2 = classify_height_growth(terms[:401], epsilon=1.0).tail_ratio
        assert r2 >= r1


def test_invalid_recurrences():
    with pytest.raises(InvalidParameter):
        PRecurrence(order=0, coeffs=(Polynomial.constant(("n",), 1),), initial_terms={})
    with pytest.raises(InvalidParameter):
        parse_recurrence_job({"order": 1, "coeffs": ["1", "0"], "initial": {"0": "1"}})
    with pytest.raises(InvalidParameter):
        parse_recurrence_job({"order": 1, "coeffs": ["1", "1/n"], "initial": {"0": "1"}})
