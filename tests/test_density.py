import json
import random
from fractions import Fraction
from math import lcm
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from orbitheight.cli import run_job
from orbitheight.density import (
    _least_modulus,
    EMPTY,
    NATURALS,
    EventuallyPeriodicSet,
    check_lemma_shifts,
    density,
    intersection,
    shift,
    shift_set,
    union,
)
from orbitheight.errors import HypothesisViolated, InvalidParameter


def multiples_of(m: int) -> EventuallyPeriodicSet:
    return EventuallyPeriodicSet(m, [0])


def count_prefix(s: EventuallyPeriodicSet, n: int) -> int:
    """Exact |S intersect [1, n]|."""
    if n < 1:
        return 0
    total = 0
    for r in s.residues:
        if r == 0:
            total += n // s.modulus
        elif r <= n:
            total += (n - r) // s.modulus + 1
    total += sum(1 for x in s.added if 1 <= x <= n)
    total -= sum(1 for x in s.removed if 1 <= x <= n)
    return total


def test_density_examples():
    assert density(EventuallyPeriodicSet(2, [0])) == Fraction(1, 2)
    assert density(EventuallyPeriodicSet(1, [0], removed=[5, 17])) == 1
    assert density(EMPTY) == 0


def test_membership():
    s = EventuallyPeriodicSet(3, [0], added=[7], removed=[9])
    assert 0 in s and 3 in s and 6 in s
    assert 7 in s
    assert 9 not in s
    assert -3 not in s


def test_exceptions_normalized():
    # redundant flags are dropped
    s = EventuallyPeriodicSet(2, [0], added=[4], removed=[5])
    assert s.added == frozenset() and s.removed == frozenset()
    assert s == EventuallyPeriodicSet(2, [0])


def test_least_modulus_canonicalization():
    assert EventuallyPeriodicSet(4, [0, 2]) == EventuallyPeriodicSet(2, [0])
    assert EventuallyPeriodicSet(6, [0, 2, 4]) == EventuallyPeriodicSet(2, [0])
    assert EventuallyPeriodicSet(6, [0, 3]).modulus == 3
    assert EventuallyPeriodicSet(4, [0, 1]).modulus == 4


def least_modulus_by_scan(m, residues):
    """Reference: try every d in 1..m."""
    for d in range(1, m + 1):
        if m % d:
            continue
        classes = frozenset(r % d for r in residues)
        if len(residues) == len(classes) * (m // d):
            return d, classes
    return m, residues


@st.composite
def moduli_and_residues(draw):
    """A modulus m <= 2000 and residues mod m lifted from some divisor d of m,
    optionally with one class toggled, so that both the reducible and the
    irreducible cases are drawn."""
    m = draw(st.integers(1, 2000))
    d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    base = draw(st.sets(st.integers(0, d - 1)))
    residues = {r + k * d for r in base for k in range(m // d)}
    if draw(st.booleans()):
        residues ^= {draw(st.integers(0, m - 1))}
    return m, frozenset(residues)


@given(moduli_and_residues())
def test_least_modulus_matches_scan(case):
    m, residues = case
    assert _least_modulus(m, residues) == least_modulus_by_scan(m, residues)


def test_density_job_with_huge_modulus_runs_fast(tmp_path):
    for m in (300_000_000, 30_000_000_000_000_000):
        job = tmp_path / "big.json"
        job.write_text(json.dumps({"kind": "density", "set": {"modulus": m, "residues": [0, 1]}}))
        t0 = perf_counter()
        csv_path, json_path = run_job(job, out_dir=tmp_path)
        assert perf_counter() - t0 < 1.0
        assert json.loads(json_path.read_text())["shift_set"] == f"mod {m}: {{0,1,{m - 1}}}"
        assert csv_path.read_text().splitlines()[2] == f"density,1/{m // 2}"


def combine_by_classes(a, b, keep):
    """Reference: classify each n up to the last exception as added or removed here."""
    m = lcm(a.modulus, b.modulus)
    residues = [r for r in range(m) if keep(r % a.modulus in a.residues, r % b.modulus in b.residues)]
    periodic_part = set(residues)
    added, removed = [], []
    exceptions = a.added | a.removed | b.added | b.removed
    for n in range(max(exceptions, default=-1) + 1):
        actual = keep(n in a, n in b)
        periodic = n % m in periodic_part
        if actual and not periodic:
            added.append(n)
        elif periodic and not actual:
            removed.append(n)
    return EventuallyPeriodicSet(m, residues, added, removed)


def shift_by_classes(s, i):
    """Reference: classify each n up to the last exception plus i as added or removed here."""
    m = s.modulus
    residues = {(r + i) % m for r in s.residues}
    added, removed = [], []
    for n in range(max(0, max(s.added | s.removed, default=-1) + 1 + i)):
        actual = (n - i) in s
        periodic = n % m in residues
        if actual and not periodic:
            added.append(n)
        elif periodic and not actual:
            removed.append(n)
    return EventuallyPeriodicSet(m, residues, added, removed)


@st.composite
def sets_with_exceptions(draw):
    m = draw(st.integers(1, 12))
    naturals = st.lists(st.integers(0, 40), max_size=6)
    return EventuallyPeriodicSet(m, draw(st.sets(st.integers(0, m - 1))),
                                 draw(naturals), draw(naturals))


@given(sets_with_exceptions(), sets_with_exceptions(), st.integers(-45, 45))
def test_set_operations_match_classifying_reference(a, b, i):
    assert union(a, b).to_json() == combine_by_classes(a, b, lambda x, y: x or y).to_json()
    assert intersection(a, b).to_json() == combine_by_classes(a, b, lambda x, y: x and y).to_json()
    assert shift(a, i).to_json() == shift_by_classes(a, i).to_json()


def test_set_operations_cost_what_their_exceptions_list():
    # one exception at 10^7 + 1: the set algebra classifies it, not every n below it
    t0 = perf_counter()
    odds = shift(EventuallyPeriodicSet(2, [0], added=[10**7 + 1]), 1)
    assert odds == EventuallyPeriodicSet(2, [1], added=[10**7 + 2])
    assert union(odds, EventuallyPeriodicSet(3, [1])) == EventuallyPeriodicSet(
        6, [1, 3, 4, 5], added=[10**7 + 2])
    assert perf_counter() - t0 < 0.5


def test_set_operations_cost_what_their_residues_list():
    # moduli 3000 and 3001: the residues come from the 6,001 listed ones
    # lifted to the lcm 9,003,000, not from a walk of all of them
    t0 = perf_counter()
    both = union(multiples_of(3000), multiples_of(3001))
    assert perf_counter() - t0 < 0.5
    assert both.modulus == 9003000 and len(both.residues) == 6000
    assert intersection(multiples_of(3000), multiples_of(3001)) == multiples_of(9003000)


def test_set_algebra_examples():
    t3 = multiples_of(3)
    assert intersection(t3, shift(t3, 1)) == EMPTY
    odds = shift(EventuallyPeriodicSet(2, [0]), 1)
    assert odds == EventuallyPeriodicSet(2, [1])
    assert density(odds) == Fraction(1, 2)
    u = union(EventuallyPeriodicSet(2, [0]), t3)
    assert u == EventuallyPeriodicSet(6, [0, 2, 3, 4])
    assert density(u) == Fraction(2, 3)


def test_shift_truncates_below_zero():
    s = EventuallyPeriodicSet(5, [2], added=[0])
    left = shift(s, -3)
    # members 0,2,7,12,... shift to -3,-1,4,9,... so 4 is the first survivor
    assert 4 in left and 9 in left
    assert 0 not in left and 1 not in left
    assert density(left) == density(s)


def test_shift_set_examples():
    t3 = multiples_of(3)
    assert shift_set(t3) == t3
    assert density(shift_set(t3)) == Fraction(1, 3)
    s = EventuallyPeriodicSet(4, [0, 1])
    sigma = shift_set(s)
    assert sigma == EventuallyPeriodicSet(4, [0, 1, 3])
    assert density(sigma) == Fraction(3, 4)
    assert shift_set(EMPTY) == EMPTY


def test_check_lemma_examples(monkeypatch):
    t3 = multiples_of(3)
    assert check_lemma_shifts(t3, [0, 1, 2, 3], 4) == (3, 0)
    assert check_lemma_shifts(EventuallyPeriodicSet(2, [0]), [1, 2, 3], 3) == (3, 1)
    j, k = check_lemma_shifts(NATURALS, [10, 14], 2)
    assert (j, k) == (14, 10)
    # a wrong shift set that leaves no witness fails loudly instead of returning one
    monkeypatch.setattr("orbitheight.density.shift_set", lambda s: EMPTY)
    with pytest.raises(AssertionError, match="pigeonhole bound"):
        check_lemma_shifts(NATURALS, [10, 14], 2)


def test_check_lemma_hypothesis_violated():
    with pytest.raises(HypothesisViolated):
        check_lemma_shifts(multiples_of(3), [0, 1], 4)  # |F| too small
    with pytest.raises(HypothesisViolated):
        check_lemma_shifts(multiples_of(3), [0, 1, 2], 3)  # 1/3 not > 1/3


def test_invalid_inputs():
    with pytest.raises(InvalidParameter):
        EventuallyPeriodicSet(0, [])
    with pytest.raises(InvalidParameter):
        EventuallyPeriodicSet(2, [0], added=[-1])


def _random_set(rng: random.Random) -> EventuallyPeriodicSet:
    m = rng.randint(1, 30)
    residues = [r for r in range(m) if rng.random() < 0.4]
    added = [rng.randrange(0, 5 * m) for _ in range(rng.randint(0, 3))]
    removed = [rng.randrange(0, 5 * m) for _ in range(rng.randint(0, 3))]
    return EventuallyPeriodicSet(m, residues, added, removed)


def test_proposition_shift_set_positive_density():
    rng = random.Random(20240817)
    checked = 0
    while checked < 300:
        s = _random_set(rng)
        if density(s) == 0:
            continue
        sigma = shift_set(s)
        assert 0 in sigma
        assert density(sigma) >= Fraction(1, s.modulus)
        checked += 1


def test_lemma_witnesses_randomized():
    rng = random.Random(77)
    checked = 0
    while checked < 300:
        s = _random_set(rng)
        d = density(s)
        if d == 0:
            continue
        n_bound = int(1 / d) + 1
        f_set = sorted(rng.sample(range(0, 200), n_bound + rng.randint(0, 4)))
        j, k = check_lemma_shifts(s, f_set, n_bound)
        assert j > k and j in f_set and k in f_set
        # independent verification through the set algebra
        assert density(intersection(s, shift(s, j - k))) > 0
        checked += 1


def test_translation_invariance_and_subadditivity_randomized():
    rng = random.Random(99)
    for _ in range(300):
        a = _random_set(rng)
        b = _random_set(rng)
        i = rng.randint(0, 50)
        assert density(shift(a, i)) == density(a)
        assert density(union(a, b)) <= density(a) + density(b)


@given(st.integers(1, 12), st.sets(st.integers(0, 11)), st.integers(0, 30))
def test_shift_membership_property(m, residues, i):
    s = EventuallyPeriodicSet(m, [r % m for r in residues])
    t = shift(s, i)
    for n in range(120):
        assert (n in t) == (n - i >= 0 and (n - i) in s)


@given(st.integers(1, 10), st.sets(st.integers(0, 9)), st.integers(1, 10), st.sets(st.integers(0, 9)))
def test_union_intersection_membership(m1, r1, m2, r2):
    a = EventuallyPeriodicSet(m1, [r % m1 for r in r1], added=[101], removed=[])
    b = EventuallyPeriodicSet(m2, [r % m2 for r in r2])
    u = union(a, b)
    x = intersection(a, b)
    for n in range(150):
        assert (n in u) == ((n in a) or (n in b))
        assert (n in x) == ((n in a) and (n in b))


def test_empirical_convergence_bound():
    rng = random.Random(5)
    for _ in range(50):
        s = _random_set(rng)
        n = 10**4 * s.modulus
        dev = abs(Fraction(count_prefix(s, n), n) - density(s))
        exceptions = len(s.added) + len(s.removed)
        assert dev <= Fraction(exceptions + s.modulus, n)


def test_textual_form():
    s = EventuallyPeriodicSet(4, [0, 1], added=[6], removed=[4])
    assert str(s) == "mod 4: {0,1} +{6} -{4}"
    assert repr(s) == "EventuallyPeriodicSet(mod 4: {0,1} +{6} -{4})"
    assert str(EMPTY) == "mod 1: {}"
    # equal canonical forms hash alike, so sets and dict keys merge them
    assert {s, EventuallyPeriodicSet(8, [0, 1, 4, 5], added=[6], removed=[4])} == {s}


def test_json_roundtrip():
    s = EventuallyPeriodicSet(6, [0, 3], added=[7], removed=[3])
    assert EventuallyPeriodicSet.from_json(s.to_json()) == s
