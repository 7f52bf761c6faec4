"""Exact algebra of eventually-periodic subsets of N.

A set in this class is a union of residue classes mod m corrected by
finitely many added/removed elements.  The class is closed under union,
intersection, and shifts, and on it the upper asymptotic density equals
the limit |R|/m exactly, so every density statement here is a statement
about finite residue arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import HypothesisViolated, InvalidParameter


class EventuallyPeriodicSet:
    """Residue classes mod m plus a finite symmetric difference.

    Canonical form: the least modulus among equivalent representations
    (the least period of the residues, read off their differences, so the
    cost depends on the listed residues and never on factoring m), added
    elements not already in the periodic part, removed elements taken from
    it.  Instances are immutable and hashable.
    """

    __slots__ = ("modulus", "residues", "added", "removed")

    def __init__(
        self,
        modulus: int,
        residues: Iterable[int],
        added: Iterable[int] = (),
        removed: Iterable[int] = (),
    ):
        if modulus < 1:
            raise InvalidParameter(f"modulus must be >= 1, got {modulus}")
        residues = frozenset(r % modulus for r in residues)
        added = frozenset(added)
        removed = frozenset(removed)
        for x in added | removed:
            if x < 0:
                raise InvalidParameter(f"exception {x} is not a natural number")
        # drop redundant exceptions so membership flags are genuine flips
        added = frozenset(x for x in added if x % modulus not in residues)
        removed = frozenset(x for x in removed if x % modulus in residues)
        modulus, residues = _least_modulus(modulus, residues)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "added", added)
        object.__setattr__(self, "removed", removed)

    def __setattr__(self, *_):
        raise AttributeError("EventuallyPeriodicSet is immutable")

    # --- membership ---

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        if n in self.added:
            return True
        if n in self.removed:
            return False
        return n % self.modulus in self.residues

    # --- equality on canonical form ---

    def _key(self):
        return (self.modulus, self.residues, self.added, self.removed)

    def __eq__(self, other) -> bool:
        return isinstance(other, EventuallyPeriodicSet) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __str__(self) -> str:
        body = "mod {}: {{{}}}".format(
            self.modulus, ",".join(str(r) for r in sorted(self.residues))
        )
        if self.added:
            body += " +{" + ",".join(str(x) for x in sorted(self.added)) + "}"
        if self.removed:
            body += " -{" + ",".join(str(x) for x in sorted(self.removed)) + "}"
        return body

    def __repr__(self) -> str:
        return f"EventuallyPeriodicSet({self})"

    # --- JSON form used in job files ---

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "residues": sorted(self.residues),
            "added": sorted(self.added),
            "removed": sorted(self.removed),
        }

    @classmethod
    def from_json(cls, data: dict) -> "EventuallyPeriodicSet":
        """The set of its JSON form {"modulus": m, "residues": [...], "added": [...],
        "removed": [...]}, the one reader of it: `modulus` is required, and every
        field holds JSON integers (not true, "2" or 0.5), else InvalidParameter."""
        if not isinstance(data, dict):
            raise InvalidParameter("a set must be a JSON object")
        modulus = data.get("modulus")
        lists = [data.get(key, []) for key in ("residues", "added", "removed")]
        if type(modulus) is not int or not all(
            isinstance(xs, list) and all(type(x) is int for x in xs) for xs in lists
        ):
            raise InvalidParameter("a set needs an integer 'modulus' and lists of "
                                   "integers 'residues', 'added' and 'removed'")
        return cls(modulus, *lists)


def _least_modulus(m: int, residues: frozenset[int]) -> tuple[int, frozenset[int]]:
    """The least period t of R mod m, with R reduced mod t.

    The periods t with R + t = R (mod m) form a subgroup of Z/m, generated
    by its least positive element g, a divisor of m; every period is a
    multiple of g.  For any r0 in R, r0 + g lies in R, so g is one of the
    differences r - r0 (or m itself) and the least candidate that is a
    period; the test m % t skips most other candidates cheaply.  Only the
    listed residues are tried, so m is never factored.
    """
    if not residues:
        return 1, residues
    r0 = min(residues)
    for t in sorted({(r - r0) % m for r in residues} - {0} | {m}):
        if m % t == 0 and all((r + t) % m in residues for r in residues):
            return t, frozenset(r % t for r in residues)


NATURALS = EventuallyPeriodicSet(1, [0])
EMPTY = EventuallyPeriodicSet(1, [])


def density(s: EventuallyPeriodicSet) -> Fraction:
    """Upper asymptotic density; on this class it is the exact limit |R|/m."""
    return Fraction(len(s.residues), s.modulus)


def _with_exceptions(m: int, residues: Iterable[int], candidates: Iterable[int],
                     member) -> EventuallyPeriodicSet:
    """Residues R mod m, with membership of each candidate n given by
    member(n), where every n >= 0 that is not a candidate follows R; the
    constructor drops every exception that agrees with R."""
    added, removed = [], []
    for n in candidates:
        (added if member(n) else removed).append(n)
    return EventuallyPeriodicSet(m, residues, added, removed)


def _combine(a: EventuallyPeriodicSet, b: EventuallyPeriodicSet, keep) -> EventuallyPeriodicSet:
    m = lcm(a.modulus, b.modulus)
    # keep(False, False) is False for union and intersection, so each residue
    # of the result is a listed residue of a or of b lifted to the lcm
    lifted = {r + k * s.modulus for s in (a, b) for r in s.residues for k in range(m // s.modulus)}
    residues = [r for r in lifted if keep(r % a.modulus in a.residues, r % b.modulus in b.residues)]
    exceptions = a.added | a.removed | b.added | b.removed
    return _with_exceptions(m, residues, exceptions, lambda n: keep(n in a, n in b))


def union(a: EventuallyPeriodicSet, b: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
    return _combine(a, b, lambda x, y: x or y)


def intersection(a: EventuallyPeriodicSet, b: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
    return _combine(a, b, lambda x, y: x and y)


def shift(s: EventuallyPeriodicSet, i: int) -> EventuallyPeriodicSet:
    """The translate {x + i : x in S}, truncated below 0 when i < 0."""
    moved = [x + i for x in s.added | s.removed if x + i >= 0]
    return _with_exceptions(s.modulus, [r + i for r in s.residues], [*range(i), *moved],
                            lambda n: n - i in s)


def shift_set(s: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
    """Shifts i with d(S intersect (S+i)) > 0: exactly the residue differences.

    Exceptions never contribute because finite corrections are density-null;
    the result is {i >= 0 : i mod m in R - R}.
    """
    m = s.modulus
    diffs = {(r - t) % m for r in s.residues for t in s.residues}
    return EventuallyPeriodicSet(m, diffs)


def check_lemma_shifts(
    s: EventuallyPeriodicSet, f_set: Iterable[int], n_bound: int
) -> tuple[int, int]:
    """Witness j > k in F with j - k in the shift set of S.

    Requires density(S) > 1/n_bound and |F| >= n_bound; under those
    hypotheses a witness always exists, and the search is exhaustive.  The
    returned pair minimizes (j - k, k).
    """
    f_sorted = sorted(set(f_set))
    if len(f_sorted) < n_bound:
        raise HypothesisViolated(
            f"|F| = {len(f_sorted)} but the bound needs at least {n_bound}"
        )
    if density(s) * n_bound <= 1:
        raise HypothesisViolated(
            f"density {density(s)} is not greater than 1/{n_bound}"
        )
    sigma = shift_set(s)
    candidates = sorted(
        ((j - k, k, j) for k in f_sorted for j in f_sorted if j > k),
    )
    for diff, k, j in candidates:
        if diff in sigma:
            return (j, k)
    raise AssertionError(
        "no witness found although the hypotheses hold; this contradicts the "
        "pigeonhole bound and indicates a bug"
    )
