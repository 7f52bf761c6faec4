"""Multi-map orbit grids for commuting self-maps, with norm-sliced heights.

Commutation is checked symbolically (cross-multiplied composites), so a
negative verdict is a proof.  Grids are filled in waves of the 1-norm: an
entry at multi-index n comes from any defined predecessor n - e_i by one
application of map i; commutativity makes the result path-independent
wherever it is defined.  A grid keeps its entries as int-pair columns.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional, Sequence

from .density import EventuallyPeriodicSet
from .errors import (
    DimensionMismatch,
    EmptyIntersection,
    InvalidParameter,
    NotCommuting,
)
from .exact import P1Value, as_pair, format_int, height_pair, report_csv
from .orbit import State, step
from .poly import RationalFunction, RationalMap, compose, p1_pair, rf_equal

MAX_MAPS = 3
MAX_NORM = 200


@dataclass(frozen=True)
class CommutationWitness:
    """Failure evidence: the offending map pair and component index."""

    pair: tuple[int, int]
    component: int


def check_commuting(maps: Sequence[RationalMap]) -> tuple[bool, Optional[CommutationWitness]]:
    """Symbolic pairwise commutation check.

    True (with None) when every pair of composites agrees componentwise
    under cross-multiplication; otherwise False with the first offending
    (pair, component).  A single map commutes vacuously.
    """
    maps = list(maps)
    for phi in maps[1:]:
        if phi.variables != maps[0].variables:
            raise DimensionMismatch("all maps must share one variable list")
    for a, b in combinations(range(len(maps)), 2):
        ab = compose(maps[a], maps[b])
        ba = compose(maps[b], maps[a])
        for c, (f, g) in enumerate(zip(ab.components, ba.components)):
            if not rf_equal(f, g):
                return False, CommutationWitness(pair=(a, b), component=c)
    return True, None


@dataclass(frozen=True)
class GridEntry:
    value: P1Value
    height: float


class _EntryView(Mapping):
    """Read-only mapping multi-index -> GridEntry, built only when read."""

    def __init__(self, coords: dict, h: dict):
        self._coords, self._h = coords, h

    def __getitem__(self, idx) -> GridEntry:
        return GridEntry(value=P1Value._trusted(self._coords[idx]), height=self._h[idx])

    def __iter__(self):
        return iter(self._coords)

    def __len__(self) -> int:
        return len(self._coords)


@dataclass(frozen=True)
class MultiTrace:
    """Observable values (p, q) and heights over the ball {n in N^m : |n|_1 <= N}."""

    maps: tuple[RationalMap, ...]
    observable: RationalFunction
    start: tuple[Fraction, ...]
    norm_bound: int
    coords: dict[tuple[int, ...], tuple[int, int]]
    h: dict[tuple[int, ...], float]
    undefined_at: frozenset[tuple[int, ...]]

    @property
    def num_maps(self) -> int:
        return len(self.maps)

    @property
    def entries(self) -> Mapping[tuple[int, ...], GridEntry]:
        return _EntryView(self.coords, self.h)


def _wave(m: int, s: int):
    """All multi-indices in N^m with 1-norm exactly s, lexicographic."""
    if m == 1:
        yield (s,)
        return
    for first in range(s + 1):
        for rest in _wave(m - 1, s - first):
            yield (first,) + rest


def grid_orbit(
    maps: Sequence[RationalMap],
    observable: RationalFunction,
    start: Sequence[Fraction],
    norm_bound: int,
    allow_large: bool = False,
) -> MultiTrace:
    """Fill the grid of observable values for all multi-indices of norm <= N.

    Raises NotCommuting when the symbolic check fails.  Entries whose every
    predecessor is undefined, or whose computation leaves the affine chart,
    are recorded in undefined_at and skipped by successors.  Default limits
    (<= 3 maps, norm <= 200) guard against accidental blowup; pass
    allow_large=True to override.
    """
    maps = tuple(maps)
    if not maps:
        raise InvalidParameter("need at least one map")
    if not allow_large and (len(maps) > MAX_MAPS or norm_bound > MAX_NORM):
        raise InvalidParameter(
            f"grid of {len(maps)} maps to norm {norm_bound} exceeds the default "
            f"limits ({MAX_MAPS} maps, norm {MAX_NORM}); pass allow_large=True"
        )
    ok, witness = check_commuting(maps)
    if not ok:
        raise NotCommuting(witness.pair, witness.component)
    if observable.variables != maps[0].variables:
        raise DimensionMismatch("observable and maps must share a variable list")
    if len(start) != maps[0].dim:
        raise DimensionMismatch("start point dimension mismatch")

    m = len(maps)
    origin = (0,) * m
    points: dict[tuple[int, ...], State] = {origin: tuple(as_pair(c) for c in start)}
    undefined: set[tuple[int, ...]] = set()
    for s in range(1, norm_bound + 1):
        for idx in _wave(m, s):
            value = None
            for i in range(m):
                if idx[i] == 0:
                    continue
                pred = idx[:i] + (idx[i] - 1,) + idx[i + 1 :]
                prev = points.get(pred)
                if prev is None:
                    continue
                value = step(maps[i], prev)
                if value is not None:
                    break
            if value is None:
                # unreachable and chart-exit both count as undefined
                undefined.add(idx)
            else:
                points[idx] = value

    values = {idx: p1_pair(observable, point) for idx, point in points.items()}
    coords = {idx: value for idx, value in values.items() if value is not None}
    undefined.update(values.keys() - coords.keys())  # the observable is 0/0 there
    return MultiTrace(
        maps=maps,
        observable=observable,
        start=tuple(Fraction(c) for c in start),
        norm_bound=norm_bound,
        coords=coords,
        h={idx: height_pair(p, q) for idx, (p, q) in coords.items()},
        undefined_at=frozenset(undefined),
    )


@dataclass(frozen=True)
class SliceStat:
    s: int
    max_height: float
    ratio: float
    argmax: tuple[int, ...]


@dataclass(frozen=True)
class SliceReport:
    slices: tuple[SliceStat, ...]
    sup_ratio: float
    sup_at: int


def norm_sliced_diagnostics(
    mtrace: MultiTrace,
    norms: EventuallyPeriodicSet,
    n0: int = 2,
    index_filter: Optional[Callable[[tuple[int, ...]], bool]] = None,
) -> SliceReport:
    """Per-norm height maxima M_s and the sup of M_s / log s over s in T.

    Only norms s in T with n0 <= s <= N contribute; slices whose entries
    are all undefined (or all filtered out) are omitted.  index_filter
    restricts which multi-indices count toward each slice maximum.
    """
    if n0 < 2:
        raise InvalidParameter("n0 must be at least 2 so that log s > 0")
    wanted = [
        s for s in range(n0, mtrace.norm_bound + 1) if s in norms
    ]
    if not wanted:
        raise EmptyIntersection(
            f"no norms of the set fall in [{n0}, {mtrace.norm_bound}]"
        )
    by_norm: dict[int, list[tuple[tuple[int, ...], float]]] = {}
    for idx, height in mtrace.h.items():
        if index_filter is not None and not index_filter(idx):
            continue
        by_norm.setdefault(sum(idx), []).append((idx, height))
    stats = []
    for s in wanted:
        bucket = by_norm.get(s)
        if not bucket:
            continue
        # lexicographically smallest index among those achieving the maximum
        idx, height = max(sorted(bucket), key=lambda pair: pair[1])
        stats.append(SliceStat(s=s, max_height=height, ratio=height / math.log(s), argmax=idx))
    if not stats:
        raise EmptyIntersection("every requested slice is undefined or filtered out")
    top = max(stats, key=lambda st: st.ratio)
    return SliceReport(slices=tuple(stats), sup_ratio=top.ratio, sup_at=top.s)


def grid_to_csv(mtrace: MultiTrace) -> str:
    """Grid as CSV with columns n1..nm, value, height (undefined rows skipped)."""
    header = [f"n{i + 1}" for i in range(mtrace.num_maps)] + ["value", "height"]
    coords, h = mtrace.coords, mtrace.h
    return report_csv(header, (
        (*map(str, idx), "({}:{})".format(*map(format_int, coords[idx])), f"{h[idx]:.6f}")
        for idx in sorted(coords)
    ))
