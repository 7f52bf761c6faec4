"""Orbit iteration for rational self-maps, with heights and gap diagnostics.

An orbit trace records (n, point, observed value, height) for n = 0..N,
stopping early if the map or the observable leaves the affine chart.  Every
orbit, commuting grids included, advances through :func:`step` on int
pairs, and a trace keeps its rows as int-pair columns; `rows` and `values()`
build objects only for the rows read.  On top of traces sit the two desk-scale
diagnostics: eventual-periodicity detection through repeated value windows,
and the height/log n ratio statistics (tail sup/inf, below-curve densities).
Both, and the CSV report, read the columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count, starmap
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import (
    DimensionMismatch,
    EmptyTail,
    HorizonTooShort,
    InvalidParameter,
)
from .exact import _BITS, Interval, P1Value, Uncertain, as_pair, format_int, height_pair, report_csv
from .poly import RationalFunction, RationalMap, p1_pair

COMPLETED = "completed"
HIT_MAP_INDETERMINACY = "map-indeterminacy"
HIT_OBSERVABLE_INDETERMINACY = "observable-indeterminacy"


State = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class OrbitRow:
    """Row n of a trace; `state` is the point as reduced int pairs."""

    n: int
    state: State
    value: P1Value
    height: float

    @property
    def point(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, b) for a, b in self.state)


class _RowView:
    """Read-only sequence whose item k is `build(k)`, made only when read."""

    def __init__(self, build: Callable[[int], object], length: int):
        self._build, self._range = build, range(length)

    def __len__(self) -> int:
        return len(self._range)

    def __getitem__(self, k):
        k = self._range[k]  # IndexError, negative k and slices as for a tuple
        return [*map(self._build, k)] if isinstance(k, range) else self._build(k)


@dataclass(frozen=True)
class OrbitTrace:
    """Rows n as columns: the state (reduced int pairs), the canonical (p, q)
    of its value and the height h_n = log max(|p|, |q|)."""

    states: tuple[State, ...]
    coords: tuple[tuple[int, int], ...]
    h: tuple[float, ...]
    horizon: int
    stop_reason: str
    stop_index: Optional[int] = None

    @property
    def last_n(self) -> int:
        return len(self.states) - 1

    @property
    def rows(self) -> Sequence[OrbitRow]:
        states, coords, h = self.states, self.coords, self.h
        return _RowView(lambda n: OrbitRow(n, states[n], P1Value._trusted(coords[n]), h[n]),
                       len(states))

    def values(self) -> Sequence[P1Value]:
        return _RowView(lambda n: P1Value._trusted(self.coords[n]), len(self.coords))

    def heights(self) -> Sequence[float]:
        return self.h


def step(phi: RationalMap, state: State) -> Optional[State]:
    """phi applied to a state of reduced int pairs; None when some
    component is infinite or indeterminate there (leaves the affine chart).

    Each coordinate is its component form's `value`, which reduces it; the
    state must be reduced, since that method bounds the gcd by the form's
    resultant on that premise.
    """
    out = []
    for comp in phi.components:
        value = comp.form.value(state)
        if value is None or not value[1]:
            return None
        out.append(value)
    return tuple(out)


def _check_start(phi: RationalMap, start: Sequence[Fraction]) -> None:
    if len(start) != phi.dim or not phi.is_self_map():
        raise DimensionMismatch(
            f"start point of length {len(start)} for a map of dimension {phi.dim}"
        )


def _states(phi: RationalMap, start: Sequence[Fraction], n_steps: int,
            promote=False) -> Iterator[State]:
    """States for n = 0..n_steps, each computed when requested, ending at a
    chart exit.  With promote, the state turns into `Interval`s at the
    first step where a coordinate passes `_BITS` bits."""
    state, big = tuple(map(as_pair, start)), 1 << _BITS
    yield state
    for _ in range(n_steps):
        state = step(phi, state)
        if state is None:
            return
        if promote:  # a plain loop: any() over a generator costs several times more
            for a, b in state:
                if abs(a) >= big or b >= big:
                    state, promote = tuple(tuple(map(Interval.of, p)) for p in state), False
                    break
        yield state


def iterate_states(phi: RationalMap, start: Sequence[Fraction], n_steps: int):
    """Orbit states (reduced int pairs) for n = 0..n_steps, stopping at chart
    exits, and the first n whose state is undefined (None if there is none)."""
    _check_start(phi, start)
    states = list(_states(phi, start, n_steps))
    return states, (None if len(states) == n_steps + 1 else len(states))


def iterate_orbit(
    phi: RationalMap,
    observable: RationalFunction,
    start: Sequence[Fraction],
    n_max: int,
    heights_only: bool = False,
) -> OrbitTrace:
    """Trace (n, point, f(point), h(f(point))) for n = 0..n_max.

    Stops early when applying the map leaves the affine chart (including
    exits to infinity) or when the observable is indeterminate at a point;
    the stop reason records the first unreachable index.

    With heights_only, values are ints up to `exact._BITS` bits and
    `exact.Interval`s past that: `h` is certified and exact, but late states
    and coords may be intervals.  A gcd, or a sign or rounding that an
    interval cannot decide, raises Uncertain, and the orbit runs again exactly.
    """
    if n_max < 0:
        raise InvalidParameter("horizon must be nonnegative")
    if observable.variables != phi.variables:
        raise DimensionMismatch("observable and map must share a variable list")
    _check_start(phi, start)
    try:
        return _trace(phi, observable, start, n_max, heights_only)
    except Uncertain:
        return _trace(phi, observable, start, n_max)


def _trace(phi, observable, start, n_max: int, promote=False) -> OrbitTrace:
    states, coords = [], []
    stop_reason, stop_index = COMPLETED, None
    for state in _states(phi, start, n_max, promote):
        value = p1_pair(observable, state)
        if value is None:
            stop_reason, stop_index = HIT_OBSERVABLE_INDETERMINACY, len(states)
            break
        states.append(state)
        coords.append(value)
    if stop_index is None and len(states) <= n_max:
        stop_reason, stop_index = HIT_MAP_INDETERMINACY, len(states)
    return OrbitTrace(
        states=tuple(states),
        coords=tuple(coords),
        h=tuple(starmap(height_pair, coords)),
        horizon=n_max,
        stop_reason=stop_reason,
        stop_index=stop_index,
    )


@dataclass(frozen=True)
class WindowRepeat:
    """First repeated value window (i, j) and how far periodicity held.

    `verified_to` is the largest index V such that v_m = v_{m+(j-i)} was
    checked and held for every i <= m <= V; it equals N - (j - i) when the
    relation holds across the whole trace.  Verdicts never extend past the
    horizon.
    """

    i: int
    j: int
    verified_to: int

    @property
    def period(self) -> int:
        return self.j - self.i


def detect_window_repeat(trace: OrbitTrace, ell: int) -> Optional[WindowRepeat]:
    """Find the lexicographically first i < j with equal (ell+1)-windows.

    Windows y_i = (v_i, ..., v_{i+ell}) are compared componentwise as
    points of P^1, on their canonical coordinates.  Returns None when all
    windows up to the horizon are distinct.
    """
    if ell < 0:
        raise InvalidParameter("window length must be nonnegative")
    values = trace.coords
    n_last = len(values) - 1
    if n_last < ell:
        raise HorizonTooShort(f"trace ends at {n_last}, window needs {ell}")
    first_seen: dict[tuple, int] = {}
    best: Optional[tuple[int, int]] = None
    for j in range(n_last - ell + 1):
        i = first_seen.setdefault(values[j : j + ell + 1], j)
        if i < j and (best is None or (i, j) < best):
            best = (i, j)
    if best is None:
        return None
    i, j = best
    period = j - i
    # the matching windows themselves guarantee v_m = v_{m+period} on [i, i+ell]
    m = i
    while m + period <= n_last and values[m] == values[m + period]:
        m += 1
    return WindowRepeat(i=i, j=j, verified_to=m - 1)


@dataclass(frozen=True)
class GapReport:
    """Tail statistics of h_n / log n and densities below candidate curves."""

    N0: int
    tail_start: int
    tail_sup: float
    tail_inf: float
    below_curve_density: tuple[tuple[float, Fraction], ...] = field(default_factory=tuple)


def gap_diagnostics(
    trace: OrbitTrace,
    n0: int = 2,
    tail_fraction: float = 0.5,
    curve_constants: Sequence[float] = (),
) -> GapReport:
    """Sup/inf of h_n/log n on a tail window, plus below-curve densities.

    The tail window is [max(n0, ceil((1-tail_fraction)*N)), N]; densities
    count |{n in [n0, N] : h_n <= C log n}| / (N - n0 + 1) exactly.
    """
    if n0 < 2:
        raise InvalidParameter("n0 must be at least 2 so that log n > 0")
    if not (0 < tail_fraction <= 1):
        raise InvalidParameter("tail_fraction must lie in (0, 1]")
    n_last = trace.last_n
    if n_last <= n0:
        raise EmptyTail(f"trace ends at {n_last}, diagnostics start at {n0}")
    tail_start = max(n0, math.ceil((1 - tail_fraction) * n_last))
    h = trace.h[n0:]
    logs = [math.log(n) for n in range(n0, n_last + 1)]
    ratios = [x / y for x, y in zip(h[tail_start - n0 :], logs[tail_start - n0 :])]
    span = n_last - n0 + 1
    densities = [(float(c), Fraction(sum(x <= c * y for x, y in zip(h, logs)), span))
                 for c in curve_constants]
    return GapReport(
        N0=n0,
        tail_start=tail_start,
        tail_sup=max(ratios),
        tail_inf=min(ratios),
        below_curve_density=tuple(densities),
    )


@dataclass(frozen=True)
class Limsup:
    """Window-based bound parameters: window length ell over a degree-degK field."""

    ell: int
    degK: int = 1


@dataclass(frozen=True)
class Uniform:
    """Uniform-bound parameters: ambient dimension d and a counting exponent kappa."""

    d: int
    kappa: Union[Fraction, float] = Fraction(21, 10)


def epsilon_bounds(mode: Union[Limsup, Uniform]) -> Union[Fraction, float]:
    """Open upper bound for the admissible epsilon in either regime.

    Limsup(ell, degK) gives 1/(degK * 2^(ell+1)); Uniform(d, kappa) gives
    1/(2^((d+1)^2 + 1) * kappa).  Callers must pick epsilon strictly below
    the returned value.  Results are exact Fractions whenever the inputs
    are exact.
    """
    if isinstance(mode, Limsup):
        if mode.ell < 0 or mode.degK < 1:
            raise InvalidParameter("need ell >= 0 and degK >= 1")
        return Fraction(1, mode.degK * 2 ** (mode.ell + 1))
    if isinstance(mode, Uniform):
        if mode.d < 0:
            raise InvalidParameter("need d >= 0")
        if mode.kappa <= 0:
            raise InvalidParameter("need kappa > 0")
        denom_pow = 2 ** ((mode.d + 1) ** 2 + 1)
        if isinstance(mode.kappa, (int, Fraction)):
            return Fraction(1, 1) / (denom_pow * Fraction(mode.kappa))
        return 1.0 / (denom_pow * mode.kappa)
    raise InvalidParameter(f"unknown mode {mode!r}")


def trace_to_csv(trace: OrbitTrace) -> str:
    """Rows as CSV: n, point (semicolon-joined), value, height, ratio.

    The ratio column h_n / log n is empty for n <= 1.  Each integer is
    formatted once per row, and row n reuses the digit strings of row n - 1.
    """
    def rows():
        prev: dict[int, str] = {}
        for n, state, value, h in zip(count(), trace.states, trace.coords, trace.h):
            digits: dict[int, str] = {}
            for k in chain(*state, value):
                if k not in digits:
                    digits[k] = prev.get(k) or format_int(k)
            point = ";".join(
                digits[a] if b == 1 else f"{digits[a]}/{digits[b]}" for a, b in state
            )
            p, q = value
            ratio = "" if n <= 1 else f"{h / math.log(n):.6f}"
            yield (str(n), point, f"({digits[p]}:{digits[q]})", f"{h:.6f}", ratio)
            prev = digits

    return report_csv(("n", "point", "value", "height", "ratio"), rows())
