"""Orbit iteration for rational self-maps, with heights and gap diagnostics.

An orbit trace records (n, point, observed value, height) for n = 0..N,
stopping early if the map or the observable leaves the affine chart.  Every
orbit, commuting grids included, advances through :func:`step` on int
pairs.  On top of traces sit the two desk-scale diagnostics:
eventual-periodicity detection through repeated value windows, and the
height/log n ratio statistics (tail sup/inf, below-curve densities).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .errors import (
    DimensionMismatch,
    EmptyTail,
    HorizonTooShort,
    InvalidParameter,
)
from .exact import P1Value, as_pair, format_ratio, height_projective
from .poly import INDETERMINATE, RationalFunction, RationalMap, evaluate_pairs

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


@dataclass(frozen=True)
class OrbitTrace:
    map: RationalMap
    observable: RationalFunction
    start: tuple[Fraction, ...]
    rows: tuple[OrbitRow, ...]
    horizon: int
    stop_reason: str
    stop_index: Optional[int] = None

    @property
    def last_n(self) -> int:
        return self.rows[-1].n

    def values(self) -> list[P1Value]:
        return [r.value for r in self.rows]

    def heights(self) -> list[float]:
        return [r.height for r in self.rows]


def step(phi: RationalMap, state: State) -> Optional[State]:
    """phi applied to a state of reduced int pairs; None when some
    component is infinite or indeterminate there (leaves the affine chart).

    The state must be reduced: each component's compiled form bounds the
    gcd of its value by its resultant on that premise, so the gcd is taken
    on small residues, or skipped, wherever that resultant is known.
    """
    out = []
    for comp in phi.components:
        form = comp.form
        num, den = form.pair_at(state)
        if den == 0:
            return None
        g = 1 if form.resultant == 1 else form.divisor(num, den)
        if den < 0:
            g = -g
        out.append((num, den) if g == 1 else (num // g, den // g))
    return tuple(out)


def _check_start(phi: RationalMap, start: Sequence[Fraction]) -> None:
    if len(start) != phi.dim or not phi.is_self_map():
        raise DimensionMismatch(
            f"start point of length {len(start)} for a map of dimension {phi.dim}"
        )


def _states(phi: RationalMap, start: Sequence[Fraction], n_steps: int) -> Iterator[State]:
    """States for n = 0..n_steps, each computed when requested, ending at a chart exit."""
    state = tuple(as_pair(c) for c in start)
    yield state
    for _ in range(n_steps):
        state = step(phi, state)
        if state is None:
            return
        yield state


def iterate_points(phi: RationalMap, start: Sequence[Fraction], n_steps: int):
    """Forward orbit points for n = 0..n_steps, stopping at chart exits.

    Returns (points, stop_index) where stop_index is None when all steps
    are defined, else the first n whose point could not be computed.
    """
    _check_start(phi, start)
    points = [
        tuple(Fraction(a, b) for a, b in state) for state in _states(phi, start, n_steps)
    ]
    return points, (None if len(points) == n_steps + 1 else len(points))


def iterate_orbit(
    phi: RationalMap,
    observable: RationalFunction,
    start: Sequence[Fraction],
    n_max: int,
) -> OrbitTrace:
    """Trace (n, point, f(point), h(f(point))) for n = 0..n_max.

    Stops early when applying the map leaves the affine chart (including
    exits to infinity) or when the observable is indeterminate at a point;
    the stop reason records the first unreachable index.
    """
    if n_max < 0:
        raise InvalidParameter("horizon must be nonnegative")
    if observable.variables != phi.variables:
        raise DimensionMismatch("observable and map must share a variable list")
    _check_start(phi, start)
    rows: list[OrbitRow] = []
    stop_reason, stop_index = COMPLETED, None
    for n, state in enumerate(_states(phi, start, n_max)):
        value = evaluate_pairs(observable, state)
        if value is INDETERMINATE:
            stop_reason, stop_index = HIT_OBSERVABLE_INDETERMINACY, n
            break
        rows.append(OrbitRow(n, state, value, height_projective(value)))
    else:
        if len(rows) <= n_max:
            stop_reason, stop_index = HIT_MAP_INDETERMINACY, len(rows)
    return OrbitTrace(
        map=phi,
        observable=observable,
        start=tuple(Fraction(c) for c in start),
        rows=tuple(rows),
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
    points of P^1.  Returns None when all windows up to the horizon are
    distinct.
    """
    if ell < 0:
        raise InvalidParameter("window length must be nonnegative")
    values = trace.values()
    n_last = len(values) - 1
    if n_last < ell:
        raise HorizonTooShort(f"trace ends at {n_last}, window needs {ell}")
    first_seen: dict[tuple, int] = {}
    best: Optional[tuple[int, int]] = None
    for i in range(n_last - ell + 1):
        window = tuple(values[i : i + ell + 1])
        if window in first_seen:
            pair = (first_seen[window], i)
            if best is None or pair < best:
                best = pair
        else:
            first_seen[window] = i
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
    ratios = [
        row.height / math.log(row.n) for row in trace.rows if row.n >= tail_start
    ]
    if not ratios:
        raise EmptyTail("tail window is empty")
    densities = []
    span = n_last - n0 + 1
    for c in curve_constants:
        hits = sum(
            1 for row in trace.rows if row.n >= n0 and row.height <= c * math.log(row.n)
        )
        densities.append((float(c), Fraction(hits, span)))
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

    The ratio column h_n / log n is empty for n <= 1.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "point", "value", "height", "ratio"])
    for row in trace.rows:
        point_s = ";".join(format_ratio(a, b) for a, b in row.state)
        ratio = "" if row.n <= 1 else f"{row.height / math.log(row.n):.6f}"
        writer.writerow([row.n, point_s, str(row.value), f"{row.height:.6f}", ratio])
    return buf.getvalue()
