"""Reference computations for the benchmark, made apart from the program.

Nothing here imports orbitheight.  Every expected report is rebuilt from
integer arithmetic (matrix powers, closed forms, integer recurrences, a
Moebius sum and brute force) and formatted by the report conventions the
README of the package documents: six-decimal reals, exact rationals as
"p/q", projective values as "(a:b)" with the first nonzero coordinate
positive.
"""

from __future__ import annotations

import math
from itertools import product

ZETA = {2: math.pi**2 / 6, 3: 1.2020569031595942, 4: math.pi**4 / 90}


def fmt(x: float) -> str:
    return f"{x:.6f}"


def reduce(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def rational_str(num: int, den: int) -> str:
    num, den = reduce(num, den)
    if den < 0:
        num, den = -num, -den
    return str(num) if den == 1 else f"{num}/{den}"


def p1(num: int, den: int) -> tuple[int, int]:
    """Canonical coprime coordinates of (num : den), first nonzero positive."""
    num, den = reduce(num, den)
    if num < 0 or (num == 0 and den < 0):
        num, den = -num, -den
    return num, den


def p1_str(num: int, den: int) -> str:
    a, b = p1(num, den)
    return f"({a}:{b})"


def height(num: int, den: int) -> float:
    a, b = p1(num, den)
    return math.log(max(abs(a), abs(b)))


def ratio_str(h: float, n: int) -> str:
    return "" if n <= 1 else fmt(h / math.log(n))


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_pow(m, e: int):
    result = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    base = m
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def mat_apply(m, v):
    return [sum(m[i][k] * v[k] for k in range(len(v))) for i in range(len(m))]


# --- integer orbits -------------------------------------------------------

def linear_orbit(matrix, start: list[int], n_max: int) -> list[list[int]]:
    """Vectors M^n v for n = 0..n_max, stepped with exact integers.

    Every 97th vector is recomputed from a fresh matrix power, so the
    stepping is checked against integer matrix powers along the way.
    """
    out = [list(start)]
    v = list(start)
    for n in range(1, n_max + 1):
        v = mat_apply(matrix, v)
        if n % 97 == 0 or n == n_max:
            if mat_apply(mat_pow(matrix, n), start) != v:
                raise AssertionError(f"matrix power disagrees with stepping at n={n}")
        out.append(v)
    return out


def mobius_orbit(matrix, p: int, q: int, n_max: int) -> list[tuple[int, int]]:
    """x -> (a x + b)/(c x + d) from p/q as coprime (num, den) pairs."""
    pairs = []
    for num, den in linear_orbit(matrix, [p, q], n_max):
        if den == 0:
            raise AssertionError("reference orbit leaves the affine chart")
        pairs.append(reduce(num, den))
    return pairs


def power_map_heights(step, start: tuple[int, int], n_max: int) -> list[float]:
    """Heights along an orbit given by an integer recurrence on (num, den).

    The steps below keep num and den coprime, so the height is read off
    directly; a gcd of two values of a few hundred thousand bits would
    cost as much as the program's own step.
    """
    a, b = reduce(*start)
    heights = [math.log(max(abs(a), abs(b)))]
    for _ in range(n_max):
        a, b = step(a, b)
        heights.append(math.log(max(abs(a), abs(b))))
    return heights


def step_square_plus_one(a: int, b: int) -> tuple[int, int]:
    # x = a/b in lowest terms: x^2 + 1 = (a^2 + b^2)/b^2 is again in lowest terms
    return a * a + b * b, b * b


def step_square_over_shift(a: int, b: int) -> tuple[int, int]:
    # (x^2 + 1)/(x + 2) = (a^2 + b^2)/(b (a + 2b)); the only common factor is 5
    num, den = a * a + b * b, b * (a + 2 * b)
    while num % 5 == 0 and den % 5 == 0:
        num, den = num // 5, den // 5
    return num, den


def step_cubic(a: int, b: int) -> tuple[int, int]:
    # x^3 - x + 1 = (a^3 - a b^2 + b^3)/b^3, coprime since gcd(a, b) = 1
    return a**3 - a * b * b + b**3, b**3


def product_recurrence_heights(x: int, y: int, n_max: int) -> list[float]:
    """Heights of y along (x, y) -> (y, x y + 1) from integers."""
    heights = [height(y, 1)]
    for _ in range(n_max):
        x, y = y, x * y + 1
        heights.append(height(y, 1))
    return heights


# --- expected reports -----------------------------------------------------

def orbit_report(rows: list[tuple[str, tuple[int, int]]], n_max: int):
    """rows: (point string, observed value) for n = 0..n_max."""
    lines = ["n,point,value,height,ratio"]
    last = None
    for n, (point, (vn, vd)) in enumerate(rows):
        h = height(vn, vd)
        lines.append(f"{n},{point},{p1_str(vn, vd)},{fmt(h)},{ratio_str(h, n)}")
        last = h
    payload = {
        "kind": "orbit",
        "horizon": n_max,
        "rows": len(rows),
        "stop_reason": "completed",
        "stop_index": None,
        "last_height": fmt(last),
    }
    return "\n".join(lines) + "\n", payload


def gap_report(heights: list[float], n0: int, tail_fraction: float,
               curves: list[float], window=None, with_ell: bool = False):
    """window: None for no repeat, else (i, j, verified_to)."""
    n_last = len(heights) - 1
    tail_start = max(n0, math.ceil((1 - tail_fraction) * n_last))
    ratios = [heights[n] / math.log(n) for n in range(tail_start, n_last + 1)]
    span = n_last - n0 + 1
    rows = [
        ("tail_start", str(tail_start)),
        ("tail_sup", fmt(max(ratios))),
        ("tail_inf", fmt(min(ratios))),
    ]
    payload = {
        "kind": "gap",
        "horizon": n_last,
        "stop_reason": "completed",
        "N0": n0,
        "tail_start": tail_start,
        "tail_sup": fmt(max(ratios)),
        "tail_inf": fmt(min(ratios)),
        "below_curve_density": [],
    }
    for c in curves:
        hits = sum(1 for n in range(n0, n_last + 1) if heights[n] <= c * math.log(n))
        density = rational_str(hits, span)
        payload["below_curve_density"].append({"C": fmt(c), "density": density})
        rows.append((f"below_curve_density[C={fmt(c)}]", density))
    if with_ell:
        if window is None:
            payload["window_repeat"] = None
            rows.append(("window_repeat", "none"))
        else:
            i, j, verified_to = window
            payload["window_repeat"] = {"i": i, "j": j, "period": j - i, "verified_to": verified_to}
            rows.append(("window_repeat", f"i={i};j={j};verified_to={verified_to}"))
    text = "metric,value\n" + "".join(f"{k},{v}\n" for k, v in rows)
    return text, payload


def first_window_repeat(values: list, ell: int):
    """(i, j, verified_to) of the first repeated (ell+1)-window, or None.

    Written for exactly periodic sequences: the reference orbit is first
    checked to be periodic from index 0 with its least period p, in which
    case the first repeated window is (0, p) and periodicity holds to the
    end of the trace.
    """
    n_last = len(values) - 1
    period = next((p for p in range(1, n_last + 1) if values[p] == values[0]), None)
    if period is None:
        return None
    if any(values[m] != values[m + period] for m in range(n_last - period + 1)):
        raise AssertionError("reference orbit is not periodic from index 0")
    if period + ell > n_last:
        return None
    return 0, period, n_last - period


def dfinite_report(terms: list[int], n0: int, epsilon: float, periodic=None):
    """periodic: (preperiod, period) when the terms are eventually periodic."""
    lines = ["n,term,height,ratio"]
    heights = []
    for n, t in enumerate(terms):
        h = height(t, 1)
        heights.append(h)
        lines.append(f"{n},{t},{fmt(h)},{ratio_str(h, n)}")
    n_last = len(terms) - 1
    payload = {
        "kind": "dfinite",
        "N": n_last,
        "N0": n0,
        "epsilon": fmt(epsilon),
        "verdict": None,
        "preperiod": None,
        "period": None,
        "verified_to": None,
        "tail_ratio": None,
    }
    if periodic is not None:
        payload.update(verdict="eventually-periodic", preperiod=periodic[0],
                       period=periodic[1], verified_to=n_last)
    else:
        tail_start = max(n0, math.ceil(n_last / 2))
        tail = max(heights[n] / math.log(n) for n in range(tail_start, n_last + 1))
        if tail > epsilon:
            payload.update(verdict="height-growth", tail_ratio=fmt(tail))
        else:
            payload.update(verdict="undecided")
    return "\n".join(lines) + "\n", payload


def catalan_terms(n_max: int, scale: int = 1) -> list[int]:
    return [scale * (math.comb(2 * n, n) // (n + 1)) for n in range(n_max + 1)]


def factorial_terms(n_max: int) -> list[int]:
    return [math.factorial(n) for n in range(n_max + 1)]


def fibonacci_terms(n_max: int, a: int = 0, b: int = 1) -> list[int]:
    """G_0 = a, G_1 = b, G_{n+2} = G_{n+1} + G_n, via [[1,1],[1,0]]^n."""
    q = [[1, 1], [1, 0]]
    out = []
    for n in range(n_max + 1):
        if n == 0:
            out.append(a)
            continue
        m = mat_pow(q, n - 1)  # [[F_n, F_{n-1}], [F_{n-1}, F_{n-2}]]
        out.append(m[0][0] * b + m[0][1] * a)
    return out


def motzkin_terms(n_max: int, scale: int = 1) -> list[int]:
    """(n + 2) M_n = (2n + 1) M_{n-1} + (3n - 3) M_{n-2}, exact division."""
    m = [1, 1]
    for n in range(2, n_max + 1):
        q, r = divmod((2 * n + 1) * m[n - 1] + (3 * n - 3) * m[n - 2], n + 2)
        if r:
            raise AssertionError("Motzkin recurrence left a remainder")
        m.append(q)
    return [scale * t for t in m[: n_max + 1]]


def grid_report(values: dict, n_max: int, n0: int, norms_str: str, in_norms, n_maps: int):
    """values: multi-index -> (num, den); every index of norm <= n_max defined."""
    lines = [",".join(f"n{i + 1}" for i in range(n_maps)) + ",value,height"]
    heights = {}
    for idx in sorted(values):
        vn, vd = values[idx]
        h = height(vn, vd)
        heights[idx] = h
        lines.append(",".join(str(i) for i in idx) + f",{p1_str(vn, vd)},{fmt(h)}")
    slices = []
    for s in range(n0, n_max + 1):
        if not in_norms(s):
            continue
        bucket = sorted(idx for idx in heights if sum(idx) == s)
        best = bucket[0]
        for idx in bucket[1:]:
            if heights[idx] > heights[best]:
                best = idx
        slices.append((s, heights[best], heights[best] / math.log(s), best))
    top = slices[0]
    for st in slices[1:]:
        if st[2] > top[2]:
            top = st
    payload = {
        "kind": "commuting",
        "maps": n_maps,
        "norm_bound": n_max,
        "entries": len(values),
        "undefined": 0,
        "T": norms_str,
        "sup_ratio": fmt(top[2]),
        "sup_at": top[0],
        "slices": [
            {"s": s, "M_s": fmt(h), "ratio": fmt(r), "argmax": list(idx)}
            for s, h, r, idx in slices
        ],
    }
    return "\n".join(lines) + "\n", payload


def dml_report(hits: list[int], horizon: int, a: int, d: int):
    """Hits that form exactly the progression a, a+d, ... up to the horizon."""
    if hits != list(range(a, horizon + 1, d)):
        raise AssertionError("reference hits are not the expected progression")
    label = f'"progression(a={a},d={d})"'
    text = "n,component\n" + "".join(f"{n},{label}\n" for n in hits)
    payload = {
        "hits": hits,
        "progressions": [{"a": a, "d": d}],
        "residual": [],
        "residual_density": "0",
    }
    return text, payload


# --- point counts ---------------------------------------------------------

def mobius_mu(limit: int) -> list[int]:
    mu = [1] * (limit + 1)
    is_prime = [True] * (limit + 1)
    for p in range(2, limit + 1):
        if is_prime[p]:
            for k in range(2 * p, limit + 1, p):
                is_prime[k] = False
            for k in range(p, limit + 1, p):
                mu[k] = -mu[k]
            for k in range(p * p, limit + 1, p * p):
                mu[k] = 0
    return mu


def count_mobius(n: int, bound: int) -> int:
    """Points of P^n(Q) of height <= bound: sum_g mu(g) ((2[B/g]+1)^(n+1) - 1) / 2."""
    mu = mobius_mu(bound)
    total = sum(mu[g] * ((2 * (bound // g) + 1) ** (n + 1) - 1) for g in range(1, bound + 1))
    return total // 2


def count_brute(n: int, bound: int) -> int:
    count = 0
    for vec in product(range(-bound, bound + 1), repeat=n + 1):
        if math.gcd(*vec) != 1:
            continue
        if next(c for c in vec if c) > 0:
            count += 1
    return count


BRUTE_FORCE_MAX_BOX = 40_000


def schanuel_report(n: int, bounds: list[int]):
    constant = fmt(2**n / ZETA[n + 1])
    lines = ["B,count,ratio,kappa_fit,analytic_constant"]
    reports = []
    for b in bounds:
        count = count_mobius(n, b)
        if (2 * b + 1) ** (n + 1) <= BRUTE_FORCE_MAX_BOX and count_brute(n, b) != count:
            raise AssertionError(f"Moebius sum and brute force disagree at n={n} B={b}")
        ratio = fmt(count / b ** (n + 1))
        kappa = None if b == 1 else fmt(math.log(count) / math.log(b))
        lines.append(f"{b},{count},{ratio},{'' if kappa is None else kappa},{constant}")
        reports.append({"B": b, "count": count, "ratio": ratio, "kappa_fit": kappa})
    payload = {"kind": "schanuel", "n": n, "analytic_constant": constant, "reports": reports}
    return "\n".join(lines) + "\n", payload
