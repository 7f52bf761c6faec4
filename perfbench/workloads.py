"""The benchmark's workloads: job files from a seed, each with its expected report.

A seed fixes start points, shifts and coefficients, always drawn from the
same narrow size classes, so that every seed asks for the same amount of
work.  Horizons N and the large point-count bounds do not depend on the
seed.  Expected reports come from `checks`, never from the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import checks

WORKLOADS = ("orbit-steps", "orbit-bigint", "point-count")


@dataclass
class Job:
    name: str
    spec: dict
    expected: Callable[[], tuple[str, dict]]
    catalog: bool = False  # run by catalog name; `spec` must equal the bundled file
    props: dict = field(default_factory=dict)  # report fields asserted on their own


def _coprime(rng: random.Random, lo: int, hi: int, other: int) -> int:
    while True:
        p = rng.randrange(lo, hi)
        if math.gcd(p, other) == 1 and p != other:
            return p


def _fraction(rng: random.Random, q_lo: int, q_hi: int) -> tuple[int, int]:
    """p/q with q in [q_lo, q_hi) and 2 <= p < q coprime to q."""
    q = rng.randrange(q_lo, q_hi)
    return _coprime(rng, 2, q, q), q


# --- job families ---------------------------------------------------------

def orbit_mobius(name, matrix, map_text, start, n_max, catalog=False):
    p, q = start
    spec = {"kind": "orbit", "variables": ["x"], "map": [map_text], "observable": "x",
            "start": [checks.rational_str(p, q)], "N": n_max}

    def expected():
        pairs = checks.mobius_orbit(matrix, p, q, n_max)
        return checks.orbit_report([(checks.rational_str(a, b), (a, b)) for a, b in pairs], n_max)

    return Job(name, spec, expected, catalog)


def orbit_fibonacci(name, start, n_max):
    a, b = start
    spec = {"kind": "orbit", "variables": ["x", "y"], "map": ["y", "x+y"],
            "observable": "x/y", "start": [str(a), str(b)], "N": n_max}

    def expected():
        vecs = checks.linear_orbit([[0, 1], [1, 1]], [a, b], n_max)
        return checks.orbit_report([(f"{x};{y}", (x, y)) for x, y in vecs], n_max)

    return Job(name, spec, expected)


def gap_mobius(name, matrix, map_text, start, n_max, ell, curves, catalog=False, props=None):
    p, q = start
    spec = {"kind": "gap", "variables": ["x"], "map": [map_text], "observable": "x",
            "start": [checks.rational_str(p, q)], "N": n_max, "N0": 2,
            "tail_fraction": 0.5, "curve_constants": curves, "ell": ell}

    def expected():
        pairs = checks.mobius_orbit(matrix, p, q, n_max)
        heights = [checks.height(a, b) for a, b in pairs]
        window = checks.first_window_repeat([checks.p1(a, b) for a, b in pairs], ell)
        return checks.gap_report(heights, 2, 0.5, curves, window, with_ell=True)

    return Job(name, spec, expected, catalog, props or {})


def gap_bigint(name, variables, map_texts, observable, start_texts, n_max, heights_fn):
    spec = {"kind": "gap", "variables": variables, "map": map_texts, "observable": observable,
            "start": start_texts, "N": n_max, "N0": 2, "tail_fraction": 0.5,
            "curve_constants": [1.0]}

    def expected():
        return checks.gap_report(heights_fn(), 2, 0.5, [1.0])

    return Job(name, spec, expected)


def dfinite(name, order, coeffs, initial, n_max, terms_fn, periodic=None, catalog=False, props=None):
    spec = {"kind": "dfinite", "order": order, "coeffs": coeffs,
            "initial": {str(k): str(v) for k, v in initial.items()}, "offset": 0,
            "N": n_max, "epsilon": 0.5, "N0": 10}

    def expected():
        return checks.dfinite_report(terms_fn(), 10, 0.5, periodic)

    return Job(name, spec, expected, catalog, props or {})


def catalan(name, scale, n_max, catalog=False):
    return dfinite(name, 1, ["-(4*n+2)", "n+2"], {0: scale}, n_max,
                   lambda: checks.catalan_terms(n_max, scale), catalog=catalog)


def motzkin(name, scale, n_max, catalog=False):
    return dfinite(name, 2, ["-(3*n+3)", "-(2*n+5)", "n+4"], {0: scale, 1: scale}, n_max,
                   lambda: checks.motzkin_terms(n_max, scale), catalog=catalog)


def fibonacci(name, a, b, n_max, catalog=False):
    return dfinite(name, 2, ["-1", "-1", "1"], {0: a, 1: b}, n_max,
                   lambda: checks.fibonacci_terms(n_max, a, b), catalog=catalog)


def commuting_translations(name, shifts, start, n_max):
    a, b = shifts
    x0, y0 = start
    spec = {"kind": "commuting", "variables": ["x", "y"],
            "maps": [[f"x+{a}", "y"], ["x", f"y+{b}"]], "observable": "x*y",
            "start": [str(x0), str(y0)], "N": n_max, "N0": 2}

    def expected():
        values = {(i, j): ((x0 + i * a) * (y0 + j * b), 1)
                  for i in range(n_max + 1) for j in range(n_max + 1 - i)}
        return checks.grid_report(values, n_max, 2, "mod 1: {0}", lambda s: True, 2)

    return Job(name, spec, expected)


def commuting_doubling(name, scale, z0, n_max, catalog=False):
    """Example 5.2: (2x, y+1, z) and (xz, y, z+1), observable x, norms even."""
    spec = {"kind": "commuting", "variables": ["x", "y", "z"],
            "maps": [["2*x", "y+1", "z"], ["x*z", "y", "z+1"]], "observable": "x",
            "start": [str(scale), "0", str(z0)], "N": n_max, "N0": 2,
            "T": {"modulus": 2, "residues": [0]}}

    def expected():
        values = {(i, j): (scale * 2**i * math.prod(range(z0, z0 + j)), 1)
                  for i in range(n_max + 1) for j in range(n_max + 1 - i)}
        return checks.grid_report(values, n_max, 2, "mod 2: {0}", lambda s: s % 2 == 0, 2)

    return Job(name, spec, expected, catalog)


def dml_alternation(name, shift, start, n_max, catalog=False):
    """(x+c, -y) returns to y = y0 exactly at the even indices."""
    x0, y0 = start
    spec = {"kind": "dml", "variables": ["x", "y"], "map": [f"x+{shift}", "-y"],
            "start": [str(x0), str(y0)], "Y": [f"y-{y0}"], "N": n_max, "min_terms": 5}

    def expected():
        y, hits = y0, []
        for n in range(n_max + 1):
            if y == y0:
                hits.append(n)
            y = -y
        return checks.dml_report(hits, n_max, 0, 2)

    props = {"progressions": [{"a": 0, "d": 2}], "residual": []}
    return Job(name, spec, expected, catalog, props)


def dml_rotation(name, start, n_max):
    """(y, -x) has order 4; x returns to x0 exactly when 4 | n for x0 != +-y0."""
    x0, y0 = start
    spec = {"kind": "dml", "variables": ["x", "y"], "map": ["y", "-x"],
            "start": [str(x0), str(y0)], "Y": [f"x-{x0}"], "N": n_max, "min_terms": 5}

    def expected():
        vecs = checks.linear_orbit([[0, 1], [-1, 0]], [x0, y0], n_max)
        hits = [n for n, (x, _) in enumerate(vecs) if x == x0]
        return checks.dml_report(hits, n_max, 0, 4)

    return Job(name, spec, expected)


def density_evens(expected_strings):
    spec = {"kind": "density",
            "set": {"modulus": 2, "residues": [0], "added": [7], "removed": [4]}}

    def expected():
        m, residues = 2, {0}
        shifts = {(r - t) % m for r in residues for t in residues}
        payload = {
            "kind": "density",
            "set": expected_strings["set"],
            "density": checks.rational_str(len(residues), m),
            "shift_set": expected_strings["shift_set"],
            "shift_set_density": checks.rational_str(len(shifts), m),
        }
        text = "metric,value\n" + "".join(f"{k},{payload[k]}\n" for k in
                                          ("set", "density", "shift_set", "shift_set_density"))
        return text, payload

    return Job("density-evens", spec, expected, catalog=True)


def schanuel(name, n, bounds, catalog=False):
    spec = {"kind": "schanuel", "n": n, "B_list": bounds}
    return Job(name, spec, lambda: checks.schanuel_report(n, bounds), catalog)


# --- the workloads ----------------------------------------------------------

MOBIUS_ORDER3 = ([[0, 1], [-1, 1]], "1/(1-x)")
MOBIUS_ORDER4 = ([[1, -1], [1, 1]], "(x-1)/(x+1)")
PERIOD3_COEFFS = ["-1", "0", "0", "1"]


def catalog_jobs(expected_strings) -> list[Job]:
    """The ten non-schanuel catalog jobs, as they are bundled."""
    return [
        catalan("catalan", 1, 500, catalog=True),
        density_evens(expected_strings),
        dml_alternation("dml-alternation", 1, (0, 1), 20, catalog=True),
        commuting_doubling("example-5-2-commuting", 1, 0, 20, catalog=True),
        dfinite("factorial", 1, ["-(n+1)", "1"], {0: 1}, 200,
                lambda: checks.factorial_terms(200), catalog=True),
        fibonacci("fibonacci", 0, 1, 500, catalog=True),
        gap_mobius("gap-affine", [[1, 1], [0, 1]], "x+1", (1, 1), 2000, 2, [0.5, 1.1],
                   catalog=True),
        motzkin("motzkin", 1, 500, catalog=True),
        orbit_mobius("orbit-affine", [[1, 1], [0, 1]], "x+1", (0, 1), 25, catalog=True),
        dfinite("period-3", 3, PERIOD3_COEFFS, {0: 1, 1: 7, 2: 7}, 500,
                lambda: [(1, 7, 7)[n % 3] for n in range(501)], periodic=(0, 3), catalog=True,
                props={"verdict": "eventually-periodic", "period": 3, "preperiod": 0}),
    ]


def orbit_steps(rng: random.Random, expected_strings) -> list[Job]:
    r, s = _fraction(rng, 5, 9)
    jobs = catalog_jobs(expected_strings) + [
        orbit_mobius("s-orbit-shift", [[s, r], [0, s]], f"x+{r}/{s}", _fraction(rng, 10, 20), 2000),
        orbit_mobius("s-orbit-order3", MOBIUS_ORDER3[0], MOBIUS_ORDER3[1],
                     _fraction(rng, 10, 20), 1500),
        orbit_fibonacci("s-orbit-fibonacci", (rng.randrange(2, 9), rng.randrange(10, 20)), 700),
        gap_mobius("s-gap-unit", [[1, 1], [0, 1]], "x+1", (0, 1), 2000, 2, [0.5, 1.1],
                   props={"tail_sup": "1.000000", "tail_inf": "1.000000"}),
        gap_mobius("s-gap-order4", MOBIUS_ORDER4[0], MOBIUS_ORDER4[1],
                   _fraction(rng, 10, 20), 1500, 3, [0.5]),
        commuting_translations("s-commuting-shift", (rng.randrange(1, 6), rng.randrange(1, 6)),
                               (rng.randrange(1, 10), rng.randrange(1, 10)), 50),
        commuting_doubling("s-commuting-doubling", rng.randrange(1, 10), rng.randrange(1, 4), 30),
        dml_alternation("s-dml-alternation", rng.randrange(1, 10),
                        (rng.randrange(0, 10), rng.randrange(1, 10)), 1500),
        dml_rotation("s-dml-rotation", (rng.randrange(1, 10), rng.randrange(11, 20)), 800),
        catalan("s-dfinite-catalan", rng.randrange(2, 10), 1200),
        motzkin("s-dfinite-motzkin", rng.randrange(2, 10), 1200),
        fibonacci("s-dfinite-fibonacci", rng.randrange(1, 10), rng.randrange(1, 10), 1500),
    ]
    return jobs


def _bigint_start(rng: random.Random) -> tuple[int, int]:
    # q in [2^10, 2^10 + 2^5) and p/q within 1/64 of 1/2: the heights at a
    # given step then differ by well under 1 % between seeds
    q = rng.randrange(1024, 1056)
    while True:
        p = q // 2 + rng.randrange(-8, 9)
        if math.gcd(p, q) == 1:
            return p, q


def orbit_bigint(rng: random.Random, expected_strings) -> list[Job]:
    p1, q1 = _bigint_start(rng)
    p3, q3 = _bigint_start(rng)
    a, b = rng.randrange(1024, 1056), rng.randrange(1024, 1056)
    return [
        gap_bigint("b-gap-square", ["x"], ["x^2+1"], "x", [f"{p1}/{q1}"], 14,
                   lambda: checks.power_map_heights(checks.step_square_plus_one, (p1, q1), 14)),
        # fixed start: the factors of 5 this map cancels depend on the start's
        # 5-adic digits and would make the work differ from seed to seed
        gap_bigint("b-gap-quotient", ["x"], ["(x^2+1)/(x+2)"], "x", ["1/3"], 16,
                   lambda: checks.power_map_heights(checks.step_square_over_shift, (1, 3), 16)),
        gap_bigint("b-gap-product", ["x", "y"], ["y", "x*y+1"], "y", [str(a), str(b)], 23,
                   lambda: checks.product_recurrence_heights(a, b, 23)),
        gap_bigint("b-gap-cubic", ["x"], ["x^3-x+1"], "x", [f"{p3}/{q3}"], 9,
                   lambda: checks.power_map_heights(checks.step_cubic, (p3, q3), 9)),
    ]


def point_count(rng: random.Random, expected_strings) -> list[Job]:
    return [
        schanuel("schanuel-p1", 1, [125, 250, 500, 1000], catalog=True),
        schanuel("schanuel-p2", 2, [20, 50], catalog=True),
        schanuel("c-count-p1", 1, [rng.randrange(3, 40), 2000]),
        schanuel("c-count-p2", 2, [rng.randrange(2, 12), 100, 150]),
        schanuel("c-count-p3", 3, [rng.randrange(2, 5), 15, 40]),
    ]


def build(workload: str, seed: int, expected_strings: dict) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    make = {"orbit-steps": orbit_steps, "orbit-bigint": orbit_bigint, "point-count": point_count}
    return make[workload](rng, expected_strings)


def probe_jobs(workload: str, expected_strings: dict) -> list[Job]:
    """One small job of each kind the workload uses, for the set-up probe."""
    if workload == "point-count":
        return [schanuel("probe-schanuel", 1, [5])]
    gap = gap_bigint("probe-gap", ["x"], ["x^2+1"], "x", ["1/3"], 4,
                     lambda: checks.power_map_heights(checks.step_square_plus_one, (1, 3), 4))
    if workload == "orbit-bigint":
        return [gap]
    return [
        orbit_mobius("probe-orbit", [[1, 1], [0, 1]], "x+1", (0, 1), 5),
        gap,
        catalan("probe-dfinite", 1, 12),
        density_evens(expected_strings),
        dml_alternation("probe-dml", 1, (0, 1), 10),
        commuting_translations("probe-commuting", (1, 1), (1, 1), 3),
    ]


def threads_job(rng: random.Random) -> Job:
    """A small count run at --threads 1 and --threads 2; the reports must be equal."""
    return schanuel("t-count-threads", 2, [rng.randrange(2, 12), 30])
