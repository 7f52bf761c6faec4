"""Per-layer tracing from outside the program.

`Tracer` replaces public functions of the orbitheight modules (and every
module-level name they were imported under) with wrappers that record the
function's self time, meaning time not spent in another wrapped call, and
its calls.  It also counts `Fraction` constructions and `math.gcd` calls,
with their operand sizes.  Wrappers are installed only around a traced
`run_job` call and removed right after it, so the calibration and the
untraced repetitions run unwrapped code.  Nothing under `src/` is edited.
"""

from __future__ import annotations

import fractions
import math
import sys
from time import perf_counter


def _rows(counts, args, result):
    counts["orbit.rows"] += len(result.rows)


def _grid(counts, args, result):
    counts["commuting.entries"] += len(result.entries)
    counts["commuting.undefined"] += len(result.undefined_at)


def _terms(counts, args, result):
    counts["dfinite.terms"] += len(result)


def _hits(counts, args, result):
    counts["dml.hits"] += len(result)


def _box(counts, args, result):
    counts["schanuel.box_vectors"] += (2 * result.B + 1) ** (result.n + 1)


def _chunk(counts, args, result):
    k, box, lo, hi = args[:4]
    counts["kernels.vectors"] += (hi - lo) * (2 * box + 1) ** (k - 1)


def _written(counts, args, result):
    counts["cli.report_bytes"] += len(args[1].encode("utf-8"))


# (module, attribute, span metric, counter); a span metric may collect
# several functions, and a missing attribute is skipped so that a later
# refactor of the program loses a span instead of breaking the run.
SPANS = [
    ("orbitheight.cli", "run_job", "cli.rest", None),
    ("orbitheight.orbit", "trace_to_csv", "cli.format", None),
    ("orbitheight.commuting", "grid_to_csv", "cli.format", None),
    ("orbitheight.schanuel", "fit_to_csv", "cli.format", None),
    ("orbitheight.cli", "_metrics_csv", "cli.format", None),
    ("json", "dumps", "cli.format", None),
    ("pathlib", "Path.write_text", "cli.write", _written),
    ("orbitheight.poly", "parse_expression", "poly.parse", None),
    ("orbitheight.poly", "apply_map", "poly.apply_map", None),
    ("orbitheight.poly", "evaluate", "poly.evaluate", None),
    ("orbitheight.poly", "compose", "poly.compose", None),
    ("orbitheight.exact", "p1_value", "exact.p1_value", None),
    ("orbitheight.exact", "height_projective", "exact.height", None),
    ("orbitheight.exact", "height_rational", "exact.height", None),
    ("orbitheight.orbit", "iterate_orbit", "orbit.iterate", _rows),
    ("orbitheight.orbit", "iterate_points", "orbit.iterate_points", None),
    ("orbitheight.orbit", "gap_diagnostics", "orbit.gap", None),
    ("orbitheight.orbit", "detect_window_repeat", "orbit.window", None),
    ("orbitheight.commuting", "check_commuting", "commuting.check", None),
    ("orbitheight.commuting", "grid_orbit", "commuting.grid", _grid),
    ("orbitheight.commuting", "norm_sliced_diagnostics", "commuting.slices", None),
    ("orbitheight.dfinite", "expand_terms", "dfinite.expand", _terms),
    ("orbitheight.dfinite", "classify_height_growth", "dfinite.classify", None),
    ("orbitheight.dml", "return_set", "dml.return_set", _hits),
    ("orbitheight.dml", "ap_decompose", "dml.decompose", None),
    ("orbitheight.density", "shift_set", "density.shift_set", None),
    ("orbitheight.schanuel", "count_points", "schanuel.count", _box),
    ("orbitheight.schanuel", "zeta", "schanuel.zeta", None),
    ("orbitheight.kernels", "count_coprime_range", "kernels.chunk", _chunk),
]

COUNTERS = (
    "orbit.rows", "commuting.entries", "commuting.undefined", "dfinite.terms", "dml.hits",
    "schanuel.box_vectors", "kernels.vectors", "cli.report_bytes",
    "exact.fraction_new", "exact.gcd_calls", "exact.gcd_bits", "exact.max_bits",
)


def _resolve(module: str, attr: str):
    owner = sys.modules.get(module)
    if owner is None:
        return None, None
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    name = attr.split(".")[-1]
    return owner, name


def _aliases(original, home, name):
    """Every (owner, name) in the package bound to `original`, `home.name` first."""
    found = [(home, name)]
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "orbitheight" or mod_name.startswith("orbitheight.")):
            continue
        for key, value in vars(mod).items():
            if value is original and (mod, key) != (home, name):
                found.append((mod, key))
    return found


class Tracer:
    """Accumulates self time per span metric, calls, and counters."""

    def __init__(self):
        self.self_s = {metric: 0.0 for _, _, metric, _ in SPANS}
        self.calls = {metric: 0 for _, _, metric, _ in SPANS}
        self.counts = {name: 0 for name in COUNTERS}
        self._stack = [0.0]
        self._patches = []  # (owner, name, original value, replacement)
        for module, attr, metric, after in SPANS:
            owner, name = _resolve(module, attr)
            if owner is None or name not in vars(owner):
                continue
            original = vars(owner)[name]
            wrapper = self._span(metric, original, after)
            for alias_owner, alias in _aliases(original, owner, name):
                self._patches.append((alias_owner, alias, vars(alias_owner)[alias], wrapper))
        self._add_number_counters()

    def _span(self, metric, fn, after):
        stack, self_s, calls, counts = self._stack, self.self_s, self.calls, self.counts

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                stack[-1] += elapsed
                self_s[metric] += elapsed - child
                calls[metric] += 1
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def _add_number_counters(self):
        tally = self._tally = [0, 0, 0, 0]  # Fraction.__new__, gcd calls, gcd bits, max bits
        fraction_new = fractions.Fraction.__dict__["__new__"]
        plain_new = fraction_new.__func__
        gcd = math.gcd

        def counted_new(cls, *args, **kwargs):
            tally[0] += 1
            return plain_new(cls, *args, **kwargs)

        def counted_gcd(*args):
            tally[1] += 1
            for a in args:
                bits = a.bit_length()
                tally[2] += bits
                if bits > tally[3]:
                    tally[3] = bits
            return gcd(*args)

        self._patches.append((fractions.Fraction, "__new__", fraction_new, counted_new))
        for owner, name in _aliases(gcd, math, "gcd"):
            self._patches.append((owner, name, gcd, counted_gcd))

    def install(self):
        for owner, name, _, replacement in self._patches:
            setattr(owner, name, replacement)

    def uninstall(self):
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        """Totals so far: span self times and calls, and all counters."""
        counts = dict(self.counts)
        counts["exact.fraction_new"] = self._tally[0]
        counts["exact.gcd_calls"] = self._tally[1]
        counts["exact.gcd_bits"] = self._tally[2]
        counts["exact.max_bits"] = self._tally[3]
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "counts": counts}

