"""Batch front-end: JSON job files in, deterministic CSV/JSON reports out.

Commands:

    orbitheight run <job.json> [--out DIR] [--threads K] [--budget M]
    orbitheight catalog
    orbitheight validate <job.json>

A job either names a file or, by a plain name, the bundled catalog fixture
catalog/<name>.json.  Reports are written next to the input (or into
--out) as <job>.report.csv, then <job>.report.json.  Both are built fully
in memory first, so a failed run writes nothing, and each is then written
over the old report in place, without truncating it first, so a run killed
mid-write can leave the new report followed by stale rows of the old one
(see `_write_report`).  Every CSV report is joined by
`exact.report_csv`.  Map jobs (orbit, gap, dml, commuting) are read by one
parser, `_parse_map_job`.
Exit codes: 0 success, 2 validation error (bad JSON, schema, expressions,
a field of the wrong JSON type), 3 runtime error (indeterminacy, budget,
missing terms).

Determinism: real-valued report fields are formatted with six decimals
(round half to even); exact quantities (counts, rationals) are never
rounded.  Identical jobs produce byte-identical reports at any --threads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

from . import commuting as commuting_mod
from . import dfinite as dfinite_mod
from . import dml as dml_mod
from . import orbit as orbit_mod
from . import schanuel as schanuel_mod
from .density import EventuallyPeriodicSet, NATURALS, density as set_density, shift_set
from .errors import OrbitHeightError, ValidationError
from .exact import format_ratio, height_pair, parse_rational, report_csv
from .poly import parse_expression, parse_map, parse_polynomial

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(c, str) for c in x)


def _parse_map_job(job: dict, several: bool = False, observable: bool = True):
    """(variables, phi, observable, start) of a map job: phi is the self-map
    in 'map', or with several=True the list of self-maps in 'maps'; the
    observable is None when observable=False."""
    variables = job.get("variables")
    _require(_is_str_list(variables) and variables and len(set(variables)) == len(variables),
             "'variables' must be a nonempty list of distinct names")
    if several:
        texts = job.get("maps")
        _require(isinstance(texts, list) and texts and all(_is_str_list(m) for m in texts),
                 "'maps' must be a nonempty list of component lists")
    else:
        texts = [job.get("map")]
        _require(_is_str_list(texts[0]), "'map' must be a list of component strings")
    maps = [parse_map(m, variables) for m in texts]
    _require(all(len(phi.components) == len(variables) for phi in maps),
             "each map must be a self-map")
    obs = parse_expression(str(job.get("observable", "")), variables) if observable else None
    start = job.get("start")
    _require(isinstance(start, list) and len(start) == len(variables),
             f"'start' must be a list of {len(variables)} rationals")
    start = tuple(parse_rational(str(c)) for c in start)
    return tuple(variables), maps if several else maps[0], obs, start


def _is_number(x, kinds=(int, float)) -> bool:
    """A JSON number of one of kinds; true, false, NaN and Infinity are not numbers."""
    return type(x) in kinds and (type(x) is int or math.isfinite(x))


def _int_param(job: dict, key: str, default=None, minimum=None):
    value = job.get(key, default)
    _require(value is not None, f"missing required field '{key}'")
    _require(_is_number(value, (int,)), f"'{key}' must be an integer")
    if minimum is not None:
        _require(value >= minimum, f"'{key}' must be >= {minimum}")
    return value


def _metrics_csv(rows: list[tuple[str, str]]) -> str:
    return report_csv(("metric", "value"), rows)


# --- per-kind builders: validate and close over everything, run later ---

def _build_orbit(job: dict, budget: int):
    _, phi, observable, start = _parse_map_job(job)
    n_max = _int_param(job, "N", minimum=0)

    def run():
        trace = orbit_mod.iterate_orbit(phi, observable, start, n_max)
        payload = {
            "kind": "orbit",
            "horizon": trace.horizon,
            "rows": len(trace.states),
            "stop_reason": trace.stop_reason,
            "stop_index": trace.stop_index,
            "last_height": _fmt(trace.h[-1]) if trace.h else None,
        }
        return orbit_mod.trace_to_csv(trace), payload

    return run


def _build_gap(job: dict, budget: int):
    _, phi, observable, start = _parse_map_job(job)
    n0 = _int_param(job, "N0", default=2, minimum=2)
    n_max = _int_param(job, "N", minimum=n0 + 1)
    tail_fraction = job.get("tail_fraction", 0.5)
    _require(_is_number(tail_fraction) and 0 < tail_fraction <= 1,
             "'tail_fraction' must lie in (0, 1]")
    curve_constants = job.get("curve_constants", [])
    _require(isinstance(curve_constants, list)
             and all(_is_number(c) for c in curve_constants),
             "'curve_constants' must be a list of numbers")
    ell = job.get("ell")
    if ell is not None:
        ell = _int_param(job, "ell", minimum=0)

    def run():
        trace = orbit_mod.iterate_orbit(phi, observable, start, n_max, heights_only=ell is None)
        report = orbit_mod.gap_diagnostics(
            trace, n0=n0, tail_fraction=float(tail_fraction),
            curve_constants=[float(c) for c in curve_constants],
        )
        payload = {
            "kind": "gap",
            "horizon": trace.horizon,
            "stop_reason": trace.stop_reason,
            "N0": report.N0,
            "tail_start": report.tail_start,
            "tail_sup": _fmt(report.tail_sup),
            "tail_inf": _fmt(report.tail_inf),
            "below_curve_density": [
                {"C": _fmt(c), "density": str(frac)}
                for c, frac in report.below_curve_density
            ],
        }
        rows = [(key, str(payload[key])) for key in ("tail_start", "tail_sup", "tail_inf")]
        rows += [(f"below_curve_density[C={d['C']}]", d["density"])
                 for d in payload["below_curve_density"]]
        if ell is not None:
            r = orbit_mod.detect_window_repeat(trace, ell)
            payload["window_repeat"] = None if r is None else {
                "i": r.i, "j": r.j, "period": r.period, "verified_to": r.verified_to,
            }
            rows.append(("window_repeat", "none" if r is None
                         else f"i={r.i};j={r.j};verified_to={r.verified_to}"))
        return _metrics_csv(rows), payload

    return run


def _build_dfinite(job: dict, budget: int):
    rec = dfinite_mod.parse_recurrence_job(job)
    n0 = _int_param(job, "N0", default=10, minimum=2)
    n_max = _int_param(job, "N", default=500, minimum=n0 + 1)
    epsilon = job.get("epsilon", 0.5)
    _require(_is_number(epsilon) and epsilon > 0,
             "'epsilon' must be a positive number")

    def rows(terms):
        for n, t in enumerate(terms):
            u, v = t.numerator, t.denominator
            h = height_pair(u, v)
            yield str(n), format_ratio(u, v), _fmt(h), "" if n <= 1 else _fmt(h / math.log(n))

    def run():
        terms = dfinite_mod.expand_terms(rec, n_max)
        verdict = dfinite_mod.classify_height_growth(terms, epsilon=float(epsilon), n0=n0)
        report = report_csv(("n", "term", "height", "ratio"), rows(terms))
        payload = {
            "kind": "dfinite",
            "N": verdict.N,
            "N0": verdict.N0,
            "epsilon": _fmt(verdict.epsilon),
            "verdict": verdict.kind,
            "preperiod": verdict.preperiod,
            "period": verdict.period,
            "verified_to": verdict.verified_to,
            "tail_ratio": None if verdict.tail_ratio is None else _fmt(verdict.tail_ratio),
        }
        return report, payload

    return run


def _build_density(job: dict, budget: int):
    subset = EventuallyPeriodicSet.from_json(job.get("set"))

    def run():
        sigma = shift_set(subset)
        rows = [
            ("set", str(subset)),
            ("density", str(set_density(subset))),
            ("shift_set", str(sigma)),
            ("shift_set_density", str(set_density(sigma))),
        ]
        return _metrics_csv(rows), {"kind": "density", **dict(rows)}

    return run


def _build_schanuel(job: dict, budget: int):
    n = _int_param(job, "n", minimum=1)
    bounds = job.get("B_list")
    _require(isinstance(bounds, list) and bounds
             and all(_is_number(b, (int,)) and b >= 1 for b in bounds),
             "'B_list' must be a nonempty list of bounds >= 1")

    def run():
        fit = schanuel_mod.schanuel_fit(n, bounds, budget=budget)
        payload = {
            "kind": "schanuel",
            "n": n,
            "analytic_constant": _fmt(fit.constant),
            "reports": [
                {
                    "B": rep.B,
                    "count": rep.count,
                    "ratio": _fmt(rep.ratio),
                    "kappa_fit": None if rep.kappa_fit is None else _fmt(rep.kappa_fit),
                }
                for rep in fit.reports
            ],
        }
        return schanuel_mod.fit_to_csv(fit), payload

    return run


def _build_dml(job: dict, budget: int):
    variables, phi, _, start = _parse_map_job(job, observable=False)
    equations = job.get("Y")
    _require(isinstance(equations, list) and equations,
             "'Y' must be a nonempty list of polynomial equations")
    # P/d = 0 where P = 0: each equation by its integer numerator
    subvariety = dml_mod.Subvariety(tuple(parse_polynomial(t, variables)[0] for t in equations))
    n_max = _int_param(job, "N", minimum=0)
    min_terms = _int_param(job, "min_terms", default=5, minimum=3)

    def run():
        hits = dml_mod.return_set(phi, start, subvariety, n_max)
        decomp = dml_mod.ap_decompose(hits, n_max, min_terms=min_terms)
        membership = {}
        for prog in decomp.progressions:
            for t in prog.terms_up_to(decomp.horizon):
                membership[t] = f"progression(a={prog.a},d={prog.d})"
        for t in decomp.residual:
            membership[t] = "residual"
        report = report_csv(("n", "component"), ((str(t), membership[t]) for t in decomp.hits))
        return report, json.loads(decomp.to_json())

    return run


def _build_commuting(job: dict, budget: int):
    _, maps, observable, start = _parse_map_job(job, several=True)
    n_max = _int_param(job, "N", minimum=2)
    commuting_mod.check_grid_size(len(maps), n_max)
    n0 = _int_param(job, "N0", default=2, minimum=2)
    norms = EventuallyPeriodicSet.from_json(job["T"]) if "T" in job else NATURALS

    def run():
        mtrace = commuting_mod.grid_orbit(maps, observable, start, n_max)
        report = commuting_mod.norm_sliced_diagnostics(mtrace, norms, n0=n0)
        payload = {
            "kind": "commuting",
            "maps": len(maps),
            "norm_bound": n_max,
            "entries": len(mtrace.coords),
            "undefined": len(mtrace.undefined_at),
            "T": str(norms),
            "sup_ratio": _fmt(report.sup_ratio),
            "sup_at": report.sup_at,
            "slices": [
                {
                    "s": st.s,
                    "M_s": _fmt(st.max_height),
                    "ratio": _fmt(st.ratio),
                    "argmax": list(st.argmax),
                }
                for st in report.slices
            ],
        }
        return commuting_mod.grid_to_csv(mtrace), payload

    return run


_BUILDERS = {
    "orbit": _build_orbit,
    "gap": _build_gap,
    "dfinite": _build_dfinite,
    "density": _build_density,
    "schanuel": _build_schanuel,
    "dml": _build_dml,
    "commuting": _build_commuting,
}
KINDS = tuple(_BUILDERS)


def _build(job: dict, budget: int):
    """Build phase: anything that fails here is a validation error (exit 2),
    including expression-level problems like identically-zero denominators."""
    try:
        return _BUILDERS[job["kind"]](job, budget)
    except ValidationError:
        raise
    except OrbitHeightError as exc:
        raise ValidationError(str(exc)) from exc


def _parse_job_text(text: str, source: str) -> dict:
    try:
        job = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer past the int-from-str limit
        raise ValidationError(f"malformed JSON in {source}: {exc}") from exc
    _require(isinstance(job, dict), "job file must contain a JSON object")
    kind = job.get("kind")
    _require(kind in KINDS, f"'kind' must be one of {', '.join(KINDS)}")
    return job


def _read_job_source(name: str) -> tuple[str, str, Path]:
    """Resolve a path or catalog name to (stem, job text, default out dir)."""
    path = Path(name)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot read job file {path}: {exc}") from exc
        stem = path.name[: -len(".json")] if path.name.endswith(".json") else path.name
        return stem, text, path.parent
    # a catalog name is one plain file name: no separator, no leading dot
    if name and not name.startswith(".") and "/" not in name and "\\" not in name:
        entry = resources.files("orbitheight").joinpath("catalog", f"{name}.json")
        if entry.is_file():
            return name, entry.read_text(encoding="utf-8"), Path.cwd()
    raise ValidationError(f"no such job file or catalog entry: {name}")


def list_catalog() -> list[str]:
    """Names of the bundled example jobs."""
    base = resources.files("orbitheight").joinpath("catalog")
    return sorted(
        entry.name[: -len(".json")]
        for entry in base.iterdir()
        if entry.name.endswith(".json")
    )


def _open_in_place(path: str, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_report(path: Path, text: str) -> None:
    """Write text as UTF-8 over the old bytes of path, then cut off any rest.

    Like `Path.write_text`, this creates a missing file with mode 0o666 &
    ~umask, follows symlinks and raises OSError on a directory or read-only
    path.  It opens without O_TRUNC because truncating a non-empty file to
    zero is slow on some file systems: ext4 flushes such a file at close
    (`auto_da_alloc`), which costs several times a short report's write.
    The file is cut only when the old one was longer, so a new file or a
    report of unchanged length costs no more than `write_text`.

    The price: a run killed before the cut leaves the new report followed
    by the tail of the old one, which for a CSV can read as well-formed
    rows of the previous run.  And without that flush at close, a power
    loss soon after a run is likelier to leave the old bytes on disk.
    """
    data = text.encode("utf-8")
    with open(path, "wb", opener=_open_in_place) as out:
        longer = os.fstat(out.fileno()).st_size > len(data)
        out.write(data)
        if longer:
            out.truncate()


def run_job(
    path: str | Path,
    out_dir: str | Path | None = None,
    threads: int = 1,
    budget: int = schanuel_mod.DEFAULT_BUDGET,
) -> tuple[Path, Path]:
    """Validate, run, and write the two report files for one job.

    Returns the (csv_path, json_path) written.  Raises ValidationError for
    bad input and other OrbitHeightError subclasses for runtime failures;
    nothing is written unless the run completed.
    """
    _require(threads >= 1, "threads must be >= 1")
    stem, text, default_dir = _read_job_source(str(path))
    job = _parse_job_text(text, str(path))
    runner = _build(job, budget)
    csv_text, payload = runner()
    json_text = json.dumps(payload, indent=2) + "\n"

    target_dir = Path(out_dir) if out_dir is not None else default_dir
    target_dir.mkdir(parents=True, exist_ok=True)
    csv_path = target_dir / f"{stem}.report.csv"
    json_path = target_dir / f"{stem}.report.json"
    _write_report(csv_path, csv_text)
    _write_report(json_path, json_text)
    return csv_path, json_path


def validate_job(path: str | Path) -> None:
    """Schema/expression validation without running the job."""
    _, text, _ = _read_job_source(str(path))
    job = _parse_job_text(text, str(path))
    _build(job, schanuel_mod.DEFAULT_BUDGET)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitheight",
        description="Height-growth experiments for rational-map orbits over Q",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a job file and write reports")
    p_run.add_argument("job", help="path to a job JSON file, or a catalog name")
    p_run.add_argument("--out", default=None, help="directory for report files")
    p_run.add_argument("--threads", type=int, default=1,
                       help="at least 1; jobs run single-threaded and reports do not depend on it")
    p_run.add_argument("--budget", type=int, default=schanuel_mod.DEFAULT_BUDGET,
                       help="point counts: largest box size (2B+1)^(n+1), else exit 3")

    sub.add_parser("catalog", help="list bundled example jobs")

    p_val = sub.add_parser("validate", help="validate a job file without running it")
    p_val.add_argument("job", help="path to a job JSON file, or a catalog name")

    args = parser.parse_args(argv)

    if args.command == "catalog":
        for name in list_catalog():
            print(name)
        return 0

    try:
        if args.command == "validate":
            validate_job(args.job)
            print(f"{args.job}: valid")
            return 0
        csv_path, json_path = run_job(
            args.job, out_dir=args.out, threads=args.threads, budget=args.budget
        )
        print(csv_path)
        print(json_path)
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OrbitHeightError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
