"""Timed repetitions of `cli.run_job` in one single-threaded process.

Usage: python3 worker.py SPEC.json

SPEC holds the source directory, the jobs, the report directory, the run
length, the calibration kind and whether to trace.  The worker runs every
job once to warm up, then whole rounds of all jobs until the run length
has passed.  A calibration is timed before the first job of a round and
after every job.  With tracing on, rounds alternate between untraced and
traced, so the tracing overhead is measured in the same process.  The
result goes to stdout as one JSON object.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

MIN_ROUNDS = 4


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from orbitheight import cli  # noqa: E402

    if src not in Path(cli.__file__).resolve().parents:
        print(f"orbitheight imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    # nothing here may import numpy or the kernels itself: peak_rss_mb must
    # show it when the program stops importing them for a workload
    import calib
    import layers

    kind = spec["calibration"]
    nominal = calib.NOMINAL_S[kind]
    jobs, out = spec["jobs"], spec["out"]
    tracing = bool(spec["trace"])

    def run(job) -> str | None:
        try:
            cli.run_job(job["source"], out_dir=out, threads=1)
        except Exception as exc:  # counted as a failed operation, reported by name
            return f"{type(exc).__name__}: {exc}"[:300]
        return None

    errors = {}
    for job in jobs:
        error = run(job)
        if error is not None:
            errors[job["name"]] = error
    for _ in range(5):
        calib.timed(kind)

    reps = {"untraced": {j["name"]: [] for j in jobs}, "traced": {j["name"]: [] for j in jobs}}
    raw = {j["name"]: [] for j in jobs}
    calibration_readings = []
    layer_rounds = []
    attempted = failed = rounds = 0
    deadline = perf_counter() + spec["seconds"]
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        traced_round = tracing and rounds % 2 == 1
        tracer = layers.Tracer() if traced_round else None
        round_calibrations = [calib.timed(kind)]
        for job in jobs:
            if tracer is not None:
                tracer.install()
            t0 = perf_counter()
            error = run(job)
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
            c_after = calib.timed(kind)
            scale = nominal / ((round_calibrations[-1] + c_after) / 2)
            round_calibrations.append(c_after)
            attempted += 1
            if error is not None:
                failed += 1
                errors.setdefault(job["name"], error)
                continue
            reps["traced" if traced_round else "untraced"][job["name"]].append(elapsed * scale)
            if not traced_round:
                raw[job["name"]].append(elapsed)
        calibration_readings.extend(round_calibrations)
        if tracer is not None:
            snap = tracer.snapshot()
            snap["scale"] = nominal / statistics.median(round_calibrations)
            layer_rounds.append(snap)
        rounds += 1

    # the peak is read before anything below imports modules of its own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import importlib.metadata

    def medians(samples):
        return {name: statistics.median(v) for name, v in samples.items() if v}

    result = {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "job_s": medians(reps["untraced"]),
        "job_raw_s": medians(raw),
        "job_reps": {name: len(v) for name, v in reps["untraced"].items()},
        "traced_job_s": medians(reps["traced"]),
        "calibration": {
            "kind": kind,
            "nominal_s": nominal,
            "median_s": statistics.median(calibration_readings),
            "readings": len(calibration_readings),
        },
        "peak_rss_mb": peak_rss_mb,
        "layer_rounds": layer_rounds,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "numba_absent": importlib.util.find_spec("numba") is None,
            "kernel_backend": getattr(sys.modules.get("orbitheight.kernels"), "BACKEND", None),
            "platform": platform.platform(),
        },
    }
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
