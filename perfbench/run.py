#!/usr/bin/env python3
"""End-to-end benchmark of `orbitheight run`, with output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload orbit-steps --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

For one workload it
  1. writes the seeded job files and checks that the bundled catalog jobs
     are the ones the workload expects;
  2. times set-up: fresh interpreters that import orbitheight.cli and run
     one small job of each kind the workload uses;
  3. runs the timed jobs in one single-threaded worker process
     (worker.py) through the public `cli.run_job`;
  4. checks every report against a computation made apart from the
     program (checks.py), and for point counts that --threads 2 gives the
     same reports as --threads 1;
  5. prints machine info, a per-job table and, as its last line, one JSON
     object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
     the metrics are the end-to-end ones, with --trace 1 the per-layer ones.

A full record of each run goes to .perfbench-out/ at the repository root.
The program is imported from src/ of the checkout the benchmark sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(BENCH_DIR))
import calib  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

# Each workload is calibrated by the computation that resembles its time.
CALIBRATION = {"orbit-steps": "interp", "orbit-bigint": "bigint", "point-count": "vector"}
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 60  # beyond --seconds; a normal worker needs a few
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; "_s" metrics are calibrated self times
PER_LAYER = {
    "cli.rest_s": "s", "cli.format_s": "s", "cli.write_s": "s", "cli.report_bytes": "bytes",
    "poly.parse_s": "s", "poly.parse_calls": "count", "poly.apply_map_s": "s",
    "poly.apply_map_calls": "count", "poly.evaluate_s": "s", "poly.evaluate_calls": "count",
    "poly.compose_s": "s",
    "exact.p1_value_s": "s", "exact.p1_value_calls": "count", "exact.height_s": "s",
    "exact.fraction_new": "count", "exact.gcd_calls": "count", "exact.gcd_bits": "bits",
    "exact.max_bits": "bits",
    "orbit.iterate_s": "s", "orbit.iterate_points_s": "s", "orbit.rows": "count",
    "orbit.gap_s": "s", "orbit.window_s": "s",
    "commuting.check_s": "s", "commuting.grid_s": "s", "commuting.entries": "count",
    "commuting.undefined": "count", "commuting.slices_s": "s",
    "dfinite.expand_s": "s", "dfinite.terms": "count", "dfinite.classify_s": "s",
    "dml.return_set_s": "s", "dml.decompose_s": "s", "dml.hits": "count",
    "density.shift_set_s": "s",
    "schanuel.count_s": "s", "schanuel.box_vectors": "count", "schanuel.zeta_s": "s",
    "kernels.chunk_s": "s", "kernels.chunks": "count", "kernels.vectors_per_s": "1/s",
    "setup.import_s": "s", "setup.numpy_import_s": "s",
    "trace.overhead_s": "s",
}
CALL_METRICS = {"poly.parse_calls": "poly.parse", "poly.apply_map_calls": "poly.apply_map",
                "poly.evaluate_calls": "poly.evaluate", "exact.p1_value_calls": "exact.p1_value",
                "kernels.chunks": "kernels.chunk"}


class Problems(list):
    def add(self, message: str) -> None:
        self.append(message)
        print(f"CHECK FAILED: {message}", file=sys.stderr)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def write_jobs(jobs, directory: Path, problems: Problems) -> list[dict]:
    """Job files for the worker; catalog jobs run by name after a spec check."""
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for job in jobs:
        if job.catalog:
            bundled = SRC / "orbitheight" / "catalog" / f"{job.name}.json"
            try:
                same = json.loads(bundled.read_text(encoding="utf-8")) == job.spec
            except (OSError, ValueError):
                same = False
            if not same:
                problems.add(f"{job.name}: bundled catalog job differs from the workload's copy")
            entries.append({"name": job.name, "source": job.name})
        else:
            path = directory / f"{job.name}.json"
            path.write_text(json.dumps(job.spec, indent=2) + "\n", encoding="utf-8")
            entries.append({"name": job.name, "source": str(path)})
    return entries


def check_reports(jobs, out: Path, problems: Problems) -> None:
    for job in jobs:
        try:
            csv_text = (out / f"{job.name}.report.csv").read_text(encoding="utf-8")
            payload = json.loads((out / f"{job.name}.report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.add(f"{job.name}: cannot read reports ({exc})")
            continue
        want_csv, want_payload = job.expected()
        if csv_text != want_csv:
            got, want = csv_text.splitlines(), want_csv.splitlines()
            where = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                         min(len(got), len(want)))
            problems.add(f"{job.name}: CSV line {where + 1} differs from the reference"
                         f" (got {got[where:where + 1]}, want {want[where:where + 1]})")
        if payload != want_payload:
            keys = sorted(k for k in set(payload) | set(want_payload)
                          if payload.get(k) != want_payload.get(k))
            problems.add(f"{job.name}: JSON report differs from the reference in {keys}")
        for key, value in job.props.items():
            if payload.get(key) != value:
                problems.add(f"{job.name}: {key} is {payload.get(key)!r}, expected {value!r}")


def run_probe(files: list[Path], out: Path, importtime: bool):
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(BENCH_DIR / "probe.py"), str(SRC), str(out)] + [str(f) for f in files]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=60)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def numpy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the top-level numpy package, 0 when not imported."""
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)\s*$", line)
        if m and m.group(4) == "numpy":
            return int(m.group(2)) / 1e6
    return 0.0


def measure_setup(workload: str, work: Path, tracing: bool, problems: Problems) -> dict:
    probes = workloads.probe_jobs(workload, expected_strings())
    files = []
    for job in probes:
        path = work / "probe-jobs" / f"{job.name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(job.spec, indent=2) + "\n", encoding="utf-8")
        files.append(path)
    out = work / "probe-out"
    kind = "startup"
    nominal = calib.NOMINAL_S[kind]
    run_probe(files, out, importtime=False)  # fills the bytecode and file caches
    check_reports(probes, out, problems)
    calib.timed(kind)
    raw, scaled, imports, numpy_s = [], [], [], []
    before = calib.timed(kind)
    for _ in range(SETUP_PROBES):
        elapsed, reported, log = run_probe(files, out, importtime=tracing)
        after = calib.timed(kind)
        scale = nominal / ((before + after) / 2)
        before = after
        raw.append(elapsed)
        scaled.append(elapsed * scale)
        imports.append(reported["import_s"] * scale)
        if tracing:
            numpy_s.append(numpy_import_s(log) * scale)
    return {
        "setup_s": statistics.median(scaled),
        "setup_raw_s": statistics.median(raw),
        "import_s": statistics.median(imports),
        "numpy_import_s": statistics.median(numpy_s) if numpy_s else None,
        "probes": SETUP_PROBES,
        "probe_jobs": [job.name for job in probes],
    }


def check_threads(seed: int, work: Path, problems: Problems) -> None:
    """A small count must give identical reports at --threads 1 and --threads 2."""
    job = workloads.threads_job(random.Random(f"threads:{seed}"))
    path = work / "threads" / f"{job.name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(job.spec) + "\n", encoding="utf-8")
    env = child_env()
    env["PYTHONPATH"] = str(SRC)
    texts = []
    for threads in (1, 2):
        out = work / "threads" / f"out-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "orbitheight.cli", "run", str(path), "--threads", str(threads),
             "--out", str(out)], capture_output=True, text=True, env=env, timeout=60)
        if proc.returncode != 0:
            problems.add(f"{job.name}: --threads {threads} exited {proc.returncode}")
            return
        check_reports([job], out, problems)
        texts.append([(out / f"{job.name}.report.{ext}").read_bytes() for ext in ("csv", "json")])
    if texts[0] != texts[1]:
        problems.add(f"{job.name}: reports differ between --threads 1 and --threads 2")


def run_worker(entries, out: Path, work: Path, seconds: int, tracing: bool, workload: str):
    spec_path = work / "worker.json"
    spec_path.write_text(json.dumps({
        "src": str(SRC), "jobs": entries, "out": str(out), "seconds": seconds,
        "trace": tracing, "calibration": CALIBRATION[workload],
    }), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
                          capture_output=True, text=True, env=child_env(),
                          timeout=seconds + WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout)


def layer_metrics(result: dict, setup: dict) -> dict:
    rounds = result["layer_rounds"]
    values = {}
    for metric in PER_LAYER:
        if metric in CALL_METRICS:
            values[metric] = rounds[0]["calls"][CALL_METRICS[metric]]
        elif metric.endswith("_s") and metric[:-2] in rounds[0]["self_s"]:
            values[metric] = statistics.median(r["self_s"][metric[:-2]] * r["scale"] for r in rounds)
        elif metric in rounds[0]["counts"]:
            values[metric] = rounds[0]["counts"][metric]
    values["kernels.vectors_per_s"] = statistics.median(
        r["counts"]["kernels.vectors"] / (r["self_s"]["kernels.chunk"] * r["scale"])
        if r["self_s"]["kernels.chunk"] > 0 else 0.0 for r in rounds)
    values["setup.import_s"] = setup["import_s"]
    values["setup.numpy_import_s"] = setup["numpy_import_s"]
    values["trace.overhead_s"] = sum(result["traced_job_s"].values()) - sum(result["job_s"].values())
    return values


def counts_repeat(result: dict) -> bool:
    first = result["layer_rounds"][0]
    return all(r["counts"] == first["counts"] and r["calls"] == first["calls"]
               for r in result["layer_rounds"][1:])


def expected_strings() -> dict:
    """Copies of today's output where no independent computation exists."""
    return json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: int, tracing: bool) -> dict:
    problems = Problems()
    work = OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        jobs = workloads.build(workload, seed, expected_strings())
        entries = write_jobs(jobs, work / "jobs", problems)
        setup = measure_setup(workload, work, tracing, problems)
        out = work / "reports"
        result = run_worker(entries, out, work, seconds, tracing, workload)
        check_reports(jobs, out, problems)
        if workload == "point-count":
            check_threads(seed, work, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, error in result["errors"].items():
        print(f"job {name} failed: {error}", file=sys.stderr)
    wall = sum(result["job_s"].values())
    if tracing:
        metrics = layer_metrics(result, setup)
        units = PER_LAYER
    else:
        metrics = {"wall_s": wall, "setup_s": setup["setup_s"], "peak_rss_mb": result["peak_rss_mb"]}
        units = END_TO_END
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(tracing),
        "machine": result["machine"], "calibration": result["calibration"],
        "wall_s": wall, "wall_raw_s": sum(result["job_raw_s"].values()),
        "setup": setup, "peak_rss_mb": result["peak_rss_mb"], "rounds": result["rounds"],
        "jobs": {name: {"s": result["job_s"].get(name), "raw_s": result["job_raw_s"].get(name),
                        "reps": result["job_reps"][name],
                        "traced_s": result["traced_job_s"].get(name)}
                 for name in result["job_reps"]},
        "counts_repeat": counts_repeat(result) if tracing else None,
        "problems": list(problems),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(tracing)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print_summary(record)
    return {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def print_summary(record: dict) -> None:
    m, c = record["machine"], record["calibration"]
    print(f"[{record['workload']} seed={record['seed']} trace={record['trace']}] "
          f"nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"numba={'absent' if m['numba_absent'] else 'present'} backend={m['kernel_backend']}")
    print(f"calibration {c['kind']}: nominal {c['nominal_s'] * 1e3:.3f} ms, "
          f"median reading {c['median_s'] * 1e3:.3f} ms over {c['readings']} readings")
    print(f"{'job':28s} {'reps':>5s} {'calibrated_s':>13s} {'raw_s':>10s} {'traced_s':>10s}")
    for name, j in record["jobs"].items():
        traced = "" if j["traced_s"] is None else f"{j['traced_s']:.5f}"
        s = float("nan") if j["s"] is None else j["s"]
        raw = float("nan") if j["raw_s"] is None else j["raw_s"]
        print(f"{name:28s} {j['reps']:5d} {s:13.5f} {raw:10.5f} {traced:>10s}")
    print(f"wall_s {record['wall_s']:.4f} s (raw {record['wall_raw_s']:.4f} s); "
          f"setup_s {record['setup']['setup_s']:.4f} s (raw {record['setup']['setup_raw_s']:.4f} s); "
          f"peak_rss_mb {record['peak_rss_mb']:.1f} MB; rounds {record['rounds']}")
    if record["trace"]:
        for name, value in record["metrics"].items():
            print(f"  {name} = {value:.6g} {PER_LAYER[name]}")
        print(f"  counts repeat across traced rounds: {record['counts_repeat']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "orbitheight" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'orbitheight'} is missing", file=sys.stderr)
        return 2

    # Every child, the calibration's included, caches bytecode, as an
    # installed package has it, and keeps the cache inside the checkout.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    os.environ.update(CHILD_ENV)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, res in results.items():
            print(f"{name}: " + json.dumps(res))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
