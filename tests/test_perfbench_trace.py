"""The benchmark's layer trace still sees the program's layers.

`perfbench/layers.py` wraps public functions of orbitheight from outside
the package and reads trace sizes through hooks such as `len(result.rows)`.
A refactor that stops calling a wrapped function, or changes what a hook
reads, would blind the trace without failing a benchmark run.  This test
loads the module read-only (its source is compiled here, nothing is
written next to it) and checks its counters on one job of each kind.
"""

import json
from pathlib import Path
from types import ModuleType

from orbitheight import cli

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

JOBS = {
    "orbit": {"kind": "orbit", "variables": ["x"], "map": ["x+1"], "observable": "x",
              "start": ["0"], "N": 30},
    "commuting": {"kind": "commuting", "variables": ["x"], "maps": [["x+1"], ["x+2"]],
                  "observable": "x", "start": ["0"], "N": 5},
    "dfinite": {"kind": "dfinite", "order": 1, "coeffs": ["-(n+1)", "1"],
                "initial": {"0": "1"}, "N": 40},
}


def load_layers() -> ModuleType:
    module = ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), module.__dict__)
    return module


def test_layer_trace_counts_match_job_sizes(tmp_path):
    tracer = load_layers().Tracer()
    report_rows = {}
    tracer.install()
    try:
        for name, job in JOBS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(job), encoding="utf-8")
            csv_path, _ = cli.run_job(path, out_dir=tmp_path)  # the wrapped name
            report_rows[name] = len(csv_path.read_text(encoding="utf-8").splitlines()) - 1
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    counts, calls = snap["counts"], snap["calls"]
    assert counts["orbit.rows"] == report_rows["orbit"] == 31
    # a grid of two maps to norm 5 has (5+1)(5+2)/2 cells, all defined here
    assert counts["commuting.entries"] == report_rows["commuting"] == 21
    assert counts["commuting.undefined"] == 0
    assert counts["dfinite.terms"] == report_rows["dfinite"] == 41
    for span in ("orbit.iterate", "commuting.grid", "commuting.slices", "dfinite.expand",
                 "cli.rest"):
        assert calls[span] == (3 if span == "cli.rest" else 1), span
