#!/usr/bin/env python3
"""Regenerate expected.json: the report strings only a copy can check.

The density job's `set` and `shift_set` fields print an eventually
periodic set in the program's own notation; the benchmark checks the
densities independently and these two strings against this copy.  After a
deliberate change of that notation, run from the repository root:

    python3 perfbench/regen_expected.py
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from orbitheight import cli  # noqa: E402

with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
    _, json_path = cli.run_job("density-evens", out_dir=tmp)
    payload = json.loads(json_path.read_text(encoding="utf-8"))
expected = {"set": payload["set"], "shift_set": payload["shift_set"]}
(BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
print(json.dumps(expected))
