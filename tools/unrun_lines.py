"""List the statements of `src/orbitheight` that a pytest run never executes.

    python tools/unrun_lines.py            # the whole suite
    python tools/unrun_lines.py -x tests/test_poly.py   # any pytest arguments

A line tracer from the standard library (`sys.settrace` and
`threading.settrace`) records every line executed in the package's files
while `pytest.main` runs in this process; the script then prints, grouped by
file, each `ast` statement none of whose lines ran.  Subprocesses that tests
start are not traced.  A decorated definition counts as run when its
decorator line or its `def` line ran; a compound statement counts by its
header, a simple statement by any of its lines.  Docstrings and `try:`
headers compile to no traced instruction and are not listed.

It is a report, not a pass/fail signal: tracing slows the suite several
times over (about 95 s for the whole of it on 2 CPUs against about 33 s
untraced), so wall-clock tests may fail under it, and those failures change
nothing in the list, which holds what ran whether a test passed or not.  The
tests that failed are named in a section of their own after the list, so a
failed time budget is not mistaken for a regression.  The exit status is 0
whatever the tests do.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbitheight"


def statement_lines(path: Path) -> dict[int, range]:
    """Each statement's reported line and the lines whose execution counts for it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Try) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        first = min([d.lineno for d in getattr(node, "decorator_list", [])] + [node.lineno])
        last = body[0].lineno - 1 if body else node.end_lineno
        out[node.lineno] = range(first, max(first, last) + 1)
    return out


class Failures:
    """pytest plugin: the ids of the tests that failed, in the order they ran."""

    def __init__(self):
        self.ids: list[str] = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed and report.nodeid not in self.ids:  # setup, call or teardown
            self.ids.append(report.nodeid)


def main(args: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = name.startswith(prefix)
        if mine:
            ran[name].add(frame.f_lineno)
            return local
        return None

    failures = Failures()
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                    plugins=[failures])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        hit = ran.get(str(path), set())
        lines = path.read_text(encoding="utf-8").splitlines()
        unrun = [n for n, span in sorted(statement_lines(path).items())
                 if not hit.intersection(span)]
        if unrun:
            print(f"\n{path.relative_to(ROOT)}: {len(unrun)} unrun")
            for n in unrun:
                print(f"  {n:5d}  {lines[n - 1].strip()}")
        total += len(unrun)
    print(f"\n{total} statements never ran")
    print(f"\n{len(failures.ids)} tests failed under the tracer, which slows them"
          " (the list above holds what ran either way)")
    for nodeid in failures.ids:
        print(f"  {nodeid}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
