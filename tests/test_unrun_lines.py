"""`tools/unrun_lines.py` maps each statement to the lines that count for it.

The script's report is only as good as that map: a statement missing from
it is never reported, and a wrong span reports run code as unrun or the
reverse.  The module is loaded read-only (its source is compiled here, so
nothing is written next to it) and checked on a small fixture file.
"""

from pathlib import Path
from types import ModuleType, SimpleNamespace

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "unrun_lines.py"

FIXTURE = '''\
"""Module docstring."""
import os


@decorator
def f(x):
    """Function docstring."""
    total = (x +
             1)
    try:
        pass
    except ValueError:
        raise
    if x:
        return total
    return 0
'''


def load_script() -> ModuleType:
    module = ModuleType("unrun_lines")
    module.__file__ = str(SCRIPT)
    exec(compile(SCRIPT.read_text(encoding="utf-8"), str(SCRIPT), "exec"), module.__dict__)
    return module


def test_statement_lines_of_a_fixture(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert load_script().statement_lines(path) == {
        2: range(2, 3),    # import
        6: range(5, 7),    # def, counted from its decorator to its header
        8: range(8, 10),   # a simple statement over two lines
        11: range(11, 12),  # the try body; `try:` and the docstrings are left out
        13: range(13, 14),
        14: range(14, 15),  # an if counts by its header alone
        15: range(15, 16),
        16: range(16, 17),
    }


def test_failed_tests_are_named_once_in_order():
    failures = load_script().Failures()
    for nodeid, failed in [("t::a", False), ("t::b", True), ("t::c", True), ("t::b", True)]:
        failures.pytest_runtest_logreport(SimpleNamespace(nodeid=nodeid, failed=failed))
    assert failures.ids == ["t::b", "t::c"]
