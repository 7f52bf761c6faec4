"""Fixed, stdlib-only calibration computations.

On a shared machine the speed of the same code drifts by up to 2x within
a minute, and not equally for all code: the interpreter loop and CPython's
big-int gcd slow down together, numpy's vectorised gcd much less, and
process start-up follows neither.  So every timed thing is calibrated by
the computation that looks most like it: `interp` (Fraction arithmetic,
attribute and string work) for per-step overhead, `bigint`
(multiplication and gcd of ~80k-bit integers) for big-int work, `vector`
(long runs of hardware division over large buffers) for the numpy
counting kernels, and `startup` (a fresh interpreter importing stdlib
modules) for set-up.  A calibration is timed right before and right after
every timed repetition, and the repetition's time is scaled by
NOMINAL_S[kind] / (mean of the two calibration times).
"""

from __future__ import annotations

import math
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# Median time of each calibration on the reference machine (see README);
# a calibrated time is what the repetition would have taken at that speed.
NOMINAL_S = {"interp": 0.0038, "bigint": 0.015, "vector": 0.0028, "startup": 0.145}


class _Cell:
    __slots__ = ("value", "label")

    def __init__(self, value, label):
        self.value = value
        self.label = label


def interp() -> int:
    x = Fraction(1, 3)
    cells = []
    for i in range(360):
        x = (x * x + 1) / (x + 2) if x.denominator < 10**24 else Fraction(i + 1, 7)
        cells.append(_Cell(x, f"{i}:{x.numerator % 1000}"))
    return sum(len(c.label) for c in cells) + len(",".join(str(c.value) for c in cells[::24]))


_A = 3**50000 + 11
_B = 7**28000 + 3


def bigint() -> int:
    # operands of ~80k bits: out of L1 like the values of the big-int workload
    return math.gcd(_A, _B) + (_A * _B) % 1000003


_X = 3**900000 + 7
_MODULI = (1000003, 999983, 999979, 999961, 999959, 999953)


def vector() -> int:
    # long runs of hardware division and a pass over a large buffer, the
    # two costs of numpy's vectorised gcd; the interpreter hardly runs
    digits = _X.to_bytes((_X.bit_length() + 7) // 8, "little")
    return sum(_X % m for m in _MODULI) + digits.count(7) + digits.find(b"\x00\x00\x00")


# Set-up is process start, unmarshalling and exec of module code, and the
# loading of C extensions; a fresh interpreter importing stdlib modules
# that do the same tracks it, where the in-process calibrations do not.
STARTUP_MODULES = ("argparse, csv, json, fractions, decimal, statistics, email.parser, "
                   "xml.etree.ElementTree, sqlite3, ssl, asyncio, unittest")


def startup() -> int:
    return subprocess.run([sys.executable, "-c", f"import {STARTUP_MODULES}"], check=True).returncode


CALIBRATIONS = {"interp": interp, "bigint": bigint, "vector": vector, "startup": startup}


def timed(kind: str) -> float:
    """Seconds one run of the calibration `kind` takes now."""
    t0 = perf_counter()
    CALIBRATIONS[kind]()
    return perf_counter() - t0
