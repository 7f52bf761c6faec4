"""Set-up probe: a fresh interpreter imports orbitheight.cli and runs small jobs.

Usage: python3 probe.py SRC OUT JOB.json [JOB.json ...]

The benchmark times the whole process from outside; the probe itself
prints the seconds its `import orbitheight.cli` took.  Run it under
`python3 -X importtime` to see which modules that import pulls in.
"""

import sys
from time import perf_counter

sys.path.insert(0, sys.argv[1])
t0 = perf_counter()
from orbitheight import cli  # noqa: E402

import_s = perf_counter() - t0
for job in sys.argv[3:]:
    cli.run_job(job, out_dir=sys.argv[2], threads=1)
print(f'{{"import_s": {import_s!r}}}')
