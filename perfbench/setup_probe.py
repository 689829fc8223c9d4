"""Set-up time of one workload, measured in a fresh interpreter.

Reads a generated input set (JSON) on stdin and prints the seconds spent
on ``import cycont`` plus building that workload's library inputs.  The
benchmark's own modules are imported between the two timed parts, so
their import is not counted.  Run by ``run.py``; ``PYTHONPATH`` must name
the checkout's ``src``.
"""

import json
import sys
import time

spec = json.load(sys.stdin)
t0 = time.perf_counter()
import cycont  # noqa: E402,F401
t1 = time.perf_counter()
import workloads  # noqa: E402
t2 = time.perf_counter()
workloads.build(spec["workload"], spec)
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
