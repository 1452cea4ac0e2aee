"""One set-up from a fresh process, timed from before the package import.

    python3 perfbench/probe.py <workload>    # prints the seconds it took
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (imports tabsynth)

workloads.Setup(sys.argv[1])
print(repr(time.perf_counter() - T0))
