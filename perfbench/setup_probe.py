"""Time one fresh process's set-up for a workload and print the seconds.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

t0 = time.perf_counter()

import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
