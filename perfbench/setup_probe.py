"""Set-up time of one workload, measured in a fresh interpreter.

Times importing ``sladoa``, building and validating the workload's
geometries and configs, and running its first, cold trial.  Prints the
elapsed seconds as its last line.

Usage: python3 perfbench/setup_probe.py <workload> <master seed>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sladoa  # noqa: E402

import workloads  # noqa: E402

wl = workloads.build(sys.argv[1], int(sys.argv[2]))
first = wl.configs[0]
sladoa.run_trial(first, first.axis_values[0], 0, 0)
print(repr(time.perf_counter() - T0))
