"""Set-up probe: import eonspectra, build one workload's inputs, then print
the monotonic clock.

    python3 perfbench/probe.py <workload> <seed>

``run.py`` starts this several times and takes the time from starting the
process to the printed clock as one set-up sample.
"""

import sys
import time

import workloads

build, _ = workloads.WORKLOADS[sys.argv[1]]
build(int(sys.argv[2]))
print(time.monotonic())
