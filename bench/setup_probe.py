"""Set-up time of one workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload> <seed>, with aedcodes on
PYTHONPATH.  Prints the seconds taken to import aedcodes (numpy included),
build the code and build the decoder configuration and channel.
"""

import sys
import time

from workloads import WORKLOADS

if __name__ == "__main__":
    wl = WORKLOADS[sys.argv[1]]
    t0 = time.perf_counter()
    import aedcodes
    wl.build(aedcodes, int(sys.argv[2]))
    print(repr(time.perf_counter() - t0))
