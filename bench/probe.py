"""Set-up probe: a fresh process that does one workload's set-up and exits.

It prints ``ready`` and its CPU time since process start once the first
observation could reach the package: imports, configuration, prior (with
the student prior's truncation estimate) and data generation.

    python3 bench/probe.py WORKLOAD SEED
"""

import sys
import time

from paths import WORK, import_package

if __name__ == "__main__":
    import_package()
    from workloads import make

    make(sys.argv[1], int(sys.argv[2]), WORK / "probe").setup()
    print("ready", time.process_time(), flush=True)
