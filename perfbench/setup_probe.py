"""One fresh-process set-up of a workload: import riccati_cert, generate its instances.

``run.py`` starts this script several times and reports the median wall
time as ``setup_s``, scaled by the calibration kernel time this process
prints when it is done. Usage:

    python3 perfbench/setup_probe.py --workload certify --seed 1 --workdir DIR
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import workloads  # noqa: E402  (imports riccati_cert from src/)
from calibration import calibrate  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    workloads.build(args.workload, args.seed, args.workdir)
    print(calibrate())
    return 0


if __name__ == "__main__":
    sys.exit(main())
