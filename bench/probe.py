"""Set one workload up in a fresh interpreter; `setup_s` is its wall time.

    python3 bench/probe.py WORKLOAD SEED

Imports wco, generates the seed's inputs and runs one untimed warm-up
operation, which is everything a measured run does before its first timed
operation.  Prints the program's versions as one JSON line; exits 1 if the
warm-up operation fails its check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    root = Path(__file__).resolve().parent.parent
    workloads.import_program(root)
    workload = workloads.WORKLOADS[name](root, seed)
    error = workload.run(0)
    if error:
        print(error, file=sys.stderr)
        return 1
    print(json.dumps(workloads.program_info()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
