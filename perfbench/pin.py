"""Regenerate pins.json: per-seed iterations-to-threshold of the exp-gate workload.

    python3 perfbench/pin.py 0 16

pins the workload seeds 0 to 15.  The pinned integers are the study's
result at the commit that wrote them; later commits must reproduce them
exactly, so rerun this only when a change is meant to alter them.
"""

import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import PINS_PATH, WORKLOADS, iterations_by_seed

    gate = WORKLOADS["exp-gate"]
    first, stop = int(sys.argv[1]), int(sys.argv[2])
    ignore = lambda *args: None
    pins = {str(seed): iterations_by_seed(gate.run_pass(seed, ignore, ignore)) for seed in range(first, stop)}
    with open(PINS_PATH, "w") as fh:
        json.dump({gate.name: pins}, fh, indent=1, sort_keys=True)
        fh.write("\n")
