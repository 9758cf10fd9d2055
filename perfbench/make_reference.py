"""Regenerate perfbench/reference/ from the CLI in ./src.

    python3 perfbench/make_reference.py

Runs every workload once per map (seeds 0-3) and copies the CSV.  The
checked-in references come from the dense code path of the original package;
regenerate them only when a change is meant to alter the outputs.
"""

import shutil
import sys

from run import Runner
from workloads import MATRICES, REFERENCE_DIR, WORKLOADS, reference_path


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        for seed in range(len(MATRICES)):
            runner = Runner(workload, seed, trace=0)
            _, rc, _, elapsed = runner.spawn("sweep")
            if rc != 0:
                print(f"{workload.name} seed {seed}: exit status {rc}", file=sys.stderr)
                return 1
            shutil.copyfile(runner.workdir / "out.csv", reference_path(workload, seed))
            print(f"{workload.name} seed {seed}: {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
