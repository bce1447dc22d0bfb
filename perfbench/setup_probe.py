"""Time one benchmark set-up in a fresh interpreter and print it as JSON.

Set-up is what every user of the CLI pays before the first orbit: importing
the package (numpy and scipy with it), parsing the workload's potential, and
a warm-up solve and verify at N = 16.  The time is scaled to the reference
host speed (see ``workloads.REFERENCE_KERNEL_S``).

    python3 perfbench/setup_probe.py <workload> <workdir>
"""

import json
import statistics
import sys
import time
from pathlib import Path

import workloads


def main(workload: str, workdir: str) -> int:
    workloads.pin_threads()
    case = workloads.warmup_case(workload)
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from hamorbit import cli

    cli.make_potential(case.potential, case.n)
    workloads.run_case(cli, case, Path(workdir), "setup")
    raw = time.perf_counter() - t0
    kernel = statistics.median(workloads.calibration_kernel() for _ in range(3))
    print(json.dumps({"setup_s": raw * workloads.REFERENCE_KERNEL_S / kernel, "raw_s": raw}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
