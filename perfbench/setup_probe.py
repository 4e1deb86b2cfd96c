"""One set-up of a workload in a fresh process: import bks33, build the inputs.

``run.py`` times this script end to end for ``setup_s``.
Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench_workloads  # noqa: E402  (needs src/ on the path)

bench_workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
