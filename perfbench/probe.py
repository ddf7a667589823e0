"""Set-up probe: a fresh interpreter imports quditwalk from the checkout,
builds one workload's inputs, and prints "ready".

    python3 perfbench/probe.py <workload> <seed>

run.py times it from process start to the "ready" line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports numpy and quditwalk)

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
