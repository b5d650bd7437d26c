"""One ``setup_s`` sample: a fresh interpreter readies one workload.

Usage: ``python3 perfbench/setup_probe.py <workload>``. Imports the
workload's entry points, builds its cluster presets, then prints
``ready``; ``run.py`` times it from spawn to that line.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

workloads.setup(sys.argv[1])
print("ready", flush=True)
