"""Check that two invocations agree on every deterministic per-layer metric.

Usage (from the repository root)::

    python3 perfbench/determinism.py --workload ioserver-trace --seed 1 --held-out-seed 9

Runs ``run.py --trace 1`` twice on ``--seed`` and once on
``--held-out-seed``. Every count and ``model.*`` value (all per-layer
metrics except host times) must be identical across the first two runs;
any that differ are named. The held-out run must verify cleanly; the
report lists how many counts it moved, since only the ioserver trace
depends on the seed. Exits 1 on a difference or a failed run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import HOST_TIMED  # noqa: E402


def invoke(workload: str, seed: int, seconds: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", "1"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def counts(doc: dict) -> dict:
    return {name: m["value"] for name, m in doc["metrics"].items() if name not in HOST_TIMED}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--held-out-seed", type=int, required=True)
    p.add_argument("--seconds", default="1")
    args = p.parse_args(argv)

    first, second, held = (
        invoke(args.workload, seed, args.seconds)
        for seed in (args.seed, args.seed, args.held_out_seed)
    )
    a, b, h = counts(first), counts(second), counts(held)
    differ = sorted(name for name in a if a[name] != b.get(name))
    moved = sorted(name for name in a if a[name] != h.get(name))
    ok = not differ and all(doc["correct"] and not doc["failed"] for doc in (first, second, held))
    print(f"{args.workload}: {len(a)} deterministic metrics, seed {args.seed} twice, "
          f"held-out seed {args.held_out_seed}")
    for name in differ:
        print(f"  DIFFERS between invocations: {name} {a[name]!r} vs {b.get(name)!r}")
    print(f"  runs correct: {[doc['correct'] for doc in (first, second, held)]}, "
          f"failed jobs: {[doc['failed'] for doc in (first, second, held)]}")
    print(f"  held-out seed moved {len(moved)} of {len(a)}: {', '.join(moved) or 'none'}")
    print("determinism: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
