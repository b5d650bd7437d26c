"""Host-time benchmark of the simulator, one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tcio-interleaved --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: warm host
seconds per pass over the workload's jobs (timing starts after a full
warm-up pass; each job's wall time is scaled by the host speed measured
next to it, see calibrate.py), the write/read split, verified simulated
MiB per host second, ``setup_s`` (median of fresh interpreters readying
the workload) and peak RSS. ``--trace 1`` prints the per-layer metrics: profiled self
time per ``repro`` package, the program's own deterministic counts, and
the tracing overhead. Every pass checks every job's bytes against its
oracle and every count against the warm-up pass. The last line of output
is one JSON object; the lines before it are the same numbers for people.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
MIB = 1 << 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Pass:
    """One pass over a workload's jobs."""

    def __init__(self):
        self.host = {"write": 0.0, "read": 0.0}  # ref_s: wall scaled by host speed
        self.wall = {"write": 0.0, "read": 0.0}
        self.calibrations: list[float] = []
        self.moved_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.entries: dict[str, int] = {}

    @property
    def host_s(self) -> float:
        return self.host["write"] + self.host["read"]


def run_pass(jobs, layer_map=None) -> Pass:
    """Run every job once; profile the entry-point calls given *layer_map*."""
    import layers
    import workloads

    profiler = cProfile.Profile() if layer_map is not None else None
    done = Pass()
    done.calibrations.append(calibrate())
    for job in jobs:
        gc.collect()
        wall_s, out, tcio_stats = workloads.run_job(job, profiler)
        done.calibrations.append(calibrate())
        speed = NOMINAL_S * 2 / (done.calibrations[-2] + done.calibrations[-1])
        done.wall[job.side] += wall_s
        done.host[job.side] += wall_s * speed
        done.moved_bytes += job.moved_bytes
        done.attempted += 1
        problems = workloads.verify(job, out)
        done.failed += bool(problems)
        done.problems += problems
        layers.add_counts(done.counts, layers.job_counts(job.side, out, tcio_stats))
    if profiler is not None:
        stats = pstats.Stats(profiler)
        done.self_s = layer_map.self_seconds(stats)
        done.entries = layer_map.entries(stats)
    return done


def checker_self_test(jobs) -> list[str]:
    """Feed the oracle known-bad outcomes; return what it failed to catch.

    A clean copy of each expected output must pass, and one flipped byte
    in a file image or a fetch answer, or a job reporting 0 virtual
    seconds, must each count as one failed job.
    """
    from workloads import Outcome, verify

    missed = []
    for job in jobs:
        clean = Outcome(virtual_s=1.0, image=job.expected_image, fetched=dict(job.expected_fetch))
        flipped = bytearray(job.expected_image)
        flipped[len(flipped) // 2] ^= 0x01
        cases = {"clean copy": (clean, 0)}
        cases["flipped file byte"] = (Outcome(virtual_s=1.0, image=bytes(flipped), fetched=clean.fetched), 1)
        cases["zero virtual time"] = (Outcome(virtual_s=0.0, image=clean.image, fetched=clean.fetched), 1)
        if job.expected_fetch:
            seq, answer = next(iter(job.expected_fetch.items()))
            bad = dict(clean.fetched)
            bad[seq] = bytes([answer[0] ^ 0x01]) + answer[1:]
            cases["flipped fetch byte"] = (Outcome(virtual_s=1.0, image=clean.image, fetched=bad), 1)
        for what, (out, want_failed) in cases.items():
            if bool(verify(job, out)) != want_failed:
                missed.append(f"{job.name}: {what}")
    return missed


def differences(first: dict, other: dict) -> list[str]:
    """Names whose values differ between two count dicts."""
    return sorted(name for name in first.keys() | other.keys() if first.get(name) != other.get(name))


def setup_seconds(workload: str) -> list[float]:
    """Spawn-to-ready seconds of fresh interpreters readying *workload*."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as child:
            try:
                line = child.stdout.readline()
                samples.append(time.perf_counter() - t0)
                rest = child.communicate(timeout=SETUP_TIMEOUT_S)[0]
            except BaseException:
                child.kill()
                raise
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line}{rest}")
    return samples


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and the first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def end_to_end(workload: str, passes: list[Pass]) -> tuple[dict, dict]:
    """End-to-end values (medians) and the samples behind each."""
    samples = {
        "host_s": [p.host_s for p in passes],
        "write_host_s": [p.host["write"] for p in passes],
        "read_host_s": [p.host["read"] for p in passes],
        "sim_mib_per_host_s": [p.moved_bytes / MIB / p.host_s for p in passes],
        "setup_s": setup_seconds(workload),
    }
    values = {name: summary(s)[0] for name, s in samples.items()}
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values, samples


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict:
    """Per-layer values from the traced passes and the deterministic counts."""
    import layers

    counts = traced[0].counts
    host_s = summary([p.host_s for p in plain])[0]
    values = {f"{layer}.self_s": summary([p.self_s[layer] for p in traced])[0] for layer in layers.LAYERS}
    values.update(counts)
    values.update(layers.ratios(counts))
    values.update(traced[0].entries)
    values["sim.us_per_event"] = host_s * 1e6 / counts["sim.events"]
    calls = counts["tcio.calls"]
    values["tcio.us_per_call"] = values["tcio.self_s"] * 1e6 / calls if calls else 0.0
    values["trace.overhead_frac"] = summary([p.host_s for p in traced])[0] / host_s - 1
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r} (choose from {workloads.NAMES})", file=sys.stderr)
        return 2
    workloads.setup(args.workload)
    jobs = workloads.jobs(args.workload, args.seed)
    missed = checker_self_test(jobs)
    layer_map = layers.LayerMap(SRC / "repro", HERE)

    warm = run_pass(jobs)
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:  # as many rounds as fit in --seconds, at least one
        plain.append(run_pass(jobs))
        if args.trace:
            traced.append(run_pass(jobs, layer_map))
        rounds = len(plain)
        if (time.perf_counter() - start) * (rounds + 1) / rounds > args.seconds:
            break
    everything = [warm, *plain, *traced]

    drift = sorted({name for p in everything for name in differences(warm.counts, p.counts)})
    drift += sorted({name for p in traced for name in differences(traced[0].entries, p.entries)})
    problems = sorted({problem for p in everything for problem in p.problems})
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)

    if args.trace:
        values, samples = per_layer(plain, traced), {}
    else:
        values, samples = end_to_end(args.workload, plain)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} timed passes, {len(traced)} profiled, after one warm-up pass")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        if name in samples:
            median, q1, q3 = summary(samples[name])
            print(f"  {name:<28} {median:>14.6g} {unit:<9} q1 {q1:.6g} q3 {q3:.6g} n={len(samples[name])}")
        else:
            print(f"  {name:<28} {value:>14.6g} {unit}")
    if not args.trace:
        for what, values_s in (
            ("wall seconds per pass", [p.wall["write"] + p.wall["read"] for p in plain]),
            ("reference loop seconds", [c for p in plain for c in p.calibrations]),
        ):
            median, q1, q3 = summary(values_s)
            print(f"  {what:<28} {median:>14.6g} s         q1 {q1:.6g} q3 {q3:.6g} n={len(values_s)}")
    print(f"  {'failed_frac':<28} {failed / attempted:>14.6g} ratio     ({failed} of {attempted} jobs)")
    for problem in problems:
        print(f"  FAILED {problem}")
    for name in drift:
        print(f"  NONDETERMINISTIC {name}")
    for case in missed:
        print(f"  CHECKER MISSED {case}")
    correct = not (problems or drift or missed)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
