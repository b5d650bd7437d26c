"""EXPERIMENTS.md generation: paper-vs-measured for every table and figure.

``python -m repro.experiments.report`` regenerates the full campaign (or a
smoke campaign with ``--smoke``) and writes EXPERIMENTS.md at the repo root.

The body is assembled from independent *section builders* (one per table
or figure), each a pure function of (scale, runner) returning its markdown
block. :func:`generate_report` stitches them together; the campaign
platform (:mod:`repro.campaign.report`) calls the same builders with a
store-backed runner to regenerate individual sections byte-identically
from stored results.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.cluster.lonestar import LONESTAR_SCALE, LONESTAR_STRIPE_SCALE
from repro.experiments.common import FULL, SMOKE, ExperimentScale
from repro.experiments.fig5_scaling import run_fig5
from repro.experiments.fig6_7_filesize import run_fig6_7
from repro.experiments.fig9_10_art import run_fig9_10
from repro.experiments.programs_loc import program_listings
from repro.experiments.table3_comparison import build_table3, table3_shape_holds


def _check(label: str, ok: bool) -> str:
    return f"* {'PASS' if ok else 'FAIL'}: {label}"


# ----------------------------------------------------------------------
# section builders (pure: same scale + same point results -> same bytes)
# ----------------------------------------------------------------------


def header_section(scale: ExperimentScale, *, verbose: bool = False,
                   runner=None) -> str:
    """The report preamble: contract, preset, campaign scale."""
    return (
        "# EXPERIMENTS — paper vs. measured\n\n"
        "All runs execute on the calibrated scaled Lonestar preset "
        f"(data scale 1/{LONESTAR_SCALE}, stripe scale 1/{LONESTAR_STRIPE_SCALE}; "
        "see DESIGN.md and `repro/cluster/lonestar.py`). Throughputs are "
        "simulated-time MB/s of the scaled system; per the reproduction "
        "contract, the *shape* (who wins, crossovers, failure points) is "
        "the target, not absolute magnitudes.\n\n"
        f"Campaign scale: `{scale.name}` "
        f"(procs {list(scale.proc_counts)}, LEN {scale.len_array}, "
        f"ART segments {scale.art_segments})."
    )


def table3_section(scale: ExperimentScale, *, verbose: bool = False,
                   runner=None) -> str:
    """Programs 2/3 + Table III (static analysis; no simulation points)."""
    _sources, metrics, effort_summary = program_listings()
    rows, table3 = build_table3()
    from repro.bench.config import Method

    checks = [
        _check(
            "TCIO listing needs no combine buffer / datatypes / file view",
            metrics[Method.TCIO].burden_count == 0,
        ),
        _check(
            "OCIO listing carries all three burdens",
            metrics[Method.OCIO].burden_count == 3,
        ),
        _check("Table III qualitative rows hold", table3_shape_holds(rows)),
    ]
    return (
        "## Programs 2 & 3 and Table III (programming effort)\n\n"
        "Paper: OCIO requires an application-level combine buffer, derived "
        "datatypes and a file view; TCIO is plain positional I/O with far "
        "fewer lines.\n\n"
        f"Measured:\n\n```\n{effort_summary}\n\n{table3}\n```\n\n"
        + "\n".join(checks)
    )


def fig5_section(scale: ExperimentScale, *, verbose: bool = False,
                 runner=None) -> str:
    """Figure 5: synthetic-benchmark throughput vs process count."""
    fig5 = run_fig5(scale, verbose=verbose, runner=runner)
    checks = [
        _check(
            "write: OCIO >= TCIO at small scale, TCIO wins at large scale "
            "(paper: crossover between 256 and 512)",
            fig5.write_crossover_holds(
                small_max=sorted(scale.proc_counts)[len(scale.proc_counts) // 2 - 1],
                large_min=sorted(scale.proc_counts)[-2],
            ),
        ),
        _check("read: TCIO beats OCIO at every scale", fig5.read_tcio_always_wins()),
        _check("read: the TCIO/OCIO gap widens with scale", fig5.read_gap_widens()),
    ]
    return (
        "## Figure 5 (synthetic benchmark, throughput vs processes)\n\n"
        "Paper: OCIO writes faster at <=256 procs, TCIO overtakes at >=512; "
        "TCIO reads faster everywhere with a widening gap.\n\n"
        f"```\n{fig5.render()}\n```\n\n" + "\n".join(checks)
    )


def fig67_section(scale: ExperimentScale, *, verbose: bool = False,
                  runner=None) -> str:
    """Figures 6 & 7: throughput vs file size, the 48 GB OOM point."""
    fig67 = run_fig6_7(scale, verbose=verbose, runner=runner)
    checks = [
        _check(
            "OCIO fails only at the largest (48 GB-equivalent) dataset",
            fig67.ocio_oom_at_largest_only(),
        ),
        _check("the OCIO failure is an out-of-memory", fig67.ocio_fails_from_memory()),
        _check("TCIO completes every dataset size", fig67.tcio_completes_everywhere()),
    ]
    return (
        "## Figures 6 & 7 (throughput vs file size; the 48 GB OOM)\n\n"
        "Paper: at the 48 GB dataset OCIO cannot allocate its combine +\n"
        "two-phase buffers within the 24 GB nodes and the benchmark fails;\n"
        "TCIO completes (level-1 buffer is one segment; level-2 equals the\n"
        "two-phase temporary buffer).\n\n"
        f"```\n{fig67.render()}\n```\n\n" + "\n".join(checks)
    )


def fig910_section(scale: ExperimentScale, *, verbose: bool = False,
                   runner=None) -> str:
    """Figures 9 & 10: the ART application dump/restart comparison."""
    fig910 = run_fig9_10(scale, verbose=verbose, runner=runner)
    speedups_w = [s for s in fig910.tcio_speedup("dump") if s is not None]
    speedups_r = [s for s in fig910.tcio_speedup("restart") if s is not None]
    checks = [
        _check("TCIO faster than vanilla MPI-IO at every scale", fig910.tcio_always_faster()),
        _check(
            f"order-of-magnitude speedups (max write {max(speedups_w or [0]):.0f}x, "
            f"max read {max(speedups_r or [0]):.0f}x; paper: up to ~100x)",
            max(speedups_w + speedups_r, default=0) >= 10,
        ),
        _check(
            "vanilla MPI-IO exceeds the 90-minute cap at the largest scales",
            any(fig910.capped["MPI-IO"]),
        ),
        _check(
            "TCIO throughput rises then dips (strong scaling, centralized FS)",
            fig910.tcio_rises_then_dips("dump"),
        ),
    ]
    return (
        "## Figures 9 & 10 (ART cosmology application)\n\n"
        "Paper: TCIO up to ~100x faster than vanilla MPI-IO; MPI-IO runs\n"
        "exceed 90 minutes at >=512 procs (curves truncated); TCIO rises\n"
        "then dips as the centralized file system saturates.\n\n"
        f"```\n{fig910.render()}\n```\n\n" + "\n".join(checks)
    )


#: Report sections in document order. Every builder has the same shape —
#: ``builder(scale, verbose=..., runner=...) -> str`` — so the campaign
#: platform can regenerate any one of them from a store-backed runner.
SECTION_BUILDERS: dict[str, object] = {
    "header": header_section,
    "table3": table3_section,
    "fig5": fig5_section,
    "fig67": fig67_section,
    "fig910": fig910_section,
}


def build_section(name: str, scale: ExperimentScale, *,
                  verbose: bool = False, runner=None) -> str:
    """One named section's markdown block (see :data:`SECTION_BUILDERS`)."""
    try:
        builder = SECTION_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown section {name!r} (choose from {list(SECTION_BUILDERS)})"
        ) from None
    return builder(scale, verbose=verbose, runner=runner)  # type: ignore[operator]


def generate_report(
    scale: ExperimentScale = FULL,
    *,
    verbose: bool = True,
    runner=None,
) -> str:
    """Run the whole campaign; returns the EXPERIMENTS.md body.

    *runner* (default: serial in-process) executes every figure's point
    grid; pass a :class:`repro.perf.campaign.CampaignRunner` to fan the
    points across a process pool and reuse stored results — the output
    is byte-identical either way (simulated time does not depend on host
    execution order).
    """
    t_start = time.time()
    sections = [
        build_section(name, scale, verbose=verbose, runner=runner)
        for name in SECTION_BUILDERS
    ]

    footer = (
        f"---\n\nCampaign wall-clock: {time.time() - t_start:.0f} s "
        f"(simulation host time)."
    )
    jobs = getattr(runner, "jobs", None)
    store = getattr(runner, "store", None)
    if jobs is not None:
        footer += f" Runner: {jobs} worker process(es)"
        if store is not None:
            footer += f"; cache {runner.hits} hit(s), {runner.misses} miss(es)"
        footer += "."
        if store is not None:
            footer += (
                " A warm-cache rerun regenerates this file in under a"
                " second."
            )
    sections.append(footer)
    return "\n\n".join(sections) + "\n"


def main(argv: list[str] | None = None) -> int:
    """CLI for the report generator; returns an exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="run the tiny campaign")
    parser.add_argument(
        "--output", default="EXPERIMENTS.md", help="path to write the report"
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan points across N worker processes (default: serial; "
        "0 = one worker per CPU)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store serving and recording points (default: "
        ".repro-store when --jobs is given; none otherwise)",
    )
    args = parser.parse_args(argv)
    scale = SMOKE if args.smoke else FULL
    runner = None
    if args.jobs is not None or args.store is not None:
        from repro.campaign.store import CampaignStore
        from repro.perf.campaign import CampaignRunner

        jobs = None if args.jobs in (None, 0) else args.jobs
        runner = CampaignRunner(
            jobs, store=CampaignStore(args.store), verbose=True
        )
    body = generate_report(scale, runner=runner)
    Path(args.output).write_text(body)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
