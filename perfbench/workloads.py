"""The benchmark's workloads: their jobs, seeded inputs and byte oracles.

A workload is a fixed list of simulated jobs. Each job is one call into a
public entry point (:func:`repro.bench.run_benchmark` or
:func:`repro.ioserver.run_ioserver`) and is either a ``write`` or a
``read`` job. Inputs and expected outputs are built once per invocation,
outside every timed region; see README.md for why these workloads.

Nothing from ``repro`` is imported at module level: :func:`setup` is what
``setup_probe.py`` times in a fresh interpreter, so each workload pays
only for the modules its own jobs need.
"""

from __future__ import annotations

import contextlib
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

#: (method, P, LEN) of each synthetic configuration, in job order. Every
#: configuration runs the paper's Fig. 2 pattern with Table I's
#: ``TYPEarray=i,d`` and ``SIZEaccess=1``: a write job, then a read job.
SYNTHETIC = {
    "tcio-interleaved": (("tcio", 64, 2048),),
    "romio-baselines": (("ocio", 64, 2048), ("mpiio", 8, 1024)),
}

#: The delegate-server session: clients, ranks, cores per node, epochs.
IOSERVER = {"nclients": 512, "nranks": 12, "cores_per_node": 3, "epochs": 3}

NAMES = (*SYNTHETIC, "ioserver-trace")


@dataclass
class Outcome:
    """What one job produced, in the terms its oracle checks."""

    virtual_s: float = 0.0
    image: bytes = b""
    fetched: dict = field(default_factory=dict)
    runs: list = field(default_factory=list)  # MpiRunResult of each run_mpi
    server: object = None  # the IoServerResult of an ioserver job
    error: str = ""


@dataclass(frozen=True)
class Job:
    """One simulated job: a public entry-point call and its oracle."""

    name: str
    side: str  # "write" or "read"
    moved_bytes: int  # simulated file bytes the job writes or reads
    expected_image: bytes
    expected_fetch: dict
    call: Callable[[], object]
    outcome: Callable[[object, list], Outcome]


def setup(name: str) -> None:
    """Import a workload's entry points and build its cluster presets."""
    if name == "ioserver-trace":
        import repro.ioserver  # noqa: F401
        from repro.experiments.topo_ablation import ablation_cluster

        ablation_cluster(IOSERVER["nranks"], IOSERVER["cores_per_node"]).validate()
    else:
        import repro.bench  # noqa: F401
        from repro.cluster.lonestar import make_lonestar

        for _, nprocs, _ in SYNTHETIC[name]:
            make_lonestar(nranks=nprocs).validate()


def jobs(name: str, seed: int) -> list[Job]:
    """The workload's jobs, with inputs and oracles derived from *seed*.

    The synthetic workloads are the paper's Fig. 2 pattern, which Table I's
    parameters fix completely, so only the ioserver trace depends on the
    seed.
    """
    if name == "ioserver-trace":
        return _ioserver_jobs(seed)
    return [job for spec in SYNTHETIC[name] for job in _synthetic_jobs(*spec)]


def _synthetic_jobs(method: str, nprocs: int, len_array: int) -> list[Job]:
    from repro.bench import BenchConfig, Method, reference_file_contents, run_benchmark

    cfg = BenchConfig(
        method=Method.parse(method),
        num_arrays=2,
        type_codes="i,d",
        len_array=len_array,
        size_access=1,
        nprocs=nprocs,
    )
    reference = reference_file_contents(cfg)

    def outcome(result, runs) -> Outcome:
        out = Outcome(runs=runs)
        if result.failed:
            out.error = result.fail_reason
            return out
        out.virtual_s = result.write_seconds if result.write_seconds is not None else result.read_seconds
        # The read job never changes the file, so both sides leave the
        # reference behind; the read job's arrays are checked rank-side by
        # run_benchmark(verify=True), which raises on a wrong byte.
        out.image = runs[-1].pfs.lookup(cfg.file_name).contents()
        return out

    def job(side: str) -> Job:
        return Job(
            name=f"{method}-{side}",
            side=side,
            moved_bytes=cfg.total_bytes,
            expected_image=reference,
            expected_fetch={},
            call=lambda: run_benchmark(cfg, do_read=side == "read", do_write=side == "write"),
            outcome=outcome,
        )

    return [job("write"), job("read")]


def _ioserver_jobs(seed: int) -> list[Job]:
    from repro.ioserver import expected_image, generate_trace, run_ioserver

    def job(side: str, reads_per_client: int) -> Job:
        trace = generate_trace(
            seed, IOSERVER["nclients"], epochs=IOSERVER["epochs"],
            reads_per_client=reads_per_client,
        )
        image = expected_image(trace)
        fetches = {
            op.seq: image[op.offset : op.offset + op.nbytes].ljust(op.nbytes, b"\0")
            for op in trace.ops
            if op.op == "fetch"
        }
        return Job(
            name=f"ioserver-{side}",
            side=side,
            moved_bytes=trace.written_bytes + sum(op.nbytes for op in trace.ops if op.op == "fetch"),
            expected_image=image,
            expected_fetch=fetches,
            call=lambda: run_ioserver(
                trace, nranks=IOSERVER["nranks"], cores_per_node=IOSERVER["cores_per_node"]
            ),
            outcome=_server_outcome,
        )

    # run_ioserver cannot start from a populated file, so the read job
    # replays the same seeded write phase and then reads: the write job is
    # that session without its read phase.
    return [job("write", 0), job("read", 2)]


def _server_outcome(result, runs) -> Outcome:
    out = Outcome(runs=[result.mpi], server=result, virtual_s=result.elapsed)
    if result.aborted is not None:
        out.error = f"aborted: {result.aborted!r}"
        return out
    out.image = result.image
    out.fetched = result.fetched
    return out


def verify(job: Job, out: Outcome) -> list[str]:
    """Every way *out* differs from what *job* must produce (empty: ok)."""
    if out.error:
        return [f"{job.name}: {out.error}"]
    problems = []
    if not out.virtual_s > 0:
        problems.append(f"{job.name}: reports {out.virtual_s!r} virtual seconds")
    diff = first_difference(out.image, job.expected_image)
    if diff is not None:
        problems.append(
            f"{job.name}: file differs from the oracle at byte {diff} "
            f"({len(out.image)} bytes vs {len(job.expected_image)})"
        )
    for seq, want in job.expected_fetch.items():
        got = out.fetched.get(seq)
        if got != want:
            problems.append(f"{job.name}: fetch {seq} returned wrong bytes")
    return problems


def first_difference(got: bytes, want: bytes) -> Optional[int]:
    """Offset of the first differing byte, or None when equal."""
    if got == want:
        return None
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return i
    return min(len(got), len(want))


def run_job(job: Job, profiler=None) -> tuple[float, Outcome, list[dict]]:
    """Run *job*; return its host seconds, outcome and TCIO handle stats.

    Host time covers only the entry-point call. A job that raises counts
    as failed instead of ending the benchmark.
    """
    with _capture() as captured:
        t0 = perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            result = job.call()
        except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
            traceback.print_exc()
            result = exc
        finally:
            if profiler is not None:
                profiler.disable()
        host_s = perf_counter() - t0
    if isinstance(result, Exception):
        out = Outcome(runs=captured.runs, error=f"{type(result).__name__}: {result}")
    else:
        out = job.outcome(result, captured.runs)
    return host_s, out, [fh.stats.as_dict() for fh in captured.tcio_handles]


@dataclass
class _Captured:
    runs: list = field(default_factory=list)
    tcio_handles: list = field(default_factory=list)


@contextlib.contextmanager
def _capture():
    """Keep each job's ``MpiRunResult`` and TCIO handles for the counts.

    ``run_benchmark`` returns neither, so the benchmark wraps the
    ``run_mpi`` it calls and ``TcioFile.open``: one extra call per job
    and per open, nothing on the I/O paths themselves.
    """
    import repro.bench.synthetic as synthetic
    from repro.tcio import TcioFile

    captured = _Captured()
    run_mpi = synthetic.run_mpi
    tcio_open = TcioFile.__dict__["open"]

    def keep_run(*args, **kwargs):
        run = run_mpi(*args, **kwargs)
        captured.runs.append(run)
        return run

    def keep_handle(cls, *args, **kwargs):
        fh = yield from tcio_open.__func__(cls, *args, **kwargs)
        captured.tcio_handles.append(fh)
        return fh

    synthetic.run_mpi = keep_run
    TcioFile.open = classmethod(keep_handle)
    try:
        yield captured
    finally:
        synthetic.run_mpi = run_mpi
        TcioFile.open = tcio_open
