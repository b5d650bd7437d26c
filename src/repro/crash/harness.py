"""The crash-differential harness: kill a rank at every protocol step.

One *cell* runs a workload, crashes one victim rank at a chosen protocol
step (:func:`aim`), and judges the outcome against an oracle image
(:func:`check_cell`). :data:`COLUMNS` is the matrix — five rows of
(workload, journal label, expectation, steps), all run by
:func:`run_cell` / :func:`run_matrix`:

* ``crash`` / ``server-crash`` — abort+recover: the job aborts,
  :func:`~repro.crash.recover.recover` replays the committed journals,
  and the file must equal the oracle truncated to the last committed
  epoch (the prior epoch for a crash before the final commit mark, the
  full image after it) with nothing flagged ``faults.data_at_risk``;
* ``journal-off`` — the same crash without a journal loses deposited
  bytes, and fsck (fed the aborted run's in-memory directory as a
  :class:`~repro.crash.fsck.CrashContext`) must detect them;
* ``survive`` — ``TcioConfig.ft`` on: the job completes with the victim
  dead, only the victim's uncommitted phase-2 region may read zero
  (its level-1-only data is legitimately lost), and a ``post-commit``
  crash loses nothing;
* ``server-survive`` — ``IoServerConfig.failover`` on: the job
  completes and client-side replay loses nothing.

The ``tcio`` workload is a two-phase TCIO job (phase 1 writes a low
region, ``tcio_flush`` commits epoch 1, phase 2 writes a disjoint higher
region, ``tcio_close`` commits epoch 2) checked against a crash-free
reference run; ``server`` is a delegate I/O-server session over a dense
write-only trace, checked against the analytic
:func:`~repro.ioserver.trace.expected_image`. Every cell also demands
that exactly the victim died and, bar ``journal-off``, a *clean* fsck
(zero torn, zero untracked bytes).

Crashes are aimed deterministically: a crash-free *counting run* with an
idle :class:`~repro.faults.plan.FaultPlan` tallies how often the victim
reaches each step (``plan.step_hits``), and the armed run sets
``crash_after`` to that count — the last occurrence, which falls in the
final epoch. Same seed + same spec → same crash, every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.crash.fsck import CrashContext, FsckReport, fsck
from repro.crash.recover import RecoveryReport, recover

#: Every protocol step a crash point guards, in protocol order. The first
#: two bracket the level-1 deposit (they fire in any journal mode); the
#: last three exist only inside the epoched flush protocol.
STEPS = ("pre-deposit", "post-deposit", "mid-flush", "pre-commit", "post-commit")

#: Steps recovery discards phase 2 for (the crash lands before the
#: epoch-2 commit mark is durable).
ROLLBACK_STEPS = ("pre-deposit", "post-deposit", "mid-flush", "pre-commit")

#: Server-mode protocol steps a delegate can die at: the service-loop
#: steps plus the journaled commit bracket that fires inside the
#: delegate's own TCIO flush. (``srv-close`` fires after the last epoch
#: committed, so like ``post-commit`` it must recover the full image.)
SERVER_STEPS = (
    "srv-admit", "srv-apply", "srv-flush", "pre-commit",
    "post-commit", "srv-close",
)

#: Server-mode steps whose last occurrence lands before the final
#: epoch's commit mark — recovery must roll back to the prior epoch.
SERVER_ROLLBACK_STEPS = ("srv-admit", "srv-apply", "srv-flush", "pre-commit")

SEGMENT = 64  # small segments: every rank owns several, deposits go remote
PER_RANK = 96  # per-rank bytes per phase; crosses a segment boundary

#: Default (ranks, cores per node) of each workload.
_SHAPES = {"tcio": (4, 2), "server": (6, 3)}

#: The run counters :func:`check_cell` reads.
COUNTERS = (
    "faults.data_at_risk", "tcio.ft.survives",
    "ioserver.failover.redirects", "ioserver.failover.replayed_bytes",
)


@dataclass(frozen=True)
class Column:
    """One column of the crash matrix (see module doc).

    *journal* is the :attr:`CrashCell.journal` label — ``"+ft"`` arms
    ``TcioConfig.ft`` / ``IoServerConfig.failover``; *expect* is
    ``"recover"``, ``"detect"`` or ``"survive"``; *modes* are the
    aggregation labels :func:`run_matrix` sweeps.
    """

    workload: str
    journal: str
    expect: str
    steps: tuple[str, ...]
    modes: tuple[str, ...] = ("flat",)


COLUMNS = {
    "crash": Column("tcio", "epoch", "recover", STEPS, ("flat", "node")),
    # post-deposit: the only close-time step that exists unjournaled
    "journal-off": Column("tcio", "off", "detect", ("post-deposit",)),
    "survive": Column("tcio", "epoch+ft", "survive", STEPS),
    "server-crash": Column("server", "epoch", "recover", SERVER_STEPS, ("server",)),
    "server-survive": Column("server", "epoch+ft", "survive", SERVER_STEPS, ("server",)),
}


def _pattern(rank: int, phase: int, n: int) -> bytes:
    """Deterministic, rank/phase-distinct payload bytes."""
    start = (rank * 31 + phase * 101) % 251
    return bytes((start + i) % 251 + 1 for i in range(n))


def _make_config(nranks: int, journal: str, aggregation: str):
    from repro.tcio import TcioConfig

    total = 2 * nranks * PER_RANK
    base = TcioConfig.sized_for(total, nranks, SEGMENT)
    return replace(base, journal=journal, aggregation=aggregation)


def _run(name, config, nranks, cores_per_node, faults=None):
    """One run of the two-phase tcio workload (see module doc)."""
    from repro.experiments.topo_ablation import ablation_cluster
    from repro.simmpi import run_mpi
    from repro.tcio import TCIO_WRONLY, tcio_close, tcio_flush, tcio_open, tcio_write_at

    def main(env):
        fh = yield from tcio_open(env, name, TCIO_WRONLY, config)
        yield from tcio_write_at(fh, env.rank * PER_RANK, _pattern(env.rank, 1, PER_RANK))
        yield from tcio_flush(fh)  # epoch 1: phase-1 region durable
        base = env.size * PER_RANK
        yield from tcio_write_at(
            fh, base + env.rank * PER_RANK, _pattern(env.rank, 2, PER_RANK)
        )
        yield from tcio_close(fh)  # epoch 2: phase-2 region durable

    cluster = ablation_cluster(nranks, cores_per_node)
    return run_mpi(nranks, main, cluster=cluster, faults=faults)


def crash_free_reference(
    *, aggregation: str = "flat", nranks: int = 4, cores_per_node: int = 2
) -> bytes:
    """The full crash-free file image (journaled run, same workload)."""
    config = _make_config(nranks, "epoch", aggregation)
    result = _run("ref.dat", config, nranks, cores_per_node)
    if result.aborted is not None:
        raise RuntimeError(f"reference run aborted: {result.aborted}")
    return result.pfs.lookup("ref.dat").contents()


def server_trace(seed: int, nclients: int):
    """The server workload's trace.

    Writes only (a read phase would push the last srv-* hits past every
    commit, degenerating the rollback cells) and dense (fsck cannot tell
    a sparse hole from an untracked byte).
    """
    from repro.ioserver import generate_trace

    return generate_trace(
        seed, nclients, epochs=2, writes_per_epoch=3,
        reads_per_client=0, dense=True,
    )


@dataclass
class CrashCell:
    """One (step, aggregation mode) differential result."""

    step: str
    aggregation: str
    journal: str
    ok: bool
    detail: str
    crash_after: int
    aborted: bool
    recovery: Optional[RecoveryReport] = None
    fsck: Optional[FsckReport] = None

    def summary(self) -> str:
        state = "ok" if self.ok else "FAIL"
        return (
            f"crash@{self.step:<12} {self.aggregation:<4} "
            f"journal={self.journal}: {state} — {self.detail}"
        )


@dataclass
class CrashMatrixResult:
    """All cells of one campaign."""

    nranks: int
    seed: int
    cells: list[CrashCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def render(self) -> str:
        lines = [f"crash matrix: {self.nranks} ranks, seed {self.seed}"]
        lines += ["  " + cell.summary() for cell in self.cells]
        lines.append(f"  => {'all clean' if self.ok else 'FAILURES'}")
        return "\n".join(lines)


@dataclass
class Shot:
    """One aimed crash: the counting run's tally and the armed run."""

    victim: int
    name: str  # the file the armed run writes
    hits: int  # how often the victim reached the step, crash-free
    nranks: int
    cores_per_node: int
    trace: object = None  # the server workload's trace
    #: The armed run (``None`` when ``hits == 0``): ``MpiRunResult`` for
    #: tcio, ``IoServerResult`` for server; ``mpi`` is the former either way.
    result: object = None
    mpi: object = None


def _shape(col: Column, nranks, cores_per_node) -> tuple[int, int]:
    ranks, cores = _SHAPES[col.workload]
    nranks = ranks if nranks is None else nranks
    return nranks, cores if cores_per_node is None else cores_per_node


def aim(
    column: str, step: str, *, aggregation: str = "flat",
    nranks: Optional[int] = None, cores_per_node: Optional[int] = None,
    nclients: int = 6, seed: int = 7, victim: Optional[int] = None, trace=None,
) -> Shot:
    """Counting run, then the armed run crashing *victim* at *step*.

    Shapes default per workload: tcio 4 ranks × 2 cores, victim 1;
    server *nclients* over 6 ranks × 3 cores, victim the last delegate
    (``ValueError`` for a rank that is not a delegate).
    """
    from repro.faults import FaultPlan, FaultSpec

    col = COLUMNS[column]
    nranks, cores = _shape(col, nranks, cores_per_node)
    survive = col.expect == "survive"
    if col.workload == "tcio":
        journal = col.journal.removesuffix("+ft")
        config = replace(_make_config(nranks, journal, aggregation), ft=survive)
        victim = 1 if victim is None else victim
        name, count_name = ("survive.dat" if survive else "crash.dat"), "count.dat"

        def run(fname, faults):
            return _run(fname, config, nranks, cores, faults=faults)

    else:
        from repro.ioserver import IoServerConfig, plan_for, run_ioserver

        trace = server_trace(seed, nclients) if trace is None else trace
        config = IoServerConfig(failover=survive)
        delegates = plan_for(trace, nranks, cores, config).delegates
        victim = delegates[-1] if victim is None else victim
        if victim not in delegates:
            raise ValueError(f"victim rank {victim} is not a delegate")
        name = count_name = trace.file_name

        def run(fname, faults):  # the trace names the file
            return run_ioserver(
                trace, nranks=nranks, cores_per_node=cores,
                config=config, faults=faults,
            )

    plan = FaultPlan(FaultSpec(), seed, scope="crash-count")
    run(count_name, plan)
    shot = Shot(victim, name, plan.step_hits[(step, victim)], nranks, cores, trace)
    if shot.hits:
        spec = FaultSpec(crash_rank=victim, crash_step=step, crash_after=shot.hits)
        shot.result = run(name, FaultPlan(spec, seed, scope="crash"))
        shot.mpi = shot.result.mpi if col.workload == "server" else shot.result
    return shot


def check_cell(
    column: str, *, image: bytes, oracle: Optional[bytes], fsck: FsckReport,
    counters: dict, aborted, dead, victim: int, loss=(0, 0),
    recovery: Optional[RecoveryReport] = None,
) -> tuple[bool, str]:
    """``(ok, detail)``: does one run's evidence meet *column*'s expectation?

    A pure function of the file *image*, the *oracle* image, the allowed
    *loss* window ``[lo, hi)`` (bytes there may read zero), the *fsck*
    report, the *counters* (names from :data:`COUNTERS`, absent = 0), the
    run's *aborted* cause and *dead* set; *recovery* feeds the detail.
    """
    col = COLUMNS[column]
    survive = col.expect == "survive"
    if survive and aborted is not None:
        return False, f"fault-tolerant run aborted anyway: {aborted}"
    if not survive and aborted is None:
        return False, "job did not abort"
    if set(dead) != {victim}:
        return False, f"unexpected dead set {sorted(dead)}"
    if col.expect == "detect":
        if fsck.lost_bytes > 0:
            return True, f"{fsck.lost_bytes}b lost detected (no journal to recover from)"
        return False, "expected lost bytes, fsck found none"
    lo, hi = loss
    bad = next(
        (
            i for i, (got, want) in enumerate(zip(image, oracle))
            if got != want and not (lo <= i < hi and got == 0)
        ),
        None if len(image) == len(oracle) else min(len(image), len(oracle)),
    )
    if bad is not None:
        return False, (
            f"image diverges at byte {bad} ({len(image)}b vs {len(oracle)}b expected)"
        )
    if not fsck.clean:
        return False, fsck.summary()
    count = {name: int(counters.get(name, 0)) for name in COUNTERS}
    if not survive:
        if count["faults.data_at_risk"]:
            return False, (
                f"{count['faults.data_at_risk']}b flagged data_at_risk "
                f"in a journaled crash"
            )
        return True, (
            f"epoch {recovery.committed_epoch} recovered, "
            f"{recovery.replayed_bytes}b replayed, "
            f"{recovery.skipped_uncommitted} uncommitted + "
            f"{recovery.torn_records} torn discarded, fsck clean"
        )
    survives = count["tcio.ft.survives"]
    if survives < 1:
        return False, "run completed but no survive round was recorded"
    if col.workload == "server":
        return True, (
            f"completed degraded ({survives} survive round(s), "
            f"{count['ioserver.failover.redirects']} redirect(s), "
            f"{count['ioserver.failover.replayed_bytes']}b replayed by clients), "
            f"image exact, fsck clean"
        )
    return True, (
        f"completed degraded ({survives} survive round(s)), "
        f"{image[lo:hi].count(0)}b of the victim's uncommitted data lost, "
        f"fsck clean"
    )


def run_cell(
    column: str, step: str, *, aggregation: Optional[str] = None,
    reference: Optional[bytes] = None, **shape,
) -> CrashCell:
    """Aim, run and check one cell of *column* (see module doc).

    *aggregation* defaults to the column's first mode; *reference* is the
    tcio oracle (a crash-free run when omitted); *shape* goes to :func:`aim`.
    """
    col = COLUMNS[column]
    mode = aggregation or col.modes[0]
    shot = aim(column, step, aggregation=mode, **shape)
    if not shot.hits:
        who = "delegate" if col.workload == "server" else "rank"
        return CrashCell(
            step, mode, col.journal, False,
            f"{who} {shot.victim} never reaches step", 0, False,
        )
    mpi, name = shot.mpi, shot.name
    recovery = None
    if col.expect == "recover" and mpi.aborted is not None:
        recovery = recover(mpi.pfs, name)
    report = fsck(mpi.pfs, name, context=CrashContext.from_world(mpi.world, name))
    rollback = col.expect == "recover" and step in ROLLBACK_STEPS + SERVER_ROLLBACK_STEPS
    oracle, loss = None, (0, 0)
    if col.workload == "server":
        from repro.ioserver import expected_image

        epochs = shot.trace.epochs - 1 if rollback else None
        oracle = expected_image(shot.trace, epochs=epochs)
    elif col.expect != "detect":
        if reference is None:
            reference = crash_free_reference(
                aggregation=mode, nranks=shot.nranks,
                cores_per_node=shot.cores_per_node,
            )
        base = shot.nranks * PER_RANK
        oracle = reference[:base] if rollback else reference
        if col.expect == "survive" and step != "post-commit":
            loss = (base + shot.victim * PER_RANK, base + (shot.victim + 1) * PER_RANK)
    ok, detail = check_cell(
        column, image=mpi.pfs.lookup(name).contents(), oracle=oracle,
        fsck=report, counters={key: mpi.trace.get(key).total for key in COUNTERS},
        loss=loss, aborted=mpi.aborted, dead=mpi.dead_ranks,
        victim=shot.victim, recovery=recovery,
    )
    return CrashCell(
        step, mode, col.journal, ok, detail, shot.hits,
        mpi.aborted is not None, recovery=recovery, fsck=report,
    )


def run_matrix(
    column: str, *, steps: Optional[tuple[str, ...]] = None,
    nranks: Optional[int] = None, cores_per_node: Optional[int] = None,
    nclients: int = 6, seed: int = 7, victim: Optional[int] = None,
) -> CrashMatrixResult:
    """*steps* (default: all of *column*'s) × every mode of *column*; the
    cells share one tcio reference per mode, or one server trace."""
    col = COLUMNS[column]
    nranks, cores = _shape(col, nranks, cores_per_node)
    trace = server_trace(seed, nclients) if col.workload == "server" else None
    out = CrashMatrixResult(nranks=nranks, seed=seed)
    for mode in col.modes:
        reference = None
        if col.workload == "tcio" and col.expect != "detect":
            reference = crash_free_reference(
                aggregation=mode, nranks=nranks, cores_per_node=cores
            )
        out.cells += [
            run_cell(
                column, step, aggregation=mode, reference=reference,
                nranks=nranks, cores_per_node=cores, nclients=nclients,
                seed=seed, victim=victim, trace=trace,
            )
            for step in steps or col.steps
        ]
    return out
