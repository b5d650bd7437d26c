"""The MPI world: wiring ranks, fabric, memory, storage, and delivery.

:func:`run_mpi` is the single entry point every experiment and test uses:
it builds an engine + fabric + memory tracker + parallel file system from a
cluster description, spawns one simulated process per rank running the user
function, runs to completion, and returns timings/traces/results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, TYPE_CHECKING

from repro.memsim.memory import MemoryTracker
from repro.netsim.fabric import Fabric
from repro.netsim.model import NetworkSpec
from repro.sim.api import SimContext, run_coroutine
from repro.sim.engine import Engine, ProcessCrashed
from repro.sim.trace import TraceRecorder
from repro.simmpi.comm import Communicator, Mailbox, Request, Status, _Envelope
from repro.simmpi.rma import _TargetLock
from repro.util.errors import DeadlockError, MpiError, RankUnreachable, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.spec import ClusterSpec
    from repro.pfs.filesystem import Pfs


class MpiWorld:
    """Global state shared by all ranks of one simulated job."""

    def __init__(
        self,
        engine: Engine,
        nranks: int,
        network: NetworkSpec,
        node_of: Sequence[int],
        memory: MemoryTracker,
        pfs: "Optional[Pfs]" = None,
        trace: Optional[TraceRecorder] = None,
        faults=None,
        fabric=None,
        job: Optional[str] = None,
    ):
        if nranks < 1:
            raise MpiError("need at least one rank")
        self.engine = engine
        self.nranks = nranks
        self.node_of = list(node_of)
        if len(self.node_of) != nranks:
            raise MpiError("node_of must have one entry per rank")
        self.trace = trace
        self.faults = faults  # optional bound FaultPlan
        #: An injected fabric (or fabric view — tenancy jobs share one
        #: physical fabric through per-job rank-offset views); by default
        #: each world owns its interconnect, as before.
        self.fabric = (
            fabric
            if fabric is not None
            else Fabric(engine, network, self.node_of, trace, faults)
        )
        self.memory = memory
        self.pfs = pfs
        #: Job label for multi-tenant runs (``None`` for classic solo runs).
        #: Surfaces in fault alarms and error attribution so operators can
        #: tell whose data is at risk when several jobs share one PFS.
        self.job = job
        #: This world's rank processes in rank order, registered at spawn
        #: time. With several concurrent worlds on one engine, world rank r
        #: is NOT ``engine.processes[r]`` — crash handling must only ever
        #: touch this world's own processes.
        self.procs: list = []
        self._mailboxes = [Mailbox() for _ in range(nranks)]
        self._matcher_busy = [0.0] * nranks  # per-rank matching engines
        #: Scratch registry for user-level libraries (TCIO) to share
        #: collectively-created metadata objects across ranks. Keys are
        #: library-chosen tuples; creation must happen inside a collective
        #: (all ranks reach the same setdefault in the same order).
        self.shared: dict = {}
        #: Ranks lost to fail-stop crashes. Communication entry points check
        #: membership and raise :class:`RankUnreachable` instead of parking
        #: a process on a wait that can never complete.
        self.dead_ranks: set[int] = set()
        #: Communicator ids revoked via :meth:`Communicator.revoke` (ULFM
        #: ``MPI_Comm_revoke``): communication entry on a revoked id raises
        #: :class:`CommRevoked` so survivors bail out and shrink instead of
        #: parking in a collective the dead can never join.
        self.revoked: set = set()
        self._comm_counter = 0
        self._windows: dict[tuple[int, int], memoryview] = {}
        self._window_locks: dict[tuple[int, int], _TargetLock] = {}
        self._windows_per_rank = [0] * nranks

    # ------------------------------------------------------------------
    # communicators and mailboxes
    # ------------------------------------------------------------------
    def next_comm_id(self) -> int:
        """Allocate a fresh world-level communicator id."""
        self._comm_counter += 1
        return self._comm_counter

    def world_comm(self, rank: int) -> Communicator:
        """The world communicator as seen from *rank*."""
        return Communicator(self, rank, comm_id=0)

    def mailbox(self, rank: int) -> Mailbox:
        """The matching state of one rank."""
        return self._mailboxes[rank]

    # ------------------------------------------------------------------
    # message delivery (called from engine callbacks)
    # ------------------------------------------------------------------
    def arrive(self, dst: int, env: _Envelope) -> None:
        """A message reached *dst*'s NIC: serialize through the rank's
        matching engine before it becomes visible to receives.

        Matching is CPU work proportional to the posted/unexpected queue
        depth, so P simultaneous arrivals at one rank cost O(P^2) total —
        one-sided RMA traffic never passes through here.
        """
        spec = self.fabric.spec
        cost = spec.match_overhead + spec.match_queue_overhead * self._mailboxes[dst].queue_pressure
        if cost <= 0.0:
            self.deliver(dst, env)
            return
        now = self.engine.now
        start = now if now > self._matcher_busy[dst] else self._matcher_busy[dst]
        finish = start + cost
        self._matcher_busy[dst] = finish
        if self.trace is not None:
            self.trace.count("mpi.match_delay", finish - now)
        self.engine.schedule_at(finish, lambda: self.deliver(dst, env))

    def deliver(self, dst: int, env: _Envelope) -> None:
        """A message (or rendezvous RTS) reached *dst*: match or queue it."""
        env.arrived = True
        mailbox = self._mailboxes[dst]
        post = mailbox.match_posted(env)
        if post is not None:
            env.consumed = True
            self.consume(dst, env, post.req)
            return
        mailbox.add_unexpected(env)

    def consume(self, dst: int, env: _Envelope, req: Request) -> None:
        """A matched (message, receive) pair: finish it (maybe rendezvous)."""
        req.status = Status(source=env.src, tag=env.tag, count=env.size)
        if env.payload is not None:
            req._complete(env.payload)
            return
        # Rendezvous: send clear-to-send back, then stream the data.
        data: bytes = env._rendezvous_data  # type: ignore[attr-defined]
        t_cts = self.fabric.control_delay(dst, env.src)

        def start_data() -> None:
            t_data = self.fabric.delivery_time(env.src, dst, env.size)

            def land() -> None:
                if env.send_req is not None:
                    env.send_req._complete()
                req._complete(data)

            self.engine.schedule_at(t_data, land)

        self.engine.schedule_at(t_cts, start_data)

    # ------------------------------------------------------------------
    # RMA windows
    # ------------------------------------------------------------------
    def register_window(self, rank: int, view: memoryview) -> int:
        """Allocate this rank's next window id and expose its buffer.

        Window creation is collective and every rank creates windows in the
        same order, so per-rank sequence numbers agree globally.
        """
        win_id = self._windows_per_rank[rank]
        self._windows_per_rank[rank] += 1
        self._windows[(win_id, rank)] = view
        return win_id

    def window_buffer(self, win_id: int, rank: int) -> memoryview:
        """The exposure buffer rank *rank* registered for window *win_id*."""
        try:
            return self._windows[(win_id, rank)]
        except KeyError:
            raise MpiError(f"window {win_id} not exposed by rank {rank}") from None

    def window_lock(self, win_id: int, rank: int) -> _TargetLock:
        """The passive-target lock state at (window, target rank)."""
        key = (win_id, rank)
        if key not in self._window_locks:
            self._window_locks[key] = _TargetLock()
        return self._window_locks[key]

    # ------------------------------------------------------------------
    # fail-stop crashes
    # ------------------------------------------------------------------
    def check_alive(self, origin: int, target: int, op: str) -> None:
        """Raise :class:`RankUnreachable` if *target* died (fail-stop)."""
        if target in self.dead_ranks:
            raise RankUnreachable(origin, target, op)

    def kill_ranks(self, ranks: Sequence[int], *, where: str = "") -> None:
        """Mark *ranks* dead and interrupt every surviving parked rank.

        Fail-stop semantics: once the job has lost a member, no outstanding
        coordination can complete, so every parked survivor is resumed with
        :class:`RankUnreachable` at its wait point (the interrupt goes
        through the event heap; a survivor resumed normally first observes
        the dead set at its next communication call). This *is* the
        deterministic failure-notification path of :mod:`repro.simmpi.ft`:
        a non-FT program lets the exception propagate and the job aborts;
        an FT program catches it, shrinks, and continues.
        """
        fresh = [r for r in ranks if r not in self.dead_ranks]
        if not fresh:
            return
        self.dead_ranks.update(fresh)
        if self.trace is not None:
            self.trace.count("crash.ranks", len(fresh))
        # Fall back to the engine's process table only for hand-built
        # worlds that never registered their processes (single-job case,
        # where world rank == engine process index).
        procs = self.procs if self.procs else self.engine.processes
        for peer in range(min(self.nranks, len(procs))):
            proc = procs[peer]
            if not proc.alive:
                continue
            if peer in self.dead_ranks:
                # A victim parked at kill time unwinds with ProcessCrashed
                # (a running victim stops at its next crash_point / comm
                # call instead); without this, a dead-but-parked process
                # wedges an otherwise-surviving run in DeadlockError.
                if peer in fresh and proc.wait_reason is not None:
                    proc.interrupt(
                        ProcessCrashed(peer, proc.wait_reason or where or "killed")
                    )
                continue
            if proc.wait_reason is None:
                # Running (not parked) at kill time — e.g. the rank that
                # initiated the kill, or one between waits. It observes
                # the dead set at its next communication entry; delivering
                # the interrupt at whatever *later* wait it reaches would
                # poison post-shrink communicators a fault-tolerant
                # program already rebuilt.
                continue
            proc.interrupt(
                RankUnreachable(peer, fresh[0], proc.wait_reason or where or "wait")
            )

    def crash_point(self, step: str, rank: int) -> None:
        """Named protocol step hook for deterministic crash injection.

        Instrumented libraries (TCIO's flush protocol) call this at every
        step a crash campaign may target. With no bound fault plan this is
        one attribute read; with a plan, the plan decides — deterministically,
        from its seeded ``crash`` stream and step counters — whether *rank*
        dies here, in which case the rank is marked dead, survivors are
        interrupted, and :class:`ProcessCrashed` unwinds the calling thread.
        """
        plan = self.faults
        if plan is None:
            return
        if rank in self.dead_ranks:
            # A co-located victim of an earlier crash_node kill that was
            # running (not parked) when it was marked dead: it must stop
            # at its next protocol step, not keep mutating shared state.
            raise ProcessCrashed(rank, step)
        if plan.crash_point(step, rank, self.node_of[rank]):
            if plan.spec.crash_node is not None:
                node = self.node_of[rank]
                victims = [r for r in range(self.nranks) if self.node_of[r] == node]
            else:
                victims = [rank]
            self.kill_ranks(victims, where=step)
            raise ProcessCrashed(rank, step)

    def charge_matching(self, dst: int) -> float:
        """Reserve *dst*'s matching engine for one two-sided message and
        return the completion time (ablation hook: lets TCIO's two-sided
        variant pay realistic receive-side costs without a real receiver
        loop)."""
        spec = self.fabric.spec
        cost = spec.match_overhead + spec.match_queue_overhead * self._mailboxes[dst].queue_pressure
        now = self.engine.now
        start = now if now > self._matcher_busy[dst] else self._matcher_busy[dst]
        self._matcher_busy[dst] = start + cost
        return self._matcher_busy[dst]


@dataclass
class RankEnv:
    """Everything a rank program sees: its communicator plus the substrate.

    ``ctx`` is the rank's :class:`~repro.sim.api.SimContext` (clock +
    time primitives), bound when the rank is spawned.
    """

    comm: Communicator
    world: MpiWorld
    ctx: Optional[SimContext] = None

    @property
    def rank(self) -> int:
        """This rank's id in the world communicator."""
        return self.comm.rank

    @property
    def size(self) -> int:
        """Number of ranks in the job."""
        return self.comm.size

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.world.engine.now

    def compute(self, seconds: float) -> None:
        """Charge local compute time (lazily; elapses at the next
        communication/storage call, or via :meth:`settle`)."""
        self.ctx.process.charge(seconds)

    def settle(self):
        """Force accrued compute time to elapse now (coroutine)."""
        return self.ctx.process.settle()

    @property
    def pfs(self) -> "Pfs":
        """The job's parallel file system."""
        if self.world.pfs is None:
            raise SimulationError("this world has no parallel file system")
        return self.world.pfs


@dataclass
class MpiRunResult:
    """Outcome of one simulated job."""

    elapsed: float
    returns: list[Any]
    trace: TraceRecorder
    world: MpiWorld
    #: ``None`` for a clean run; the job-aborting exception after a
    #: fail-stop crash (the PFS/world snapshots remain inspectable, which
    #: is how crash-recovery tooling gets at the post-crash file image).
    aborted: Optional[BaseException] = None

    @property
    def pfs(self) -> "Pfs":
        """The job's parallel file system."""
        assert self.world.pfs is not None
        return self.world.pfs

    @property
    def dead_ranks(self) -> set[int]:
        """Ranks lost to fail-stop crashes during the run."""
        return set(self.world.dead_ranks)


def run_mpi(
    nranks: int,
    main: Callable[[RankEnv], Any],
    *,
    cluster: "Optional[ClusterSpec]" = None,
    trace: Optional[TraceRecorder] = None,
    until: Optional[float] = None,
    pfs_init: Optional[Callable[["Pfs"], None]] = None,
    faults=None,
) -> MpiRunResult:
    """Run *main* on *nranks* simulated ranks; returns results and timings.

    All configuration is keyword-only. ``main(env)`` runs once per rank —
    as a generator coroutine (the normal case: anything that communicates
    or does I/O blocks via ``yield from``) or a plain function; its return
    values are collected in rank order. The default cluster is the scaled Lonestar preset sized to
    hold ``nranks`` (12 ranks per node, as on the paper's testbed).
    ``pfs_init`` pre-populates the fresh file system before time starts
    (e.g. a restart job reading a snapshot an earlier job produced).
    ``faults`` is an optional :class:`repro.faults.FaultPlan`; it is bound
    to this job's engine/trace and installed into the fabric and the PFS
    before any rank starts.
    """
    from repro.cluster.lonestar import make_lonestar

    if cluster is None:
        cluster = make_lonestar(nranks=nranks)
    cluster.validate()
    if nranks > cluster.capacity:
        raise MpiError(
            f"{nranks} ranks exceed cluster capacity {cluster.capacity}"
        )
    trace = trace if trace is not None else TraceRecorder()
    engine = Engine(trace=trace)
    if faults is not None:
        faults.bind(engine, trace)
    node_of = [r // cluster.cores_per_node for r in range(nranks)]
    memory = MemoryTracker(cluster.memory_per_node, node_of)
    pfs = cluster.build_pfs(engine, trace)
    if faults is not None:
        pfs.install_faults(faults)
    if pfs_init is not None:
        pfs_init(pfs)
    world = MpiWorld(
        engine,
        nranks,
        cluster.network,
        node_of,
        memory,
        pfs=pfs,
        trace=trace,
        faults=faults,
    )
    returns: list[Any] = [None] * nranks
    finished = [False] * nranks

    def make_target(rank: int, env: RankEnv) -> Callable[[], Any]:
        def target():
            returns[rank] = yield from run_coroutine(main(env))
            yield from env.ctx.process.settle()
            finished[rank] = True

        return target

    for rank in range(nranks):
        env = RankEnv(comm=world.world_comm(rank), world=world)
        proc = engine.spawn(f"rank{rank}", make_target(rank, env))
        env.ctx = SimContext(engine, proc)
        world.procs.append(proc)
    aborted: Optional[BaseException] = None
    try:
        elapsed = engine.run(until=until)
    except (RankUnreachable, DeadlockError) as exc:
        # A fail-stop crash aborts the whole job; the caller still gets the
        # world and PFS back so recovery tooling can inspect the wreckage.
        # Anything not explained by a crashed rank is a real bug: re-raise.
        if not world.dead_ranks:
            raise
        aborted = exc
        elapsed = engine.now
    if world.dead_ranks and aborted is None:
        # A fault-tolerant program shrinks around the dead ranks and runs
        # to completion: every *surviving* rank finishing normally is a
        # successful (degraded) run, not an abort. Only when some survivor
        # never made it to the end — e.g. the only crashed rank was the
        # last one still running, so no survivor ever raised — does the
        # job count as aborted.
        unfinished = [
            r for r in range(nranks)
            if not finished[r] and r not in world.dead_ranks
        ]
        if unfinished:
            aborted = RankUnreachable(
                unfinished[0], min(world.dead_ranks), "job"
            )
    # Only the *deterministic* host counter lands in the shared registry:
    # the number of engine events is a pure function of the workload, so
    # trace snapshots stay replay-identical. Wall-clock is measured outside
    # the registry, by the repository benchmark (perfbench/README.md).
    trace.registry.counter("host.engine.events").inc(engine.events)
    return MpiRunResult(
        elapsed=elapsed, returns=returns, trace=trace, world=world, aborted=aborted
    )
