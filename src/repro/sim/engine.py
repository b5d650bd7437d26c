"""The virtual-time event engine.

Design
------
Rank programs are Python *generator coroutines*: any operation that blocks
in simulated time is a generator, and callers chain with ``yield from``
down to :meth:`SimProcess.block`, which yields a wait-reason string to the
kernel. The engine resumes a parked coroutine directly with ``gen.send``
(or injects a crash with ``gen.throw``) — there are no OS threads, no
locks, and no baton handoff. Exactly one coroutine executes at any moment
by construction, so execution order is fully determined by the event heap.

The heap holds ``(time, seq)`` entries; ``seq`` is a monotonically
increasing counter that breaks time ties deterministically. The engine loop
pops the next entry, advances the clock, and runs the action. Actions
either do bookkeeping (e.g. finish a network transfer) or resume a blocked
process; a resumed process runs until it blocks again or terminates.

Plain callables that never block are also accepted as process targets:
they run to completion during process activation.

If the heap drains while processes are still blocked, the run is deadlocked
and :class:`~repro.util.errors.DeadlockError` reports who waits on what.

Events/sec accounting is per-engine (``Engine.events``) with a process-wide
monotone aggregate (:func:`events_executed_total`) that stays correct when
several engines exist concurrently (campaign spawn-pool children, nested
test runs): retired engines fold their count into a module total, and live
engines contribute their current count on demand.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Callable, Iterable, Optional, Sequence, TYPE_CHECKING

from repro.util.errors import DeadlockError, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import SimProcess
    from repro.sim.trace import TraceRecorder

#: Events executed by engines that already retired (finished or were
#: garbage collected). Live engines are tracked separately so concurrent
#: engines cannot interleave into a misleading aggregate.
_retired_events = 0

#: Live engines whose ``events`` counts have not been retired yet.
_live_engines: "weakref.WeakSet[Engine]" = weakref.WeakSet()

#: The process currently executing (exactly one, or None between steps).
_active: "Optional[SimProcess]" = None


def events_executed_total() -> int:
    """Events executed by every engine of this process so far (monotone)."""
    return _retired_events + sum(e.events for e in _live_engines)


def _retire_engine(engine: "Engine") -> None:
    """Fold a finished engine's event count into the retired total."""
    global _retired_events
    if engine in _live_engines:
        _live_engines.discard(engine)
        _retired_events += engine.events


def active_process() -> "SimProcess":
    """The simulated process currently executing.

    This is the documented accessor of the ``repro.sim`` API for code that
    runs *inside* a rank program (library substrate, tests). Raises
    SimulationError when called from outside a rank context (for instance
    from test code after the run finished).
    """
    if _active is None:
        raise SimulationError("not inside a simulated process")
    return _active


def active_process_or_none() -> "Optional[SimProcess]":
    """The executing simulated process, or None outside any rank context."""
    return _active


def active_engine() -> "Engine":
    """The engine owning the currently executing simulated process."""
    return active_process().engine


class ProcessCrashed(BaseException):
    """A simulated fail-stop process crash.

    Derives from :class:`BaseException` (like generator teardown) so rank
    code with a generic ``except Exception`` cannot accidentally survive
    its own death. Raised in-coroutine at a crash point, or injected into
    a parked process via ``SimProcess.interrupt``.
    """

    def __init__(self, rank: int, where: str = ""):
        self.rank = rank
        self.where = where
        detail = f" at {where}" if where else ""
        super().__init__(f"rank {rank} crashed{detail} (fail-stop)")


class Timer:
    """Handle for a scheduled action; supports cancellation."""

    __slots__ = ("engine", "seq", "time")

    def __init__(self, engine: "Engine", seq: int, time: float):
        self.engine = engine
        self.seq = seq
        self.time = time

    def cancel(self) -> None:
        """Prevent the scheduled action from running."""
        self.engine._actions.pop(self.seq, None)

    @property
    def cancelled(self) -> bool:
        """Whether the action was cancelled or already consumed."""
        return self.seq not in self.engine._actions


class Engine:
    """Virtual clock + event heap + coroutine process scheduler."""

    def __init__(self, *, trace: "Optional[TraceRecorder]" = None):
        self.now: float = 0.0
        self._heap: list[tuple[float, int]] = []  # (time, seq); C-speed compares
        self._actions: dict[int, Callable[[], None]] = {}
        self._seq = 0
        self.events = 0  # actions executed (host-perf: events/sec)
        self._processes: list[SimProcess] = []
        self._running = False
        self._finished = False
        self.trace = trace
        _live_engines.add(self)
        if trace is not None:
            # Spans record on this engine's virtual clock; rebinding keeps
            # the timeline monotonic across sequential engines (write job,
            # then read job) sharing one recorder.
            trace.tracer.bind_clock(lambda: self.now)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None]) -> Timer:
        """Run *action* ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        time = self.now + delay
        self._actions[self._seq] = action
        heapq.heappush(self._heap, (time, self._seq))
        return Timer(self, self._seq, time)

    def schedule_at(self, time: float, action: Callable[[], None]) -> Timer:
        """Run *action* at absolute simulated time *time* (>= now)."""
        return self.schedule(time - self.now, action)

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def add_process(self, process: "SimProcess") -> None:
        """Register a process before the engine starts."""
        if self._running or self._finished:
            raise SimulationError("cannot add processes to a started engine")
        self._processes.append(process)

    def spawn(self, name: str, target: Callable[[], object]) -> "SimProcess":
        """Create and register a process that will start at time 0.

        *target* may be a generator function (a coroutine rank program
        that blocks via ``yield from``) or a plain callable that never
        blocks.
        """
        from repro.sim.process import SimProcess

        proc = SimProcess(self, name, target)
        self.add_process(proc)
        return proc

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, *, until: float | None = None) -> float:
        """Run to completion (or to time *until*); returns the final clock.

        Completion means every process terminated and the heap drained.
        A drained heap with live blocked processes raises DeadlockError.
        A failure inside a rank coroutine propagates out of the event that
        resumed it — before any later event runs.
        """
        if self._finished:
            raise SimulationError("engine already ran")
        self._running = True
        started = self.now
        # The loop below runs once per event across the whole simulation;
        # local bindings and an inlined _pop keep the per-event constant
        # cost down (measurably so at FULL-campaign event counts).
        heap = self._heap
        actions_pop = self._actions.pop
        heappop = heapq.heappop
        try:
            for proc in self._processes:
                proc._start()
            while True:
                action = None
                while heap:
                    time, seq = heappop(heap)
                    action = actions_pop(seq, None)
                    if action is not None:
                        break
                if action is None:
                    break
                if until is not None and time > until:
                    self.now = until
                    break
                if time < self.now:
                    raise SimulationError("event time went backwards")
                self.now = time
                self.events += 1
                action()
            if until is None:
                self._check_deadlock()
        finally:
            self._running = False
            self._finished = until is None
            if self._finished:
                self._reap()
                _retire_engine(self)
        if self.trace is not None:
            self.trace.complete(
                "engine.run", started, self.now, "engine",
                processes=len(self._processes),
            )
        return self.now

    def _pop(self) -> tuple[float, Callable[[], None]] | None:
        heap = self._heap
        actions = self._actions
        while heap:
            time, seq = heapq.heappop(heap)
            action = actions.pop(seq, None)
            if action is not None:
                return time, action
        return None

    def _check_deadlock(self) -> None:
        blocked = {
            i: proc.wait_reason or "blocked"
            for i, proc in enumerate(self._processes)
            if proc.alive
        }
        if blocked:
            self._reap()
            raise DeadlockError(blocked)

    def _reap(self) -> None:
        """Close leftover process coroutines (after error/deadlock)."""
        for proc in self._processes:
            proc._kill()

    def kill_process(self, process: "SimProcess", *, at: float | None = None) -> Timer:
        """Schedule a fail-stop crash of *process* (at time *at*, default now).

        The crash is delivered through the event heap like every other
        action: if the process is parked in ``block()`` when the event
        fires, :class:`ProcessCrashed` is raised at its wait point; a
        process that already terminated (or crashed) is left alone.
        """
        index = self._processes.index(process)

        def fire() -> None:
            if not process.alive or process.crashed:
                return
            process.interrupt(ProcessCrashed(index, "killed"))

        delay = 0.0 if at is None else at - self.now
        return self.schedule(delay, fire)

    # ------------------------------------------------------------------
    # conveniences for assertions and reporting
    # ------------------------------------------------------------------
    @property
    def processes(self) -> Sequence["SimProcess"]:
        """All registered processes, in spawn order."""
        return tuple(self._processes)

    def run_processes(
        self, targets: Iterable[Callable[[], object]], *, until: float | None = None
    ) -> float:
        """Spawn one process per callable and run; returns final clock."""
        for i, target in enumerate(targets):
            self.spawn(f"proc{i}", target)
        return self.run(until=until)
