"""Simulated processes: stackless generator coroutines on the engine.

A rank program is a generator function; every simulated-blocking
operation is itself a generator, and callers chain with ``yield from``
down to :meth:`SimProcess.block`, which yields a wait-reason string to
the kernel. The kernel parks the coroutine until an engine action wakes
it (``gen.send``) or interrupts it (``gen.throw``). Plain callables that
never block are also accepted: they run to completion at activation.

There are no OS threads anywhere in the kernel; teardown is
``gen.close()`` (GeneratorExit runs the coroutine's ``finally`` blocks),
and a fail-stop crash is :class:`ProcessCrashed` thrown at the wait
point.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Optional

from repro.sim import engine as _engine_mod
from repro.util.errors import SimulationError

# Re-exported: the crash signal lives beside the engine but is raised
# through processes, so both import paths are natural.
ProcessCrashed = _engine_mod.ProcessCrashed


class SimProcess:
    """One simulated process: a coroutine driven by the engine.

    The public construction path is :meth:`spawn` (or
    ``Engine.spawn``); direct construction plus ``Engine.add_process``
    remains supported for tests that build processes before the run.
    """

    def __init__(self, engine: "_engine_mod.Engine", name: str, target: Callable[[], object]):
        self.engine = engine
        self.name = name
        self.target = target
        self._gen: Optional[GeneratorType] = None
        self._blocked = False
        self._pending_wake: Optional[_engine_mod.Timer] = None
        self._pending_delay = 0.0  # lazily accrued charge() time
        self.alive = False
        self.crashed = False
        self.wait_reason: Optional[str] = None
        self.start_time = 0.0
        self.end_time: Optional[float] = None

    @classmethod
    def spawn(
        cls, engine: "_engine_mod.Engine", name: str, target: Callable[[], object]
    ) -> "SimProcess":
        """Create *and register* a process on *engine* (starts at time 0)."""
        proc = cls(engine, name, target)
        engine.add_process(proc)
        return proc

    def __repr__(self) -> str:  # pragma: no cover
        state = (
            "crashed" if self.crashed
            else "blocked" if self._blocked
            else "alive" if self.alive
            else "done"
        )
        return f"<SimProcess {self.name} {state}>"

    # ------------------------------------------------------------------
    # lifecycle (engine side)
    # ------------------------------------------------------------------
    def _start(self) -> None:
        """Arm the process: activation is the first heap event at t=0."""
        self.alive = True
        self.start_time = self.engine.now
        self.engine.schedule(0.0, self._activate)

    def _activate(self) -> None:
        if not self.alive:
            raise SimulationError(f"{self.name}: activated after termination")
        prev = _engine_mod._active
        _engine_mod._active = self
        try:
            result = self.target()
        except ProcessCrashed:
            self._finish(crashed=True)
            return
        except BaseException:
            self._finish(crashed=False)
            raise
        finally:
            _engine_mod._active = prev
        if isinstance(result, GeneratorType):
            self._gen = result
            self._step(result.send, None)
        else:
            # A plain callable that never blocks: it already ran.
            self._finish(crashed=False)

    def _step(self, resume: Callable[[Any], Any], value: Any) -> None:
        """Advance the coroutine one hop: to its next block or its end."""
        prev = _engine_mod._active
        _engine_mod._active = self
        try:
            yielded = resume(value)
        except StopIteration:
            self._finish(crashed=False)
            return
        except ProcessCrashed:
            self._finish(crashed=True)
            return
        except BaseException:
            self._finish(crashed=False)
            raise
        finally:
            _engine_mod._active = prev
        if not self._blocked:  # pragma: no cover - kernel invariant
            raise SimulationError(
                f"{self.name}: yielded {yielded!r} without blocking "
                "(missing `yield from` on a simulated operation?)"
            )

    def _finish(self, *, crashed: bool) -> None:
        self.crashed = self.crashed or crashed
        self.alive = False
        self.end_time = self.engine.now
        self._blocked = False
        self.wait_reason = None
        self._gen = None

    def _kill(self) -> None:
        """Tear the coroutine down (engine reap after error/deadlock)."""
        gen, self._gen = self._gen, None
        self.alive = False
        if self.end_time is None:
            self.end_time = self.engine.now
        self._blocked = False
        if gen is not None:
            prev = _engine_mod._active
            _engine_mod._active = self
            try:
                gen.close()
            finally:
                _engine_mod._active = prev

    # ------------------------------------------------------------------
    # blocking protocol (process side; generators)
    # ------------------------------------------------------------------
    def block(self, reason: str):
        """Park until another action calls :meth:`wake` (or interrupts).

        Returns the value passed to ``wake``. This is a generator: the
        caller (transitively, the rank coroutine) must ``yield from`` it.
        """
        if _engine_mod._active is not self:
            raise SimulationError("a process may only block itself")
        self._blocked = True
        self.wait_reason = reason
        value = yield reason
        return value

    def wake(self, value: Any = None, *, delay: float = 0.0) -> None:
        """Schedule this blocked process to resume (with *value*)."""

        def resume() -> None:
            self._pending_wake = None
            if not self._blocked:
                raise SimulationError(f"{self.name}: woken while not blocked")
            self._blocked = False
            self.wait_reason = None
            self._step(self._gen.send, value)

        self._pending_wake = self.engine.schedule(delay, resume)

    def interrupt(self, exc: BaseException, *, delay: float = 0.0) -> None:
        """Deliver *exc* at the wait point of this parked process.

        Delivery is dropped if the process already terminated or is not
        blocked when the event fires (it won the race); a pending wake is
        cancelled so the process does not resume twice.
        """

        def resume() -> None:
            if not self.alive or not self._blocked:
                return
            if self._pending_wake is not None:
                self._pending_wake.cancel()
                self._pending_wake = None
            self._blocked = False
            self.wait_reason = None
            self._step(self._gen.throw, exc)

        self.engine.schedule(delay, resume)

    # ------------------------------------------------------------------
    # time (process side)
    # ------------------------------------------------------------------
    def sleep(self, duration: float):
        """Occupy this process for *duration* simulated seconds (generator)."""
        if duration < 0:
            raise SimulationError(f"cannot sleep a negative duration ({duration})")
        if duration == 0:
            return
        self.wake(delay=duration)
        yield from self.block(f"sleep({duration:g})")

    def charge(self, duration: float) -> None:
        """Accrue *duration* seconds of lazily-settled busy time.

        Non-blocking: cost models call this from engine context or rank
        context alike; the owed time materializes at the next
        :meth:`settle` (or blocking operation that settles) of this
        process.
        """
        if duration < 0:
            raise SimulationError(f"cannot charge a negative duration ({duration})")
        self._pending_delay += duration

    def settle(self):
        """Pay any accrued charge by sleeping it off (generator)."""
        if self._pending_delay > 0:
            delay, self._pending_delay = self._pending_delay, 0.0
            yield from self.sleep(delay)
