"""The stable ``repro.sim`` public API: contexts and coroutine helpers.

Rank programs are generator coroutines. Code that needs the simulation
context (clock, sleep/charge/settle, spawn) should either receive a
:class:`SimContext` explicitly or fetch one with :func:`context`.

Coroutine conventions
---------------------
* every simulated-blocking operation is a generator; call it with
  ``yield from`` (``result = yield from op(...)``);
* non-blocking operations (``charge``, probes, engine-side callbacks)
  are plain calls;
* :func:`run_coroutine` bridges APIs that accept either kind of thunk.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Optional

from repro.sim.engine import Engine, active_process, active_process_or_none
from repro.sim.process import SimProcess


def run_coroutine(value: Any):
    """Delegate to *value* when it is a generator; else return it as-is.

    The bridge for "maybe blocking" thunks: retry helpers and request
    objects accept both plain callables and coroutines, and callers
    uniformly write ``result = yield from run_coroutine(fn(...))``.
    """
    if isinstance(value, GeneratorType):
        value = yield from value
    return value


class SimContext:
    """The simulation facade handed to (or fetched by) rank programs.

    A thin view over one ``(engine, process)`` pair: virtual clock,
    time-charging primitives, and process metadata. Blocking methods are
    coroutines (``yield from ctx.sleep(...)``); the rest are plain.
    """

    __slots__ = ("engine", "process")

    def __init__(self, engine: Engine, process: SimProcess):
        self.engine = engine
        self.process = process

    # -- identity ------------------------------------------------------
    @property
    def name(self) -> str:
        """The process name (``rank3``, ...)."""
        return self.process.name

    @property
    def now(self) -> float:
        """The engine's virtual clock."""
        return self.engine.now

    # -- time (blocking methods are coroutines) ------------------------
    def sleep(self, duration: float):
        """Occupy the process for *duration* simulated seconds."""
        return self.process.sleep(duration)

    def charge(self, duration: float) -> None:
        """Accrue lazily-settled busy time (non-blocking)."""
        self.process.charge(duration)

    def settle(self):
        """Pay accrued charges by sleeping them off."""
        return self.process.settle()

    def block(self, reason: str):
        """Park until woken; returns the wake value (kernel primitive)."""
        return self.process.block(reason)

    # -- scheduling (engine-side, non-blocking) ------------------------
    def schedule(self, delay: float, action: Callable[[], None]):
        """Run *action* after *delay* simulated seconds."""
        return self.engine.schedule(delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]):
        """Run *action* at absolute virtual time *time*."""
        return self.engine.schedule_at(time, action)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SimContext {self.process.name} t={self.engine.now:g}>"


def context() -> SimContext:
    """The context of the currently executing simulated process.

    Raises SimulationError outside any rank context.
    """
    proc = active_process()
    return SimContext(proc.engine, proc)


def context_or_none() -> Optional[SimContext]:
    """Like :func:`context`, but None outside any rank context."""
    proc = active_process_or_none()
    return None if proc is None else SimContext(proc.engine, proc)
