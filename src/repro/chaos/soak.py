"""The seeded chaos soak: many randomized fault runs, zero tolerance.

One *iteration* draws a fault scenario from a seeded stream — which
family, which victim, which protocol step, which fault plan — runs it,
and checks the family's invariants. The three families:

* ``tenancy`` — two jobs share one PFS; one is killed by a fail-stop
  crash mid-protocol. The dead job must stay contained (the survivor
  completes with byte-oracle-identical output), no lock-manager queue
  may hold an orphaned waiter, and ``faults.data_at_risk`` stays under
  the bound (a journaled job flags nothing).
* ``tcio-survive`` — a bare TCIO job with ``TcioConfig.ft`` loses one
  rank at a drawn protocol step and must complete degraded: survivor
  bytes identical to the crash-free reference outside the victim's
  uncommitted region, fsck clean, at least one survive round recorded
  (the ``survive`` column of :func:`repro.crash.harness.run_cell`).
* ``server-failover`` — a delegate I/O-server session with
  ``IoServerConfig.failover`` loses one delegate at a drawn ``srv-*``
  step and must complete with the final image byte-identical to the
  analytic oracle — client-side replay loses *nothing*
  (the ``server-survive`` column of :func:`repro.crash.harness.run_cell`).

Everything is a pure function of the root seed: the drawn parameters,
the virtual-clock schedules, the final bytes, and the metrics document
— so CI can run the same seed twice and demand byte-identical reports
(the determinism job), and any violating iteration is replayable from
its ``(seed, index)`` alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.util.errors import ReproError
from repro.util.rng import derive_seed

#: Iteration families, in draw order. The weights lean on the cheap
#: tenancy runs; the survive families dominate wall-clock.
FAMILIES = ("tenancy", "tcio-survive", "server-failover")

#: Bound for the data-at-risk invariant: a chaos workload writes far
#: less than this, so anything larger signals runaway silent loss.
DATA_AT_RISK_BOUND = 1 << 20


class ChaosError(ReproError):
    """A malformed chaos configuration."""


@dataclass(frozen=True)
class ChaosConfig:
    """One soak campaign's shape."""

    iterations: int = 50
    seed: int = 0
    families: tuple[str, ...] = FAMILIES

    def validate(self) -> None:
        if self.iterations < 1:
            raise ChaosError("need at least one iteration")
        bad = [f for f in self.families if f not in FAMILIES]
        if bad:
            raise ChaosError(f"unknown families {bad} (choose from {FAMILIES})")
        if not self.families:
            raise ChaosError("need at least one family")


@dataclass
class IterationOutcome:
    """One iteration's draw, result, and any invariant violations."""

    index: int
    family: str
    seed: int
    params: dict
    violations: list[str] = field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def row(self) -> dict:
        """The iteration as a JSON-stable dict (metrics document row)."""
        return {
            "index": self.index,
            "family": self.family,
            "seed": self.seed,
            "params": self.params,
            "ok": self.ok,
            "violations": list(self.violations),
            "detail": self.detail,
        }


@dataclass
class ChaosReport:
    """A whole soak campaign's outcome."""

    config: ChaosConfig
    iterations: list[IterationOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(it.ok for it in self.iterations)

    @property
    def violations(self) -> list[IterationOutcome]:
        return [it for it in self.iterations if not it.ok]

    def metrics_payload(self) -> dict:
        """The deterministic soak document (pure function of the seed)."""
        by_family: dict[str, int] = {}
        for it in self.iterations:
            by_family[it.family] = by_family.get(it.family, 0) + 1
        return {
            "chaos": {
                "seed": self.config.seed,
                "iterations": self.config.iterations,
                "families": list(self.config.families),
                "by_family": by_family,
                "violations": sum(1 for it in self.iterations if not it.ok),
            },
            "rows": [it.row() for it in self.iterations],
        }

    def metrics_json(self) -> str:
        """Canonical serialization — the determinism job diffs this."""
        return json.dumps(self.metrics_payload(), indent=1, sort_keys=True) + "\n"

    def write_metrics(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.metrics_json())

    def render(self) -> str:
        lines = [
            f"chaos soak: {len(self.iterations)} iterations, "
            f"seed {self.config.seed}"
        ]
        for it in self.iterations:
            state = "ok " if it.ok else "FAIL"
            lines.append(
                f"  [{it.index:>3}] {state} {it.family:<16} "
                f"seed={it.seed} {it.detail}"
            )
            for v in it.violations:
                lines.append(f"        violated: {v}")
        bad = len(self.violations)
        lines.append(
            "  => zero invariant violations" if not bad
            else f"  => {bad} iteration(s) violated invariants"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the iteration families
# ----------------------------------------------------------------------


def _orphan_lock_waiters(pfs) -> int:
    """Waiters still queued on any file's lock manager after the run."""
    return sum(pfs.lookup(name).locks.queued_count for name in pfs.list_files())


def _iterate_tenancy(out: IterationOutcome) -> None:
    """Two jobs, one killed: containment + oracle + lock hygiene."""
    from repro.faults import FaultSpec
    from repro.tenancy import JobSpec, TenancyScenario, run_scenario
    from repro.util.errors import TenancyError

    s = out.seed
    steps = ("pre-deposit", "post-deposit", "mid-flush", "pre-commit")
    step = steps[derive_seed(s, "step") % len(steps)]
    crash_rank = derive_seed(s, "rank") % 4
    crash_after = 1 + derive_seed(s, "after") % 2
    victim_journal = "epoch" if derive_seed(s, "journal") % 2 else "off"
    if victim_journal == "off" and step in ("mid-flush", "pre-commit"):
        step = "post-deposit"  # epoch-only steps never fire unjournaled
    out.params = {
        "step": step, "crash_rank": crash_rank,
        "crash_after": crash_after, "victim_journal": victim_journal,
    }
    scenario = TenancyScenario(
        jobs=(
            JobSpec(name="alpha", workload="tcio", nranks=4, journal="epoch"),
            JobSpec(
                name="victim", workload="tcio", nranks=4,
                journal=victim_journal, arrival=0.0005,
            ),
        ),
        seed=derive_seed(s, "scenario") % (1 << 31),
    )
    spec = FaultSpec(
        crash_rank=crash_rank, crash_step=step, crash_after=crash_after
    )
    try:
        result = run_scenario(
            scenario, faults={"victim": spec}, solo_baseline=False
        )
    except TenancyError as exc:
        # verify=True raises when contention (or the crash) changed a
        # *clean* job's bytes — the central oracle violation.
        out.violations.append(f"byte oracle: {exc}")
        return
    alpha, victim = result.jobs["alpha"], result.jobs["victim"]
    crashed = bool(victim.world.dead_ranks)
    if alpha.aborted is not None:
        out.violations.append(
            f"crash escaped containment: survivor job aborted "
            f"({alpha.aborted})"
        )
    if crashed and victim.aborted is None:
        out.violations.append("victim job lost a rank yet reported clean")
    orphans = _orphan_lock_waiters(result.pfs)
    if orphans:
        out.violations.append(f"{orphans} orphan lock waiter(s) left queued")
    for name, job in result.jobs.items():
        at_risk = job.recorder.registry.counter("faults.data_at_risk").total
        if job.spec.journal == "epoch" and at_risk > 0:
            out.violations.append(
                f"job {name}: {int(at_risk)}b data_at_risk despite journal"
            )
        elif at_risk > DATA_AT_RISK_BOUND:
            out.violations.append(
                f"job {name}: data_at_risk {int(at_risk)}b over bound"
            )
    out.detail = (
        f"step={step} rank={crash_rank} "
        f"{'crashed+contained' if crashed else 'no hit (step unreached)'}"
    )


def _iterate_survive(
    out: IterationOutcome, column: str, victims: tuple[int, ...], **shape
) -> None:
    """One rank of a fault-tolerant *column* dies at a drawn step; the
    job completes. *victims* are the drawable ranks, *shape* the run's."""
    from repro.crash.harness import COLUMNS, run_cell

    s = out.seed
    steps = COLUMNS[column].steps
    step = steps[derive_seed(s, "step") % len(steps)]
    victim = victims[derive_seed(s, "victim") % len(victims)]
    out.params = {"step": step, "victim": victim}
    cell = run_cell(
        column, step, seed=derive_seed(s, "plan") % (1 << 31),
        victim=victim, **shape,
    )
    if not cell.ok:
        out.violations.append(f"{column} cell failed: {cell.detail}")
    out.detail = f"step={step} victim={victim} {cell.detail}"


_RUNNERS = {
    "tenancy": _iterate_tenancy,
    "tcio-survive": partial(
        _iterate_survive, column="survive", victims=(0, 1, 2, 3),
        nranks=4, cores_per_node=2,
    ),
    # The small server shape has delegates (0, 2); draw which one dies.
    "server-failover": partial(
        _iterate_survive, column="server-survive", victims=(0, 2),
        nclients=4, nranks=4, cores_per_node=2,
    ),
}


def run_iteration(config: ChaosConfig, index: int) -> IterationOutcome:
    """Run iteration *index* of the campaign (pure function of the seed).

    Replayable in isolation: a violating row's ``(seed, index)`` is all
    it takes to rerun exactly that scenario under a debugger.
    """
    it_seed = derive_seed(config.seed, "chaos", index)
    family = config.families[it_seed % len(config.families)]
    out = IterationOutcome(index=index, family=family, seed=it_seed, params={})
    _RUNNERS[family](out)
    return out


def run_soak(
    config: Optional[ChaosConfig] = None, *, progress=None
) -> ChaosReport:
    """Run the whole campaign; *progress* (if given) sees each outcome."""
    config = config or ChaosConfig()
    config.validate()
    report = ChaosReport(config=config)
    for index in range(config.iterations):
        out = run_iteration(config, index)
        report.iterations.append(out)
        if progress is not None:
            progress(out)
    return report
