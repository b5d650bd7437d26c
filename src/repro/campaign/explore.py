"""Adaptive parameter-space exploration: crossover-frontier search.

The paper's evaluation is full of *crossovers* — parameter points where
one design overtakes another (OCIO vs TCIO writes around 256–512 procs;
flat vs node aggregation as RMA synchronization costs grow). An
exhaustive grid finds a crossover by simulating every candidate; that is
wasteful when the sign of the margin is monotone along the axis, which
these frontiers are. :func:`find_crossover` bisects instead: evaluate
the endpoints, then binary-search the sign change — ``O(log n)`` point
evaluations instead of ``O(n)``.

:func:`aggregation_crossover` applies it to the flat-vs-node aggregation
frontier on the ``rma-heavy`` network profile
(:data:`repro.experiments.topo_ablation.NET_PROFILES`): flat mode's many
per-rank RMA epochs win at small scale, node mode's coalesced leader
pushes win at large scale, and the explorer pins down where — with
every evaluation flowing through the ordinary point pipeline (pool,
store), so the adaptive path stays bit-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.util.errors import ReproError


class ExploreError(ReproError):
    """A malformed exploration (bad candidates, unknown method, ...)."""


@dataclass
class CrossoverReport:
    """The outcome of one crossover search along one parameter axis.

    ``margins`` maps each *evaluated* candidate to its margin (negative
    = crossed, i.e. the challenger wins); ``bracket`` is the adjacent
    candidate pair (last not-crossed, first crossed) or ``None`` when
    the margin never changes sign; ``evaluations`` counts margin
    evaluations actually performed (the exhaustive grid's cost is
    ``len(candidates)``).
    """

    axis: str
    candidates: tuple
    method: str
    margins: dict = field(default_factory=dict)
    evaluations: int = 0
    bracket: Optional[tuple] = None

    @property
    def crossover(self) -> Optional[object]:
        """The first candidate where the challenger wins (or ``None``)."""
        return None if self.bracket is None else self.bracket[1]

    def render(self) -> str:
        """A deterministic text summary of the search."""
        lines = [
            f"crossover search: axis={self.axis} method={self.method} "
            f"({self.evaluations}/{len(self.candidates)} evaluations)",
        ]
        for candidate in self.candidates:
            if candidate in self.margins:
                margin = self.margins[candidate]
                verdict = "crossed" if margin < 0 else "not crossed"
                lines.append(
                    f"  {self.axis}={candidate}: margin={margin:+.6g} "
                    f"({verdict})"
                )
            else:
                lines.append(f"  {self.axis}={candidate}: (skipped)")
        if self.bracket is None:
            lines.append("  no sign change across the candidate range")
        else:
            lines.append(
                f"  frontier: between {self.axis}={self.bracket[0]} and "
                f"{self.axis}={self.bracket[1]}"
            )
        return "\n".join(lines)


def find_crossover(
    candidates: Sequence[object],
    margin: Callable[[object], float],
    *,
    axis: str = "x",
    method: str = "bisect",
) -> CrossoverReport:
    """Locate the sign change of *margin* along ordered *candidates*.

    A candidate is *crossed* when ``margin(candidate) < 0``. The margin
    is assumed monotone-in-sign over the candidate order (not-crossed
    then crossed); :func:`verify_monotone` checks that assumption from
    an exhaustive report.

    ``method="bisect"`` evaluates both endpoints, then binary-searches
    the flip; ``method="grid"`` evaluates every candidate (the baseline
    the adaptive path is measured against). Both return the same
    bracket on a monotone margin.
    """
    if len(candidates) < 2:
        raise ExploreError("need at least two candidates to bracket a crossover")
    if len(set(candidates)) != len(candidates):
        raise ExploreError("candidates must be distinct")
    if method not in ("bisect", "grid"):
        raise ExploreError(f"unknown search method {method!r}")
    report = CrossoverReport(
        axis=axis, candidates=tuple(candidates), method=method
    )

    def evaluate(index: int) -> float:
        candidate = candidates[index]
        value = float(margin(candidate))
        report.margins[candidate] = value
        report.evaluations += 1
        return value

    if method == "grid":
        values = [evaluate(i) for i in range(len(candidates))]
        for i in range(1, len(values)):
            if values[i - 1] >= 0 > values[i]:
                report.bracket = (candidates[i - 1], candidates[i])
                break
        else:
            if values[0] < 0:
                report.bracket = None  # already crossed at the low end
        return report

    lo, hi = 0, len(candidates) - 1
    lo_val, hi_val = evaluate(lo), evaluate(hi)
    if (lo_val < 0) == (hi_val < 0):
        return report  # no sign change to bracket
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if evaluate(mid) < 0:
            hi = mid
        else:
            lo = mid
    report.bracket = (candidates[lo], candidates[hi])
    return report


def verify_monotone(report: CrossoverReport) -> bool:
    """True when an exhaustive report's margins flip sign at most once."""
    signs = [report.margins[c] < 0 for c in report.candidates
             if c in report.margins]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return flips <= 1


# ----------------------------------------------------------------------
# the flat-vs-node aggregation frontier
# ----------------------------------------------------------------------

#: Default process-count axis for the aggregation frontier. On the
#: ``rma-heavy`` profile flat wins at 8–12 procs and node from 16 on,
#: so the frontier sits inside this range (see docs/campaigns.md).
AGGREGATION_CANDIDATES = (8, 12, 16, 24, 32, 48, 64, 96)


def aggregation_crossover(
    candidates: Sequence[int] = AGGREGATION_CANDIDATES,
    *,
    method: str = "bisect",
    runner=None,
    collective: str = "TCIO",
    len_array: int = 1024,
    cores_per_node: int = 4,
    net: str = "rma-heavy",
) -> CrossoverReport:
    """Where node aggregation starts beating flat, in write seconds.

    The margin at process count ``p`` is ``node_seconds - flat_seconds``
    for the topo-ablation workload on the *net* profile: positive while
    flat wins, negative once node's coalesced leader traffic amortizes
    the RMA epoch tax. Each evaluation resolves a flat/node point pair
    through :func:`repro.experiments.common.resolve_points`, so any
    *runner* composes; a store-backed
    :class:`repro.perf.campaign.CampaignRunner` lands every evaluated
    pair in its store as it happens and serves repeats from it.
    """
    from repro.experiments.common import resolve_points
    from repro.perf.points import Point

    def margin(procs: object) -> float:
        pair = [
            Point.make(
                "topo", method=collective, aggregation=aggregation,
                nprocs=int(procs), cores_per_node=cores_per_node,
                len_array=len_array, net=net,
            )
            for aggregation in ("flat", "node")
        ]
        results = resolve_points(pair, runner)
        flat, node = results[pair[0]], results[pair[1]]
        return float(node["write_seconds"]) - float(flat["write_seconds"])

    return find_crossover(
        list(candidates), margin, axis="nprocs", method=method
    )
