"""Host-performance subsystem: parallel campaigns and profiling.

Everything under ``repro.perf`` is about *host* time — how fast the
simulator itself runs — never about simulated time. The two tools:

* :mod:`repro.perf.campaign` — a :class:`CampaignRunner` that fans the
  independent experiment points (``fig5``/``fig67``/``fig910``/``topo``)
  across a ``multiprocessing`` pool, with a
  :class:`~repro.campaign.store.CampaignStore` as its result cache
  (records keyed by experiment, params and config hash), so reruns skip
  completed points;
* :mod:`repro.perf.profile` — ``python -m repro perf profile <target>``:
  one cProfile around the engine loop, which runs every rank coroutine.

End-to-end host time is measured by the repository benchmark
(``BENCHMARK.json``, ``perfbench/README.md``), not by this package.

The determinism contract is unaffected: a point computes identical
simulated times and identical output bytes whether it runs serially,
in a pool worker, or comes out of the store (asserted in
``tests/perf/test_campaign.py``).
"""

from repro.perf.campaign import CampaignRunner, serial_runner
from repro.perf.points import Point, all_points, points_for, run_point

__all__ = [
    "CampaignRunner",
    "Point",
    "all_points",
    "points_for",
    "run_point",
    "serial_runner",
]
