"""Determinism under parallelism: the campaign runner's core contract.

One SMOKE fig5 grid executed three ways — serial in-process, through the
spawn-based process pool into a result store, and again from the warm
store — must produce *identical* results: same simulated seconds, same
throughputs, same output-file SHA-256. This is the differential
assertion behind running EXPERIMENTS.md campaigns in parallel at all.
"""

from __future__ import annotations

import pytest

from repro.campaign.store import CampaignStore
from repro.experiments.common import SMOKE, resolve_points
from repro.perf.campaign import CampaignRunner, serial_runner
from repro.perf.points import Point, points_for

GRID = points_for("fig5", SMOKE)


@pytest.fixture(scope="module")
def serial_results():
    return serial_runner(GRID)


class TestDeterminismUnderParallelism:
    def test_pool_matches_serial_matches_warm_cache(
        self, tmp_path_factory, monkeypatch, serial_results
    ):
        root = tmp_path_factory.mktemp("campaign-store")
        cold = CampaignRunner(2, store=CampaignStore(root))
        assert cold.run(GRID) == serial_results
        assert (cold.hits, cold.misses) == (0, len(GRID))

        def no_simulation(*_):
            pytest.fail("the warm run simulated a point")

        warm = CampaignRunner(2, store=CampaignStore(root))
        monkeypatch.setattr(warm, "_run_serial", no_simulation)
        monkeypatch.setattr(warm, "_run_pool", no_simulation)
        assert warm.run(GRID) == serial_results
        assert (warm.hits, warm.misses) == (len(GRID), 0)

    def test_simulated_times_and_hashes_identical(self, tmp_path, serial_results):
        pooled = CampaignRunner(2, store=CampaignStore(tmp_path)).run(GRID)
        for point in GRID:
            a, b = serial_results[point], pooled[point]
            assert a["write_seconds"] == b["write_seconds"]
            assert a["read_seconds"] == b["read_seconds"]
            assert a["write_throughput"] == b["write_throughput"]
            assert a["file_sha256"] == b["file_sha256"]


class TestCampaignRunner:
    def test_serial_jobs_one_uses_no_pool(self, tmp_path, serial_results):
        runner = CampaignRunner(1, store=CampaignStore(tmp_path))
        assert runner.run(GRID) == serial_results
        assert runner.host_seconds > 0

    def test_cache_disabled_still_runs(self, serial_results):
        point = GRID[0]
        assert CampaignRunner(1).run([point]) == {point: serial_results[point]}

    def test_partial_cache_mixes_hits_and_fresh_runs(self, tmp_path, serial_results):
        store = CampaignStore(tmp_path)
        store.add_result(GRID[0], serial_results[GRID[0]])
        runner = CampaignRunner(1, store=store)
        assert runner.run(GRID) == serial_results
        assert (runner.hits, runner.misses) == (1, len(GRID) - 1)
        # Every miss was stored: the next run is fully warm.
        assert len(store) == len(GRID)

    def test_runner_plugs_into_figure_harness(self, tmp_path):
        from repro.experiments.fig5_scaling import run_fig5

        runner = CampaignRunner(1, store=CampaignStore(tmp_path))
        direct = run_fig5(SMOKE)
        via_runner = run_fig5(SMOKE, runner=runner)
        assert via_runner.write == direct.write
        assert via_runner.read == direct.read

    def test_resolve_points_default_is_serial(self):
        point = Point.make("fig5", method="TCIO", nprocs=4, len_array=64)
        results = resolve_points([point])
        assert results[point]["write_throughput"] > 0
