"""Result store: ingestion from every source, queries, the store runner.

Its role as the campaign runner's cache is covered by
``tests/perf/test_cache.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.store import (
    STORE_SCHEMA,
    CampaignStore,
    StoreError,
    StoreRunner,
)
from repro.experiments.common import resolve_points
from repro.perf.points import Point


def _fake_result(value: float) -> dict:
    return {"write_throughput": value, "write_seconds": 1.0 / value,
            "file_sha256": "00"}


def _filled_store(tmp_path) -> CampaignStore:
    store = CampaignStore(tmp_path / "store")
    for nprocs, value in ((4, 10.0), (8, 20.0), (16, 40.0)):
        for method, factor in (("TCIO", 1.0), ("OCIO", 0.5)):
            point = Point.make(
                "fig5", method=method, nprocs=nprocs, len_array=64
            )
            store.add_result(point, _fake_result(value * factor))
    return store


class TestAddAndQuery:
    def test_add_result_and_len(self, tmp_path):
        store = _filled_store(tmp_path)
        assert len(store) == 6

    def test_same_point_overwrites(self, tmp_path):
        store = CampaignStore(tmp_path)
        point = Point.make("fig5", method="TCIO", nprocs=4, len_array=64)
        store.add_result(point, _fake_result(1.0))
        store.add_result(point, _fake_result(2.0))
        assert len(store) == 1
        assert store.records()[0].metrics["write_throughput"] == 2.0

    def test_query_filters_params(self, tmp_path):
        store = _filled_store(tmp_path)
        records = store.query("fig5", where={"method": "TCIO"})
        assert len(records) == 3
        assert all(r.get("method") == "TCIO" for r in records)

    def test_query_order_is_deterministic(self, tmp_path):
        store = _filled_store(tmp_path)
        keys = [r.key for r in store.query()]
        assert keys == [r.key for r in store.query()]
        nprocs = [r.get("nprocs") for r in store.query(where={"method": "TCIO"})]
        assert nprocs == [4, 8, 16]  # numeric, not lexicographic

    def test_distinct(self, tmp_path):
        store = _filled_store(tmp_path)
        assert store.distinct("nprocs") == [4, 8, 16]
        assert store.distinct("method") == ["OCIO", "TCIO"]

    def test_series(self, tmp_path):
        store = _filled_store(tmp_path)
        xs, ys = store.series(
            "nprocs", "write_throughput",
            experiment="fig5", where={"method": "TCIO"},
        )
        assert xs == [4, 8, 16]
        assert ys == [10.0, 20.0, 40.0]

    def test_index_json_written(self, tmp_path):
        store = _filled_store(tmp_path)
        index = json.loads((store.root / "index.json").read_text())
        assert index["schema"] == STORE_SCHEMA
        assert index["records"] == 6
        assert index["by_experiment"] == {"fig5": 6}

    def test_wrong_schema_records_skipped(self, tmp_path):
        store = _filled_store(tmp_path)
        rogue = store.records_dir / "rogue.json"
        rogue.write_text(json.dumps({"schema": 999, "key": "x"}))
        assert len(store.records()) == 6


class TestOneRecordPerPoint:
    def test_serial_then_pooled_sweep_is_one_record_per_point(self, tmp_path):
        # Regression: serial and pooled sweeps used to stamp different
        # config hashes, so one point landed as two records.
        from repro.campaign.runner import run_sweep, smoke_spec

        spec = smoke_spec()
        points = spec.points()
        store = CampaignStore(tmp_path / "shared")
        serial = run_sweep(spec, store=store)
        pooled_store = CampaignStore(tmp_path / "pooled")
        assert run_sweep(spec, store=pooled_store, jobs=2) == serial
        assert run_sweep(spec, store=store, jobs=2) == serial
        assert len(store) == store.summary()["records"] == len(points)
        assert [r.key for r in store.records()] == [
            r.key for r in pooled_store.records()
        ]
        assert store.distinct("method") == ["OCIO", "TCIO"]
        xs, _ = store.series("method", "write_throughput", experiment="fig5")
        assert len(xs) == len(set(xs)) == len(points)


class TestIngestion:
    def test_ingest_bench(self, tmp_path):
        bench = tmp_path / "BENCH_9.json"
        bench.write_text(json.dumps({
            "calibration_seconds": 0.1,
            "platform": "test-host",
            "points": {
                "bench-a": {"events": 10, "wall_seconds": 0.5},
                "bench-b": {"events": 20, "wall_seconds": 0.7},
            },
        }))
        store = CampaignStore(tmp_path / "store")
        assert store.ingest_bench(bench) == 2
        records = store.query("hostbench", source="hostbench")
        assert [r.get("name") for r in records] == ["bench-a", "bench-b"]
        assert records[0].metrics["events"] == 10
        assert records[0].get("platform") == "test-host"

    def test_ingest_real_committed_bench(self, tmp_path):
        from pathlib import Path

        bench = Path(__file__).resolve().parents[2] / "BENCH_8.json"
        store = CampaignStore(tmp_path)
        assert store.ingest_bench(bench) > 0

    def test_ingest_metrics(self, tmp_path):
        snap = tmp_path / "run.metrics.json"
        snap.write_text(json.dumps({"engine.events": 42}))
        store = CampaignStore(tmp_path / "store")
        record = store.ingest_metrics(snap)
        assert record.experiment == "metrics"
        assert record.metrics == {"engine.events": 42}

    def test_ingest_bad_bench_raises(self, tmp_path):
        bad = tmp_path / "BENCH_X.json"
        bad.write_text("{not json")
        with pytest.raises(StoreError, match="unreadable"):
            CampaignStore(tmp_path / "store").ingest_bench(bad)

    def test_sources_coexist(self, tmp_path):
        store = _filled_store(tmp_path)
        snap = tmp_path / "x.metrics.json"
        snap.write_text("{}")
        store.ingest_metrics(snap)
        assert len(store.query(source="campaign")) == 6
        assert len(store.query(source="metrics")) == 1


class TestStoreRunner:
    def test_serves_points_through_resolve_points(self, tmp_path):
        store = _filled_store(tmp_path)
        points = [
            Point.make("fig5", method="TCIO", nprocs=n, len_array=64)
            for n in (4, 8, 16)
        ]
        results = resolve_points(points, StoreRunner(store))
        assert results[points[0]]["write_throughput"] == 10.0
        assert results[points[2]]["write_throughput"] == 40.0

    def test_missing_point_raises_with_label(self, tmp_path):
        store = _filled_store(tmp_path)
        missing = Point.make("fig5", method="TCIO", nprocs=32, len_array=64)
        with pytest.raises(StoreError, match=r"nprocs=32"):
            StoreRunner(store)([missing])
