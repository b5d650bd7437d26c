"""The campaign runner's result cache: round trips, invalidation, crash safety.

The cache is the campaign result store
(:class:`repro.campaign.store.CampaignStore`): a point's record path is
computed from (experiment, params, config hash), so a lookup is one
file open.
"""

from __future__ import annotations

import json

from repro.campaign.store import CampaignStore, config_hash
from repro.perf.points import Point

POINT = Point.make("fig5", method="TCIO", nprocs=4, len_array=64)
RESULT = {"write_throughput": 1.0, "file_sha256": "ab" * 32}


def _record_path(store: CampaignStore, point: Point):
    return store.records_dir / f"{store.key_for(point)}.json"


class TestResultCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        assert store.get(POINT) is None
        store.add_result(POINT, RESULT)
        assert store.get(POINT) == RESULT
        assert len(store) == 1

    def test_key_distinguishes_points(self, tmp_path):
        store = CampaignStore(tmp_path)
        other = Point.make("fig5", method="OCIO", nprocs=4, len_array=64)
        assert store.key_for(POINT) != store.key_for(other)
        store.add_result(POINT, RESULT)
        assert store.get(other) is None

    def test_key_is_stable_across_instances(self, tmp_path):
        same = Point.make("fig5", len_array=64, nprocs=4, method="TCIO")
        a, b = CampaignStore(tmp_path / "a"), CampaignStore(tmp_path / "b")
        assert a.key_for(POINT) == b.key_for(same)
        assert a.add_result(POINT, RESULT).key == a.key_for(POINT)

    def test_config_hash_invalidation(self, tmp_path):
        CampaignStore(tmp_path).add_result(POINT, RESULT)
        stale = CampaignStore(tmp_path)
        # Simulate a calibration change: the point's record path no
        # longer matches the record written under the old configuration.
        stale.config = "0" * 16
        assert stale.get(POINT) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.add_result(POINT, RESULT)
        path = _record_path(store, POINT)
        path.write_text(path.read_text()[:10])
        assert store.get(POINT) is None
        # the next write for the point overwrites the torn record
        store.add_result(POINT, RESULT)
        assert store.get(POINT) == RESULT
        assert len(store) == 1

    def test_entry_carries_provenance(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.add_result(POINT, RESULT, meta={"host_seconds": 2.0})
        entry = json.loads(_record_path(store, POINT).read_text())
        assert entry["experiment"] == "fig5"
        assert entry["meta"]["host_seconds"] == 2.0
        assert entry["config"] == config_hash() == store.config
