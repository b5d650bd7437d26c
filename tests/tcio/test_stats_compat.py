"""TcioStats compatibility view: exact key set, registry backing.

Regression guard for the stats redesign: ``as_dict()`` must keep the
historical key set byte for byte (experiments, DESIGN.md tables and the
benchmark key on it), the legacy field names are not attributes any
more, and everything must read through the backing
:class:`MetricsRegistry`.
"""

import warnings

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.simmpi import run_mpi
from repro.tcio import TCIO_WRONLY, TcioConfig, tcio_open, tcio_write
from repro.tcio.stats import FIELD_METRICS, TcioStats
from tests.conftest import make_test_cluster

#: The frozen legacy key set, spelled out: a change here is an API break.
LEGACY_KEYS = [
    "write_calls",
    "read_calls",
    "written_bytes",
    "read_bytes",
    "local_flushes",
    "remote_flushes",
    "put_blocks",
    "local_gets",
    "get_blocks",
    "flushed_bytes",
    "fetched_bytes",
    "segment_loads",
    "segment_writebacks",
    "fetches",
]


class TestAsDict:
    def test_exact_key_set_and_order(self):
        d = TcioStats().as_dict()
        assert list(d) == LEGACY_KEYS

    def test_fresh_stats_are_all_zero_ints(self):
        d = TcioStats().as_dict()
        assert all(type(v) is int and v == 0 for v in d.values())

    def test_field_metrics_table_matches(self):
        assert list(FIELD_METRICS) == LEGACY_KEYS
        # every target is a dotted tcio.* metric name
        assert all(m.startswith("tcio.") for m in FIELD_METRICS.values())

    def test_live_handle_key_set(self):
        """The dict a real benchmark run returns has exactly these keys."""

        def main(env):
            cfg = TcioConfig.sized_for(256, env.size, 64)
            fh = yield from tcio_open(env, "f", TCIO_WRONLY, cfg)
            if env.rank == 0:
                yield from tcio_write(fh, b"x" * 32)
            yield from fh.close()
            return fh.stats.as_dict()

        res = run_mpi(2, main, cluster=make_test_cluster())
        for d in res.returns:
            assert list(d) == LEGACY_KEYS

    def test_as_metrics_mirrors_as_dict(self):
        s = TcioStats()
        s.inc("write_calls", 3)
        s.inc("written_bytes", 100)
        legacy, dotted = s.as_dict(), s.as_metrics()
        assert dotted["tcio.write.calls"] == legacy["write_calls"] == 3
        assert dotted["tcio.write.bytes"] == legacy["written_bytes"] == 100
        assert set(dotted) == set(FIELD_METRICS.values())


class TestRegistryBacking:
    def test_inc_and_value_round_trip(self):
        s = TcioStats()
        s.inc("remote_flushes")
        s.inc("flushed_bytes", 512)
        assert s.value("remote_flushes") == 1
        assert s.value("flushed_bytes") == 512

    def test_shared_registry_receives_dotted_names(self):
        reg = MetricsRegistry()
        s = TcioStats(reg)
        s.inc("put_blocks", 4)
        assert reg.counter("tcio.flush.put_blocks").count == 4

    def test_flushes_property_sums_local_and_remote(self):
        s = TcioStats()
        s.inc("local_flushes", 2)
        s.inc("remote_flushes", 3)
        assert s.flushes == 5


class TestDeprecatedFieldAccess:
    """The deprecated attribute access to legacy field names is gone."""

    def test_internal_paths_do_not_warn(self):
        s = TcioStats()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            s.inc("fetches")
            s.value("fetches")
            s.as_dict()
            s.as_metrics()
            _ = s.flushes

    def test_unknown_attribute_still_raises(self):
        s = TcioStats()
        with pytest.raises(AttributeError):
            s.not_a_field
        with pytest.raises(AttributeError):
            s.read_calls  # a legacy name: read it via value()/as_dict()
        with pytest.raises(AttributeError):
            s.write_calls = 9  # a legacy name: bump it via inc()
