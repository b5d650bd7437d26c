"""Virtual-time pin: host-side changes to TCIO must not move simulated time.

The values below were recorded before the lazy-read log was bucketed by
segment; the read path's bookkeeping is host-only, so simulated seconds,
the file image and rank 0's handle stats must stay exactly these.
"""

from repro.bench import BenchConfig, Method, run_benchmark

CFG = BenchConfig(
    method=Method.TCIO,
    num_arrays=2,
    type_codes="i,d",
    len_array=256,
    size_access=1,
    nprocs=16,
)

FILE_SHA256 = "120f57a9f12bc0ac12d8f92fed45969d67cd7bd67eea38a53fb118068a996acc"

WRITE_STATS = {
    "write_calls": 512, "read_calls": 0, "written_bytes": 3072, "read_bytes": 0,
    "local_flushes": 1, "remote_flushes": 1, "put_blocks": 85, "local_gets": 0,
    "get_blocks": 0, "flushed_bytes": 3072, "fetched_bytes": 0,
    "segment_loads": 0, "segment_writebacks": 1, "fetches": 0,
}

READ_STATS = {
    "write_calls": 0, "read_calls": 512, "written_bytes": 0, "read_bytes": 3072,
    "local_flushes": 0, "remote_flushes": 0, "put_blocks": 0, "local_gets": 342,
    "get_blocks": 170, "flushed_bytes": 0, "fetched_bytes": 1020,
    "segment_loads": 0, "segment_writebacks": 0, "fetches": 1,
}


def test_write_job_is_pinned():
    res = run_benchmark(CFG, do_read=False)
    assert not res.failed, res.fail_reason
    assert res.write_seconds == 0.00018181336136181438
    assert res.file_sha256 == FILE_SHA256
    assert res.tcio_stats == WRITE_STATS


def test_read_job_is_pinned():
    res = run_benchmark(CFG, do_write=False)
    assert not res.failed, res.fail_reason
    assert res.read_seconds == 0.00013952417153080302
    assert res.tcio_stats == READ_STATS
