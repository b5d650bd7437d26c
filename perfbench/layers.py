"""Per-layer numbers: profile self time and the program's own counts.

Layers are ``repro`` packages. Self time comes from a cProfile of one
pass: a Python function's own time goes to the package its file lives
in, and a C function's (``list.append``, numpy kernels, ...) to the
package of the Python code that called it. The other ``repro`` packages
and the benchmark's own files make up ``harness``; numpy's and the
standard library's Python code is ``other``.

The counts come from each job's trace summary, its ``MpiRunResult``
folded by :func:`repro.analysis.postmortem.analyze_run`, the stats of
every TCIO handle it opened and the ioserver result. The simulator is
deterministic, so every count repeats exactly for one seed.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict

NAMED = ("sim", "simmpi", "netsim", "pfs", "tcio", "mpiio", "ioserver", "crash", "obs")
LAYERS = (*NAMED, "harness", "other")

#: Public entry points whose profile entries are reported, as
#: (file under repro/, function) -> metric name. cProfile enters a
#: coroutine again on every resumption, so these count resumptions too.
ENTRY_POINTS = {
    ("sim/engine.py", "run"): "sim.entries.run",
    ("tcio/file.py", "write_at"): "tcio.entries.write_at",
    ("tcio/file.py", "read_at"): "tcio.entries.read_at",
    ("tcio/file.py", "read_now"): "tcio.entries.read_now",
    ("tcio/file.py", "flush"): "tcio.entries.flush",
    ("tcio/file.py", "fetch"): "tcio.entries.fetch",
    ("tcio/file.py", "close"): "tcio.entries.close",
    ("mpiio/file.py", "write_all"): "mpiio.entries.write_all",
    ("mpiio/file.py", "read_all"): "mpiio.entries.read_all",
    ("mpiio/file.py", "write_at"): "mpiio.entries.write_at",
    ("mpiio/file.py", "read_at"): "mpiio.entries.read_at",
    ("pfs/filesystem.py", "write"): "pfs.entries.write",
    ("pfs/filesystem.py", "read"): "pfs.entries.read",
    ("pfs/lockmgr.py", "acquire"): "pfs.entries.lock_acquire",
    ("netsim/fabric.py", "transfer"): "netsim.entries.transfer",
    ("simmpi/rpc.py", "call"): "simmpi.entries.rpc_call",
}

#: The per-layer metrics measured in host time; every other one is a
#: deterministic count or virtual-time value.
HOST_TIMED = {
    *(f"{layer}.self_s" for layer in LAYERS),
    "sim.us_per_event", "tcio.us_per_call", "trace.overhead_frac",
}

#: TCIO handle stats reported as ``tcio.<field>``.
TCIO_FIELDS = (
    "local_flushes", "remote_flushes", "put_blocks", "get_blocks", "local_gets",
    "fetches", "segment_loads", "segment_writebacks",
)


class LayerMap:
    """Maps a profiled code location to its layer."""

    def __init__(self, repro_dir: str, bench_dir: str):
        self.repro = os.path.realpath(repro_dir) + os.sep
        self.bench = os.path.realpath(bench_dir) + os.sep
        self._memo: dict[str, str] = {}

    def relative(self, filename: str):
        """The path under ``repro/``, or None outside the package."""
        path = os.path.realpath(filename)
        return path[len(self.repro):].replace(os.sep, "/") if path.startswith(self.repro) else None

    def layer(self, filename: str) -> str:
        found = self._memo.get(filename)
        if found is None:
            rel = self.relative(filename)
            if rel is not None:
                package = rel.split("/", 1)[0]
                found = package if package in NAMED else "harness"
            elif os.path.realpath(filename).startswith(self.bench):
                found = "harness"
            else:
                found = "other"
            self._memo[filename] = found
        return found

    def self_seconds(self, stats: pstats.Stats) -> dict[str, float]:
        """Self seconds per layer, C functions charged to their callers."""
        out = dict.fromkeys(LAYERS, 0.0)
        for (filename, _, _), (_, _, tottime, _, callers) in stats.stats.items():
            if filename == "~" and callers:
                for (caller_file, _, _), edge in callers.items():
                    out[self.layer(caller_file)] += edge[2]
            else:
                out[self.layer(filename)] += tottime
        return out

    def entries(self, stats: pstats.Stats) -> dict[str, int]:
        """Profile entries into each reported public entry point."""
        out = dict.fromkeys(ENTRY_POINTS.values(), 0)
        for (filename, _, func), (_, ncalls, _, _, _) in stats.stats.items():
            name = ENTRY_POINTS.get((self.relative(filename), func))
            if name is not None:
                out[name] += ncalls
        return out


def job_counts(side: str, out, tcio_stats: list[dict]) -> dict[str, float]:
    """The deterministic counts of one job's outcome."""
    from repro.analysis.postmortem import analyze_run

    summary: dict[str, list] = defaultdict(lambda: [0, 0.0])
    nic_busy = ost_busy = 0.0
    elapsed = 0.0
    for run in out.runs:
        elapsed += run.elapsed
        for name, (count, total) in run.trace.summary().items():
            summary[name][0] += count
            summary[name][1] += total
        for usage in analyze_run(run).resources:
            if usage.name in ("NIC tx", "NIC rx"):
                nic_busy += usage.busy_seconds
            elif usage.name == "OST":
                ost_busy += usage.busy_seconds

    def count(name: str) -> int:
        return summary[name][0] if name in summary else 0

    def total(name: str) -> float:
        return summary[name][1] if name in summary else 0.0

    tcio = defaultdict(int)
    for stats in tcio_stats:
        for key, value in stats.items():
            tcio[key] += value
    server = out.server
    # Write latency of the full session (the read job), so the sum over a
    # pass holds one session's p50.
    write_latency = server.latency.get("write", {}) if server is not None and side == "read" else {}
    counts = {
        "sim.events": count("host.engine.events"),
        "simmpi.sends": count("mpi.send"),
        "simmpi.match_wait_s": total("mpi.match_delay"),
        "simmpi.rma_puts": count("rma.put"),
        "simmpi.rma_put_blocks": int(total("rma.put_blocks")),
        "simmpi.rma_gets": count("rma.get"),
        "simmpi.rma_get_blocks": int(total("rma.get_blocks")),
        "simmpi.rma_locks": count("rma.lock"),
        "netsim.msgs": count("net.msg"),
        "netsim.bytes": int(total("net.msg")),
        "netsim.connections": count("net.connection"),
        "netsim.intranode_msgs": count("net.intranode"),
        "netsim.nic_busy_s": nic_busy,
        "pfs.writes": count("pfs.write"),
        "pfs.write_bytes": int(total("pfs.write")),
        "pfs.reads": count("pfs.read"),
        "pfs.read_bytes": int(total("pfs.read")),
        "pfs.lock_acquires": count("pfs.lock.acquire"),
        "pfs.lock_cache_hits": count("pfs.lock.cache_hit"),
        "pfs.lock_requests": count("pfs.lock.acquire") + count("pfs.lock.cache_hit"),
        "pfs.lock_waits": count("pfs.lock.wait"),
        "pfs.lock_revokes": count("pfs.lock.revoke"),
        "pfs.ost_busy_s": ost_busy,
        "tcio.calls": tcio["write_calls"] + tcio["read_calls"],
        **{f"tcio.{key}": tcio[key] for key in TCIO_FIELDS},
        "mpiio.collective_calls": count("ocio.write_all") + count("ocio.read_all"),
        "ioserver.admitted": server.admitted if server is not None else 0,
        "ioserver.rejected": server.rejected if server is not None else 0,
        "ioserver.queue_depth_max": server.max_depth if server is not None else 0,
        "ioserver.applied_writes": server.applied_writes if server is not None else 0,
        "ioserver.latency_p50_s": write_latency.get("p50", 0.0),
        "crash.journal_commits": count("crash.journal.commits"),
        "crash.journal_bytes": int(total("crash.journal.bytes")),
        "model.sim_write_s": out.virtual_s if side == "write" else 0.0,
        "model.sim_read_s": out.virtual_s if side == "read" else 0.0,
        "model.sim_elapsed_s": elapsed,
    }
    return counts


def add_counts(into: dict[str, float], counts: dict[str, float]) -> None:
    """Fold one job's counts into a pass total (``max`` for high-water marks)."""
    for name, value in counts.items():
        if name == "ioserver.queue_depth_max":
            into[name] = max(into.get(name, 0), value)
        else:
            into[name] = into.get(name, 0) + value


def ratios(counts: dict[str, float]) -> dict[str, float]:
    """Derived ratios, each with its base among the counts."""
    requests = counts["pfs.lock_requests"]
    offered = counts["ioserver.admitted"] + counts["ioserver.rejected"]
    return {
        "pfs.lock_cache_hit_ratio": counts["pfs.lock_cache_hits"] / requests if requests else 0.0,
        "ioserver.admit_ratio": counts["ioserver.admitted"] / offered if offered else 0.0,
    }
