"""Two-phase collective I/O — the paper's "OCIO" (ROMIO's algorithm).

Write path (Section III.A of the paper):

1. Ranks allgather their min/max accessed file offsets; the aggregate
   ``[gmin, gmax)`` region is divided into equal, disjoint *file domains*,
   one per aggregator ("each region is assigned to a temporary buffer per
   process").
2. **Data exchange phase**: every rank splits its pieces by file domain and
   ships them to the owning aggregators with nonblocking two-sided
   messaging (irecvs first, then isends, then waitall) — the synchronized
   all-to-all whose matching/connection costs grow with process count.
3. **I/O phase**: each aggregator assembles its domain in a temporary
   buffer sized like the whole domain (the memory behaviour behind the
   Fig. 6 OOM) and issues one large contiguous storage access.

The read path runs the phases in reverse: aggregators read their domains,
then scatter requested blocks back to the requesting ranks.
"""

from __future__ import annotations

import bisect
from typing import Optional, TYPE_CHECKING

from repro.faults.retry import pfs_retry
from repro.obs.spans import NULL_TRACER
from repro.simmpi import collectives
from repro.simmpi.comm import CTX_COLL, pack_object, unpack_object, wait_all
from repro.topo import (
    NodeTopology,
    StagingBuffer,
    charge_staging_copy,
    coalesce_blocks,
    split_by_node,
)
from repro.util.errors import MpiIoError
from repro.util.intervals import Extent

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpiio.file import MpiFile


class FileDomains:
    """The equal division of ``[gmin, gmax)`` over the aggregators."""

    def __init__(self, gmin: int, gmax: int, naggs: int, align: int = 1):
        if gmax < gmin:
            raise MpiIoError(f"bad aggregate region [{gmin}, {gmax})")
        if naggs < 1:
            raise MpiIoError("need at least one aggregator")
        self.gmin = gmin
        self.gmax = gmax
        self.naggs = naggs
        total = gmax - gmin
        base, rem = divmod(total, naggs)
        bounds = [gmin]
        for i in range(naggs):
            size = base + (1 if i < rem else 0)
            bounds.append(bounds[-1] + size)
        if align > 1:
            # Ablation: snap interior boundaries up to lock-unit multiples.
            for i in range(1, naggs):
                snapped = -(-(bounds[i] - gmin) // align) * align + gmin
                bounds[i] = min(max(snapped, bounds[i - 1]), gmax)
            bounds[naggs] = gmax
        self.bounds = bounds

    def domain(self, agg: int) -> Extent:
        """Aggregator *agg*'s file domain extent."""
        return Extent(self.bounds[agg], self.bounds[agg + 1])

    def owner_of(self, offset: int) -> int:
        """Aggregator whose domain contains file byte *offset*."""
        if not (self.gmin <= offset < self.gmax):
            raise MpiIoError(f"offset {offset} outside aggregate region")
        # bounds[naggs] == gmax > offset, so this is at most naggs - 1; equal
        # bounds (empty aligned domains) resolve to the last, nonempty one.
        return bisect.bisect_right(self.bounds, offset) - 1

    def split(self, extent: Extent) -> list[tuple[int, Extent]]:
        """Cut *extent* at domain boundaries: (aggregator, piece) pairs.

        An extent inside one domain (the common case) comes back as the
        caller's own object; only one straddling a boundary is cut.
        """
        out: list[tuple[int, Extent]] = []
        pos, stop = extent.start, extent.stop
        while pos < stop:
            agg = self.owner_of(pos)
            end = self.bounds[agg + 1]
            if stop <= end:
                out.append((agg, extent if pos == extent.start else Extent(pos, stop)))
                break
            out.append((agg, Extent(pos, end)))
            pos = end
        return out


def spread_aggregators(topo: NodeTopology, naggs: int) -> list[int]:
    """Topology-aware aggregator placement: round-robin across nodes.

    The flat path puts the ``cb_nodes`` aggregators on ranks
    ``0..naggs-1``, which packs them onto the first few nodes — every
    exchange message then converges on those NICs. Taking the k-th rank
    of each node in turn (leaders first) spreads the aggregators over as
    many nodes as possible, and guarantees one aggregator per node
    whenever ``naggs >= n_nodes``.
    """
    per_node = [topo.ranks_on_node(n) for n in topo.nodes]
    out: list[int] = []
    k = 0
    while len(out) < naggs:
        for members in per_node:
            if k < len(members):
                out.append(members[k])
                if len(out) == naggs:
                    break
        k += 1
    return out


class NodeExchange:
    """Per-handle state of the node-aggregated exchange (``cb_aggregation``).

    The exchange replaces the flat counts-alltoall + rank-to-aggregator
    data pattern with a **fixed, data-independent edge set**:

    * ranks sharing the aggregator's node send to it directly (intra-node);
    * every other node contributes exactly one message, sent by its leader,
      who coalesces the node's staged pieces (``repro.topo``);
    * a node whose leader is in the *down* set (``FaultSpec.
      unreachable_ranks`` — static and globally known, so every rank
      computes the same edges) degrades to flat: its members each send
      directly instead of staging.

    Because the edges are known from topology alone, every edge is always
    sent (possibly empty) and the counts exchange disappears — that
    alltoall alone costs P(P-1) messages regardless of payload.
    """

    def __init__(self, mf: "MpiFile", node_comm):
        comm = mf.comm
        self.comm = comm
        self.topo = NodeTopology.from_comm(comm)
        self.node_comm = node_comm
        self.node = self.topo.node_of_rank(comm.rank)
        self.leader = self.topo.leader_of(self.node)  # comm rank
        self.is_leader = comm.rank == self.leader
        plan = getattr(mf.env.world, "faults", None)
        self.down: set[int] = (
            set(plan.spec.unreachable_ranks) if plan is not None else set()
        )
        self.stage: StagingBuffer = mf.env.world.shared.setdefault(
            ("ocio-stage", comm._comm_id, self.node),
            StagingBuffer(self.node, comm.world_rank(self.leader)),
        )
        self._seq = 0

    @classmethod
    def create(cls, mf: "MpiFile"):
        """Collective construction (coroutine): the node split barriers."""
        topo = NodeTopology.from_comm(mf.comm)
        node_comm = yield from split_by_node(mf.comm, topo)
        return cls(mf, node_comm)

    @property
    def active(self) -> bool:
        """False on a single node — everything is intra-node already."""
        return self.topo.n_nodes > 1

    def next_seq(self) -> int:
        """A per-collective-call staging-key counter (lockstep on all ranks)."""
        self._seq += 1
        return self._seq

    def leader_down(self, node: int) -> bool:
        """True when *node*'s leader is in the static down set."""
        return self.comm.world_rank(self.topo.leader_of(node)) in self.down

    def routes_direct(self, sender: int, agg: int) -> bool:
        """Whether *sender* messages aggregator *agg* itself (comm ranks)."""
        return self.topo.same_node(sender, agg) or self.leader_down(
            self.topo.node_of_rank(sender)
        )

    def senders_for(self, agg: int) -> list[int]:
        """The comm ranks expected to message aggregator *agg* (fixed edges)."""
        out: list[int] = []
        a_node = self.topo.node_of_rank(agg)
        for n in self.topo.nodes:
            members = self.topo.ranks_on_node(n)
            if n == a_node:
                out.extend(r for r in members if r != agg)
            elif self.leader_down(n):
                out.extend(members)
            else:
                out.append(self.topo.leader_of(n))
        return out


def _get_node_exchange(mf: "MpiFile"):
    """The handle's NodeExchange, or None when the flat path applies.

    Coroutine, built lazily at the first collective call (its
    ``split_by_node`` is collective, and every rank reaches this point in
    lockstep).
    """
    if mf.hints.cb_aggregation != "node":
        return None
    if mf._nodex is None:
        mf._nodex = yield from NodeExchange.create(mf)
    return mf._nodex if mf._nodex.active else None


def _setup(mf: "MpiFile", stream_pos: int, nbytes: int):
    """Common prologue (coroutine): pieces, global region, file domains."""
    comm = mf.comm
    pieces = mf.view.map_pieces(stream_pos, nbytes) if nbytes else []
    lo = pieces[0][0].start if pieces else None
    hi = pieces[-1][0].stop if pieces else None
    ranges = yield from collectives.allgather(comm, (lo, hi))
    los = [lo_ for lo_, _ in ranges if lo_ is not None]
    his = [h for _, h in ranges if h is not None]
    if not los:
        return pieces, None
    gmin, gmax = min(los), max(his)
    naggs = mf.hints.cb_nodes or comm.size
    naggs = min(naggs, comm.size)
    align = mf.pfs_file.layout.stripe_size if mf.hints.cb_align_stripes else 1
    domains = FileDomains(gmin, gmax, naggs, align)
    return pieces, domains


def _copy_cost(mf: "MpiFile", nbytes: int) -> None:
    if nbytes > 0:
        mf.env.compute(nbytes / mf.env.world.fabric.spec.memcpy_bandwidth)


def _split_blocks(domains: FileDomains, pieces, data: bytes):
    """Cut the rank's pieces at domain boundaries for the write exchange.

    Returns ``{domain: [(file_offset, block), ...]}`` in file order and
    ``{domain: total block bytes}``.
    """
    send_lists: dict[int, list[tuple[int, bytes]]] = {}
    send_bytes: dict[int, int] = {}
    for ext, mem_off in pieces:
        for di, piece in domains.split(ext):
            lo = mem_off + piece.start - ext.start
            n = piece.stop - piece.start
            send_lists.setdefault(di, []).append((piece.start, data[lo : lo + n]))
            send_bytes[di] = send_bytes.get(di, 0) + n
    return send_lists, send_bytes


def _plan_requests(domains: FileDomains, pieces):
    """Cut the rank's pieces at domain boundaries for a collective read.

    Returns ``{domain: [(file_offset, length), ...]}`` — the requests — and
    ``{domain: [buffer_offset, ...]}``, where each requested block lands in
    the caller's buffer, in the same order (aggregators reply in request
    order, so assembly needs no second split).
    """
    requests: dict[int, list[tuple[int, int]]] = {}
    dests: dict[int, list[int]] = {}
    for ext, mem_off in pieces:
        for di, piece in domains.split(ext):
            requests.setdefault(di, []).append((piece.start, piece.stop - piece.start))
            dests.setdefault(di, []).append(mem_off + piece.start - ext.start)
    return requests, dests


def _write_domain(mf: "MpiFile", tracer, domain: Extent, tempbuf: bytearray, incoming):
    """Aggregator side of a write (coroutine): place the incoming
    ``[(offset, block), ...]`` lists in the domain's temporary buffer, then
    write the whole domain with one storage call."""
    world = mf.env.world
    rank = mf.comm.rank
    covered = 0
    for lst in incoming:
        for off, block in lst:
            lo = off - domain.start
            tempbuf[lo : lo + len(block)] = block
            covered += len(block)
    _copy_cost(mf, covered)
    if domain.length == 0:
        return
    with tracer.span("ocio.io", bytes=domain.length):
        if covered < domain.length:
            # Holes in the domain: read-modify-write preserves them.
            existing = yield from pfs_retry(
                world,
                "ocio.io.read",
                lambda t: mf.client.read(
                    mf.pfs_file, domain.start, domain.length,
                    owner=rank, lock_timeout=t,
                ),
            )
            tempbuf = bytearray(existing)
            for lst in incoming:
                for off, block in lst:
                    lo = off - domain.start
                    tempbuf[lo : lo + len(block)] = block
        payload = bytes(tempbuf)
        yield from pfs_retry(
            world,
            "ocio.io.write",
            lambda t: mf.client.write(
                mf.pfs_file, domain.start, payload, owner=rank, lock_timeout=t
            ),
        )


def _serve_domain(mf: "MpiFile", domain: Extent, in_pairs, tag: int):
    """Aggregator side of a read (coroutine): read the domain once and
    reply to each ``(src, [(offset, length), ...])`` request with its
    blocks. Returns the blocks this rank requested from itself."""
    world = mf.env.world
    comm = mf.comm
    served_local: list[tuple[int, bytes]] = []
    if not in_pairs or domain.length == 0:
        return served_local
    alloc = world.memory.allocate(comm.rank, domain.length, "ocio.tempbuf")
    blob = yield from pfs_retry(
        world,
        "ocio.read.domain",
        lambda t: mf.client.read(
            mf.pfs_file, domain.start, domain.length,
            owner=comm.rank, lock_timeout=t,
        ),
    )
    for src, lst in in_pairs:
        blocks = [
            (off, blob[off - domain.start : off - domain.start + ln])
            for off, ln in lst
        ]
        _copy_cost(mf, sum(ln for _, ln in lst))
        if src == comm.rank:
            served_local = blocks
        else:
            yield from comm.isend(pack_object(blocks), src, tag, context=CTX_COLL)
    world.memory.free(alloc)
    return served_local


def _assemble(nbytes: int, replies, dests: dict[int, list[int]]) -> bytes:
    """Place each domain's reply blocks (``(domain, [(offset, block)])``
    pairs) at the buffer offsets :func:`_plan_requests` recorded."""
    out = bytearray(nbytes)
    for di, blocks in replies:
        for (_off, block), lo in zip(blocks, dests[di], strict=True):
            out[lo : lo + len(block)] = block
    return bytes(out)


def write_all(mf: "MpiFile", stream_pos: int, data: bytes):
    """Collective write of *data* at view stream position *stream_pos*
    (coroutine)."""
    if mf.hints.cb_rounds_buffer is not None:
        return (yield from write_all_rounds(mf, stream_pos, data))
    nx = yield from _get_node_exchange(mf)
    if nx is not None:
        return (yield from _write_all_node(mf, stream_pos, data, nx))
    comm = mf.comm
    rank, size = comm.rank, comm.size
    world = mf.env.world
    tracer = world.trace.tracer if world.trace is not None else NULL_TRACER
    t0 = world.engine.now
    pieces, domains = yield from _setup(mf, stream_pos, len(data))
    if domains is None:
        yield from collectives.barrier(comm)
        return

    # ---- split local pieces by file domain --------------------------
    send_lists, send_bytes = _split_blocks(domains, pieces, data)
    _copy_cost(mf, len(data))  # pack into messages

    # ---- exchange counts, then the data (irecvs first, like ROMIO) --
    out_counts = [0] * size
    for agg, n in send_bytes.items():
        out_counts[agg] = n
    in_counts = yield from collectives.alltoall(comm, out_counts)

    tag = collectives._next_tag(comm)
    my_domain: Optional[Extent] = None
    tempbuf = None
    alloc = None
    if rank < domains.naggs:
        my_domain = domains.domain(rank)
        # The aggregator's temporary buffer spans its whole file domain —
        # the allocation that OOMs at the paper's 48 GB point.
        alloc = world.memory.allocate(rank, my_domain.length, "ocio.tempbuf")
        tempbuf = bytearray(my_domain.length)
    recv_reqs = []
    for src in range(size):
        if in_counts[src] > 0 and src != rank:
            req = yield from comm.irecv(src, tag, context=CTX_COLL)
            recv_reqs.append((src, req))
    for agg, lst in send_lists.items():
        if agg != rank:
            yield from comm.isend(pack_object(lst), agg, tag, context=CTX_COLL)

    if my_domain is not None and tempbuf is not None:
        local = send_lists.get(rank, [])
        with tracer.span("ocio.exchange", peers=len(recv_reqs)):
            yield from wait_all([req for _, req in recv_reqs])
        incoming = [local] + [
            unpack_object(req.payload) for _, req in recv_reqs
        ]
        # ---- I/O phase ------------------------------------------------
        yield from _write_domain(mf, tracer, my_domain, tempbuf, incoming)
        world.memory.free(alloc)
    else:
        with tracer.span("ocio.exchange", peers=len(recv_reqs)):
            yield from wait_all([req for _, req in recv_reqs])

    if world.trace is not None:
        world.trace.count("ocio.write_all", len(data))
        world.trace.complete("ocio.write_all", t0, world.engine.now, bytes=len(data))
    yield from collectives.barrier(comm)


def _write_all_node(
    mf: "MpiFile", stream_pos: int, data: bytes, nx: NodeExchange
):
    """Collective write with node-aggregated exchange (coroutine; see
    NodeExchange)."""
    comm = mf.comm
    rank = comm.rank
    world = mf.env.world
    tracer = world.trace.tracer if world.trace is not None else NULL_TRACER
    t0 = world.engine.now
    pieces, domains = yield from _setup(mf, stream_pos, len(data))
    if domains is None:
        yield from collectives.barrier(comm)
        return
    aggs = spread_aggregators(nx.topo, domains.naggs)
    my_agg = {a: i for i, a in enumerate(aggs)}.get(rank)

    # ---- split local pieces by file domain --------------------------
    send_lists, send_bytes = _split_blocks(domains, pieces, data)
    _copy_cost(mf, len(data))  # pack into messages

    # ---- stage remote-bound pieces with the node leader -------------
    seq = nx.next_seq()
    tag = collectives._next_tag(comm)
    for di, agg in enumerate(aggs):
        lst = send_lists.get(di)
        if not lst or nx.routes_direct(rank, agg):
            continue
        nbytes = send_bytes[di]
        yield from charge_staging_copy(world, mf.env.rank, nbytes)
        alloc = world.memory.allocate(mf.env.rank, nbytes, "topo.staging")
        nx.stage.deposit(("w", seq, di), lst, nbytes, allocation=alloc)
    yield from collectives.barrier(nx.node_comm)  # deposits visible to leader

    # ---- fixed-edge exchange ----------------------------------------
    my_domain: Optional[Extent] = None
    tempbuf = None
    alloc = None
    recv_reqs = []
    if my_agg is not None:
        my_domain = domains.domain(my_agg)
        alloc = world.memory.allocate(rank, my_domain.length, "ocio.tempbuf")
        tempbuf = bytearray(my_domain.length)
        for src in nx.senders_for(rank):
            req = yield from comm.irecv(src, tag, context=CTX_COLL)
            recv_reqs.append((src, req))
    for di, agg in enumerate(aggs):  # direct edges: always send, even empty
        if agg != rank and nx.routes_direct(rank, agg):
            yield from comm.isend(
                pack_object(send_lists.get(di, [])), agg, tag, context=CTX_COLL
            )
    if nx.is_leader and not nx.leader_down(nx.node):
        # One coalesced message per remote-node aggregator (always sent:
        # the edge set is fixed, so empty drains still close the edge).
        for di, agg in enumerate(aggs):
            if nx.topo.node_of_rank(agg) == nx.node:
                continue
            staged = nx.stage.drain(("w", seq, di))
            nbytes = sum(len(b) for _, b in staged)
            if nbytes:
                yield from charge_staging_copy(world, mf.env.rank, nbytes)
            merged = coalesce_blocks(staged)
            yield from comm.isend(pack_object(merged), agg, tag, context=CTX_COLL)
            for stale in nx.stage.drain_allocs(("w", seq, di)):
                world.memory.free(stale)
            if world.trace is not None:
                world.trace.count("topo.drain.messages")
                world.trace.count("topo.drain.bytes", nbytes)

    # ---- aggregator assembly + I/O phase ----------------------------
    if my_domain is not None and tempbuf is not None:
        local = send_lists.get(my_agg, [])
        with tracer.span("topo.exchange", peers=len(recv_reqs)):
            yield from wait_all([req for _, req in recv_reqs])
        incoming = [local] + [unpack_object(req.payload) for _, req in recv_reqs]
        yield from _write_domain(mf, tracer, my_domain, tempbuf, incoming)
        world.memory.free(alloc)

    if world.trace is not None:
        world.trace.count("ocio.write_all", len(data))
        world.trace.complete("ocio.write_all", t0, world.engine.now, bytes=len(data))
    yield from collectives.barrier(comm)


def read_all(mf: "MpiFile", stream_pos: int, nbytes: int):
    """Collective read (coroutine); returns the view-stream bytes."""
    nx = yield from _get_node_exchange(mf)
    if nx is not None:
        return (yield from _read_all_node(mf, stream_pos, nbytes, nx))
    comm = mf.comm
    rank, size = comm.rank, comm.size
    world = mf.env.world
    t0 = world.engine.now
    pieces, domains = yield from _setup(mf, stream_pos, nbytes)
    if domains is None:
        return b""

    # ---- send my requests to the owning aggregators -----------------
    request_lists, dests = _plan_requests(domains, pieces)
    out_reqs = [request_lists.get(agg, []) for agg in range(size)]
    in_reqs = yield from collectives.alltoall(comm, out_reqs)

    # ---- aggregators read their domains and serve --------------------
    tag = collectives._next_tag(comm)
    reply_reqs = []
    for agg in sorted(request_lists):
        if agg != rank:
            req = yield from comm.irecv(agg, tag, context=CTX_COLL)
            reply_reqs.append((agg, req))
    served_local: list[tuple[int, bytes]] = []
    if rank < domains.naggs:
        in_pairs = [(src, lst) for src, lst in enumerate(in_reqs) if lst]
        served_local = yield from _serve_domain(
            mf, domains.domain(rank), in_pairs, tag
        )

    # ---- assemble the local result ------------------------------------
    yield from wait_all([req for _, req in reply_reqs])
    replies = [(rank, served_local)] if served_local else []
    replies += [(agg, unpack_object(req.payload)) for agg, req in reply_reqs]
    out = _assemble(nbytes, replies, dests)
    _copy_cost(mf, nbytes)
    if world.trace is not None:
        world.trace.count("ocio.read_all", nbytes)
        world.trace.complete("ocio.read_all", t0, world.engine.now, bytes=nbytes)
    return out


def _read_all_node(
    mf: "MpiFile", stream_pos: int, nbytes: int, nx: NodeExchange
):
    """Collective read with node-aggregated requests (coroutine; see
    NodeExchange).

    Requests ride the same fixed edge set as the write exchange — same-node
    ranks ask their aggregator directly, every other node's leader merges
    its members' requests into one message. Request messages are lists of
    ``(src, [(offset, length), ...])`` pairs so the aggregator can reply to
    each requester directly; replies exist only for nonempty requests (the
    requester knows whether it asked, so the edge needs no counts round).
    """
    comm = mf.comm
    rank = comm.rank
    world = mf.env.world
    t0 = world.engine.now
    pieces, domains = yield from _setup(mf, stream_pos, nbytes)
    if domains is None:
        return b""
    aggs = spread_aggregators(nx.topo, domains.naggs)
    my_agg = {a: i for i, a in enumerate(aggs)}.get(rank)

    request_lists, dests = _plan_requests(domains, pieces)

    # ---- ship requests over the fixed edges -------------------------
    seq = nx.next_seq()
    tag = collectives._next_tag(comm)  # requests
    tag2 = collectives._next_tag(comm)  # replies
    for di, agg in enumerate(aggs):
        lst = request_lists.get(di)
        if lst and not nx.routes_direct(rank, agg):
            nx.stage.deposit(("r", seq, di), [(rank, lst)], 0)
    yield from collectives.barrier(nx.node_comm)

    req_reqs = []
    if my_agg is not None:
        for src in nx.senders_for(rank):
            req = yield from comm.irecv(src, tag, context=CTX_COLL)
            req_reqs.append((src, req))
    for di, agg in enumerate(aggs):  # direct request edges: always send
        if agg != rank and nx.routes_direct(rank, agg):
            lst = request_lists.get(di)
            yield from comm.isend(
                pack_object([(rank, lst)] if lst else []),
                agg, tag, context=CTX_COLL,
            )
    if nx.is_leader and not nx.leader_down(nx.node):
        for di, agg in enumerate(aggs):
            if nx.topo.node_of_rank(agg) == nx.node:
                continue
            merged = nx.stage.drain(("r", seq, di))
            yield from comm.isend(pack_object(merged), agg, tag, context=CTX_COLL)
            if world.trace is not None:
                world.trace.count("topo.drain.messages")

    # Reply irecvs: one per aggregator this rank asked (nonempty only).
    reply_reqs = []
    for di in sorted(request_lists):
        if aggs[di] != rank:
            req = yield from comm.irecv(aggs[di], tag2, context=CTX_COLL)
            reply_reqs.append((di, req))

    # ---- aggregators read their domains and serve --------------------
    served_local: list[tuple[int, bytes]] = []
    if my_agg is not None:
        yield from wait_all([req for _, req in req_reqs])
        in_pairs: list[tuple[int, list[tuple[int, int]]]] = []
        local = request_lists.get(my_agg)
        if local:
            in_pairs.append((rank, local))
        for _src, req in req_reqs:
            in_pairs.extend(unpack_object(req.payload))
        served_local = yield from _serve_domain(
            mf, domains.domain(my_agg), in_pairs, tag2
        )

    # ---- assemble the local result ------------------------------------
    yield from wait_all([req for _, req in reply_reqs])
    replies = [(my_agg, served_local)] if served_local else []
    replies += [(di, unpack_object(req.payload)) for di, req in reply_reqs]
    out = _assemble(nbytes, replies, dests)
    _copy_cost(mf, nbytes)
    if world.trace is not None:
        world.trace.count("ocio.read_all", nbytes)
        world.trace.complete("ocio.read_all", t0, world.engine.now, bytes=nbytes)
    return out


def write_all_rounds(mf: "MpiFile", stream_pos: int, data: bytes):
    """Two-phase write in ROMIO's rounds (coroutine; ``cb_buffer_size``).

    The aggregator's temporary buffer is capped at
    ``hints.cb_rounds_buffer`` bytes: the exchange + I/O phases repeat over
    successive slices of every file domain, bounding memory at the price
    of one synchronized exchange per round — ROMIO's real memory/latency
    trade-off (the paper's memory analysis assumes the whole-domain buffer,
    hence Fig. 6's OOM; this is the ablation counterpart).
    """
    comm = mf.comm
    rank, size = comm.rank, comm.size
    world = mf.env.world
    t0 = world.engine.now
    cap = mf.hints.cb_rounds_buffer
    assert cap is not None
    pieces, domains = yield from _setup(mf, stream_pos, len(data))
    if domains is None:
        yield from collectives.barrier(comm)
        return

    longest = max(domains.domain(a).length for a in range(domains.naggs))
    n_rounds = max(1, -(-longest // cap))
    my_domain = domains.domain(rank) if rank < domains.naggs else None
    alloc = None
    if my_domain is not None and my_domain.length:
        alloc = world.memory.allocate(
            rank, min(cap, my_domain.length), "ocio.round_buffer"
        )

    for rnd in range(n_rounds):
        # This round's slice of every aggregator's domain.
        def round_slice(agg: int) -> Extent:
            d = domains.domain(agg)
            lo = min(d.stop, d.start + rnd * cap)
            hi = min(d.stop, lo + cap)
            return Extent(lo, hi)

        send_lists: dict[int, list[tuple[int, bytes]]] = {}
        sent_bytes = 0
        for ext, mem_off in pieces:
            for agg, piece in domains.split(ext):
                sl = round_slice(agg)
                part = piece.intersect(sl)
                if part.is_empty():
                    continue
                block = data[
                    mem_off + (part.start - ext.start) : mem_off + (part.stop - ext.start)
                ]
                send_lists.setdefault(agg, []).append((part.start, block))
                sent_bytes += len(block)
        _copy_cost(mf, sent_bytes)

        out_counts = [0] * size
        for agg, lst in send_lists.items():
            out_counts[agg] = sum(len(b) for _, b in lst)
        in_counts = yield from collectives.alltoall(comm, out_counts)

        tag = collectives._next_tag(comm)
        recv_reqs = []
        for src in range(size):
            if in_counts[src] > 0 and src != rank:
                req = yield from comm.irecv(src, tag, context=CTX_COLL)
                recv_reqs.append((src, req))
        for agg, lst in send_lists.items():
            if agg != rank:
                yield from comm.isend(pack_object(lst), agg, tag, context=CTX_COLL)
        yield from wait_all([req for _, req in recv_reqs])

        if my_domain is not None:
            sl = round_slice(rank)
            if not sl.is_empty():
                chunk = bytearray(sl.length)
                covered = 0
                incoming = [send_lists.get(rank, [])] + [
                    unpack_object(req.payload) for _, req in recv_reqs
                ]
                for lst in incoming:
                    for off, block in lst:
                        lo = off - sl.start
                        chunk[lo : lo + len(block)] = block
                        covered += len(block)
                _copy_cost(mf, covered)
                if covered < sl.length:
                    existing = yield from pfs_retry(
                        world,
                        "ocio.rounds.read",
                        lambda t, _sl=sl: mf.client.read(
                            mf.pfs_file, _sl.start, _sl.length,
                            owner=rank, lock_timeout=t,
                        ),
                    )
                    merged = bytearray(existing)
                    for lst in incoming:
                        for off, block in lst:
                            lo = off - sl.start
                            merged[lo : lo + len(block)] = block
                    chunk = merged
                payload = bytes(chunk)
                yield from pfs_retry(
                    world,
                    "ocio.rounds.write",
                    lambda t, _sl=sl, _p=payload: mf.client.write(
                        mf.pfs_file, _sl.start, _p, owner=rank, lock_timeout=t
                    ),
                )
    if alloc is not None:
        world.memory.free(alloc)
    if world.trace is not None:
        world.trace.count("ocio.write_all_rounds", len(data))
        world.trace.complete(
            "ocio.write_all_rounds", t0, world.engine.now, bytes=len(data)
        )
    yield from collectives.barrier(comm)
