"""The four benchmark workloads: graph, store pipeline and traffic.

Each workload names a stand-in graph, builds a server over it through
the public construction API (``open_store`` / ``write_disk_store`` /
``load_store`` / ``compute_ordering`` / ``open_server``), and says how
to generate its traffic with ``synthetic_workload``.  Why each one
exists is its ``why`` and, at more length, in this directory's README.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import compute_ordering, write_disk_store
from repro.csr.builder import ensure_sorted
from repro.serve import (
    ManualClock,
    ServerConfig,
    open_server,
    synthetic_workload,
)
from repro.stores import load_store, open_store

#: Serving knobs shared by every workload: the ``block`` policy never
#: refuses a request, so a flood measures work done, not admission.
SERVE = dict(policy="block", max_batch_size=256, max_wait_ns=1_000_000.0)


@dataclass
class Served:
    """A set-up workload: the flood server plus what the metrics read.

    ``flood`` runs on the manual ``clock``; ``paced()`` gives a server
    and clock reader for a wall-clock segment over the same store (and
    the same row cache, so it starts warm).
    """

    flood: object
    clock: ManualClock
    bits_per_edge: float
    paced: Callable
    workdir: Path | None = None

    def close(self) -> None:
        """Drop the on-disk store directory, if this setup wrote one."""
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _monolithic(store, spans, *, cache_elements: int = 0, bpe=None,
                workdir=None) -> Served:
    config = ServerConfig(store=store, cache_elements=cache_elements, **SERVE)
    clock = ManualClock()
    with spans.span("serve.open", "serve"):
        flood = open_server(config, clock=clock)

    def paced():
        # same (possibly cache-wrapped) store, wall clock this time
        server = open_server(config.with_overrides(store=flood.store))
        return server, time.monotonic_ns

    if bpe is None:
        bpe = store.bits_per_edge()
    return Served(flood, clock, float(bpe), paced, workdir)


def setup_zipf_packed(src, dst, n, spans, workdir) -> Served:
    store = open_store("packed", src, dst, n)
    return _monolithic(store, spans)


#: Row-cache elements: uniform-disk's is far below its working set.
DISK_CACHE = 100_000
#: mixed-lsm's cache holds the hottest rows of the Zipf head.
LSM_CACHE = 400_000
#: Memtable size at which the LSM compacts: several times per run.
LSM_WATERMARK = 2_000


def setup_uniform_disk(src, dst, n, spans, workdir) -> Served:
    graph = open_store("csr-serial", src, dst, n)
    with spans.span("reorder.order", "reorder"):
        perm = compute_ordering("degree", graph)
    del graph
    with spans.span("reorder.relabel", "reorder"):
        rsrc, rdst = ensure_sorted(perm[src], perm[dst])
    packed = open_store("packed", rsrc, rdst, n)
    del rsrc, rdst
    with spans.span("disk.write", "disk"):
        write_disk_store(packed, workdir, codecs="auto", ordering="degree",
                         perm=perm)
    del packed
    with spans.span("disk.open", "disk"):
        store = load_store(workdir)
    return _monolithic(store, spans, cache_elements=DISK_CACHE,
                       workdir=workdir)


def setup_mixed_lsm(src, dst, n, spans, workdir) -> Served:
    with spans.span("lsm.build", "lsm"):
        store = open_store("lsm", src, dst, n, inner="packed",
                           compact_watermark=LSM_WATERMARK)
    bpe = 8.0 * store.memory_bytes() / max(1, store.num_edges)
    return _monolithic(store, spans, cache_elements=LSM_CACHE, bpe=bpe)


CLUSTER = dict(workers=4, replicas=2, partitioner="range",
               hedge_percentile=95.0, service="simulated")


def setup_zipf_cluster(src, dst, n, spans, workdir) -> Served:
    config = ServerConfig(store_kind="packed", edges=(src, dst, n),
                          **CLUSTER, **SERVE)
    clock = ManualClock()
    with spans.span("serve.open", "shard"):
        router = open_server(config, clock=clock)
    shards = {id(w.server.store): w.server.store for w in router.workers}
    bits = sum(s.bits_per_edge() * s.num_edges for s in shards.values())
    edges = sum(s.num_edges for s in shards.values())

    def paced():
        # the router only runs in virtual time: drive its clock at wall
        # speed from where it stands now
        base = clock() - time.monotonic_ns()
        return router, lambda: clock.advance_to(base + time.monotonic_ns())

    return Served(router, clock, bits / max(1, edges), paced)


@dataclass(frozen=True)
class Workload:
    """One traffic mix over one store pipeline.

    ``flood_rps`` and ``paced_rps`` are fixed request rates: the flood
    sends ``flood_rps`` requests per second of its share of the run
    (about the rate each workload sustained when the benchmark was
    written, so the phase lasts roughly that share), and the paced
    phase offers ``paced_rps``, at most a quarter of that.
    """

    name: str
    why: str
    graph: str
    scale_div: int
    kind: str
    setup: Callable
    setup_repeats: int
    flood_rps: float
    paced_rps: float
    write_fraction: float = 0.0
    flood_gap_ns: float = 1.0

    def traffic(self, count: int, num_nodes: int, edges, seed: int, *,
                gap_ns: float):
        """``[(arrival_ns, request)]``: Zipf(1.2) or uniform reads, 25%
        edge queries (half planted hits), plus this workload's writes
        (20% of them deletes of planted edges)."""
        return synthetic_workload(
            count, num_nodes, kind=self.kind, skew=1.2, edge_fraction=0.25,
            mean_interarrival_ns=gap_ns, edges=edges, seed=seed,
            write_fraction=self.write_fraction, delete_fraction=0.2,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("zipf-packed",
                 "the paper's query path under skewed traffic: coalescer "
                 "dedup, packed decode and serve loop only; control for "
                 "disk, codec, reorder, LSM and router changes",
                 "pokec", 32, "zipf", setup_zipf_packed,
                 setup_repeats=7, flood_rps=30_000, paced_rps=7_000),
        Workload("uniform-disk",
                 "compression pipeline, mmapped segment and codec decode, "
                 "id translation; uniform reads overflow a small row cache",
                 "livejournal", 32, "uniform",
                 setup_uniform_disk, setup_repeats=3, flood_rps=18_000,
                 paced_rps=4_500),
        Workload("mixed-lsm",
                 "10% writes share the read path: memtable merges, "
                 "tombstones, compactions, cache invalidation; the row "
                 "cache holds the Zipf head",
                 "pokec", 32, "zipf", setup_mixed_lsm,
                 setup_repeats=7, flood_rps=22_000, paced_rps=5_500,
                 write_fraction=0.1),
        # the flood is offered at 500k qps on the router's virtual clock
        Workload("zipf-cluster",
                 "router scatter-gather over 2 shards x 2 replicas with "
                 "hedging on simulated service; the only workload "
                 "that runs the router and shard layers",
                 "pokec", 32, "zipf", setup_zipf_cluster,
                 setup_repeats=5, flood_rps=15_000, paced_rps=3_500,
                 flood_gap_ns=2_000.0),
    )
}

