"""`build_cluster` — a :class:`ServerConfig` into a running cluster.

Topology: ``config.workers`` total worker loops serving
``shards = workers // replicas`` shards with ``replicas`` workers
each; worker ``w`` serves shard ``w // replicas``.  Shard stores come
from one of three sources:

* an edge list (``config.edges`` / ``store_kind``) — sharded with
  :func:`~repro.shard.build.shard_edge_list` and each shard built as
  ``config.shard_inner`` spanning the full global node space;
* a ready :class:`~repro.shard.ShardedStore` — its sub-stores and
  partitioner are adopted as-is (the shard layout was already chosen);
* any other ready/loadable store — its edges are extracted row by row
  and sharded as above (fine at bench scale; pass edges directly to
  skip the extraction walk).

All replicas of one shard share the **same store object** — the
in-process analogue of replica processes memory-mapping one read-only
segment file; and when service times are simulated, one parent
:class:`~repro.parallel.SimulatedMachine` is ``split()`` into a
processor group per worker, so per-worker kernel costs come from the
same cost model the build and query benches use.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..obs import Tracer
from ..parallel.machine import SimulatedMachine
from ..serve.config import ServerConfig
from ..serve.request import ManualClock
from ..serve.server import GraphQueryServer
from ..shard.build import shard_edge_list
from ..shard.partition import make_partitioner
from ..shard.store import ShardedStore
from .router import Router
from .worker import ShardWorker

__all__ = ["build_cluster", "extract_edges"]


def extract_edges(store):
    """Recover the (u-sorted) edge list of any readable store.

    The row-by-row walk every store supports; used when a cluster is
    asked to serve a pre-built monolithic store without its edge list.
    """
    n = int(store.num_nodes)
    srcs, dsts = [], []
    for u in range(n):
        row = np.asarray(store.neighbors(u), dtype=np.int64)
        if row.shape[0]:
            srcs.append(np.full(row.shape[0], u, dtype=np.int64))
            dsts.append(row)
    if not srcs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(srcs), np.concatenate(dsts)


def _shard_stores(config: ServerConfig):
    """Resolve (per-shard stores, partitioner, num_nodes)."""
    shards = config.shards
    if config.edges is not None:
        src = np.asarray(config.edges[0], dtype=np.int64)
        dst = np.asarray(config.edges[1], dtype=np.int64)
        n = int(config.edges[2])
    else:
        store = config.resolve_store()
        if isinstance(store, ShardedStore):
            if len(store.shards) != shards:
                raise ValidationError(
                    f"sharded store has {len(store.shards)} shards but the "
                    f"cluster layout needs {shards} "
                    f"(workers={config.workers}, replicas={config.replicas})"
                )
            return list(store.shards), store.partitioner, int(store.num_nodes)
        src, dst = extract_edges(store)
        n = int(store.num_nodes)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    part = make_partitioner(config.partitioner, shards, src, n)
    from ..stores import open_store

    # edges passed with an explicit kind build shards of that kind;
    # extracted edges fall back to the cluster's shard_inner default
    kind = config.store_kind or config.shard_inner
    opts = dict(config.store_opts) if config.store_kind else {}
    stores = [
        open_store(kind, s_src, s_dst, n, **opts)
        for s_src, s_dst in shard_edge_list(src, dst, part)
    ]
    return stores, part, n


def build_cluster(config: ServerConfig, *, clock: ManualClock | None = None
                  ) -> Router:
    """Materialise the cluster a :class:`ServerConfig` describes.

    Called by :func:`~repro.serve.config.open_server` when the config
    asks for cluster serving; returns the ready :class:`Router`.
    *clock* is the shared virtual clock (a fresh
    :class:`~repro.serve.request.ManualClock` by default — cluster
    serving always runs in virtual time).
    """
    clock = clock if clock is not None else ManualClock()
    if not isinstance(clock, ManualClock):
        raise ValidationError(
            "cluster serving runs in virtual time and needs a ManualClock"
        )
    stores, part, _n = _shard_stores(config)
    replicas = config.replicas
    # one tracer shared by the router and every worker's server, so
    # scatter spans and worker-side kernel spans form one tree
    tracer = (
        Tracer(config.obs, clock=clock)
        if config.obs is not None and config.obs.enabled
        else None
    )
    machines: list[SimulatedMachine | None]
    if config.service == "simulated":
        parent = (config.executor
                  if isinstance(config.executor, SimulatedMachine)
                  else SimulatedMachine(config.workers))
        machines = parent.split(config.workers)
    else:
        machines = [None] * config.workers
    workers = []
    for w in range(config.workers):
        shard = w // replicas
        server = GraphQueryServer(stores[shard], machines[w], config=config,
                                  clock=clock, tracer=tracer)
        workers.append(ShardWorker(w, shard, server, machine=machines[w]))
    return Router(workers, part, config, clock=clock, tracer=tracer)
