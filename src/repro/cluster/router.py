"""The scatter-gather `Router`: one serving front door over N workers.

The router inherits the request lifecycle of
:class:`~repro.serve.server.FrontDoor`, the base of
:class:`~repro.serve.server.GraphQueryServer` — ``submit`` / ``pump`` /
``drain`` / ``next_wakeup_ns`` / ``snapshot`` and analytics jobs — so
workloads, the replay driver, and the load harness run unchanged
against either.  Behind that surface each closed
micro-batch is **scattered**: its deduplicated key plan is split by
the partitioner into per-shard sub-batches, each sub-batch is
dispatched to the least-loaded alive replica of its shard, and
replies are **gathered** back onto every ticket's
:class:`~repro.serve.request.ReplySlot` as each sub completes.

Time is virtual: the router runs on a
:class:`~repro.serve.request.ManualClock` and keeps a min-heap of
future events, so replica queueing, hedging deadlines, and failure
races are deterministic — the same discrete-event style as the
:class:`~repro.parallel.SimulatedMachine` underneath each worker.
Three mechanisms ride on the event loop:

* **Hedging** — once enough service-time samples exist, a sub whose
  primary completion would land past the configured percentile
  deadline gets a second attempt on a sibling replica at the
  deadline; the first completion wins and the loser is dropped and
  counted (``duplicate_completions``), never double-resolving a slot.
* **Retry on failure** — a completion from a worker that failed
  before it landed is lost; the sub is re-dispatched on another alive
  replica (``retries``).  When no alive replica remains, every ticket
  of the sub fails with a one-line
  :class:`~repro.errors.ClusterError` naming shard, last worker, and
  attempt count — slots never hang.
* **Tenant quotas** — before fan-out, a request whose tenant already
  has its quota of in-flight requests is rejected at admission
  (``quota_rejected``), keyed off ``request.tenant``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import ClusterError, ValidationError
from ..query.rowcache import RowCache
from ..serve.coalescer import MicroBatch
from ..serve.config import ServerConfig
from ..serve.request import (
    DONE,
    REJECTED,
    ManualClock,
    ReplySlot,
    Request,
    WriteRequest,
)
from ..serve.server import FrontDoor
from .worker import ShardWorker

__all__ = ["Router", "ClusterStats", "WorkerStats"]

#: Event kinds on the router's virtual-time heap.
_COMPLETE = "complete"
_HEDGE = "hedge"


@dataclass(frozen=True)
class WorkerStats:
    """One worker's share of the cluster's serving work."""

    worker_id: int
    shard_id: int
    alive: bool
    subs_served: int
    requests_served: int
    busy_ns: float
    hedge_wins: int


@dataclass(frozen=True)
class ClusterStats:
    """Router-level accounting the flat serve snapshot can't carry.

    ``per_worker`` / ``per_shard`` show where the scattered work
    landed; the hedging and failure counters quantify the tail
    mechanisms (every duplicate completion was dropped — gathered
    replies stay exactly-once by construction).
    """

    shards: int
    replicas: int
    per_worker: tuple[WorkerStats, ...] = ()
    per_shard: dict[int, int] = field(default_factory=dict)
    per_tenant: dict[str, int] = field(default_factory=dict)
    subs_dispatched: int = 0
    hedges_launched: int = 0
    duplicate_completions: int = 0
    retries: int = 0
    failed_requests: int = 0
    quota_rejected: int = 0


@dataclass(slots=True, eq=False)
class _Gather:
    """Per-batch gather state: how many subs are still out."""

    batch: MicroBatch
    remaining: int
    scatter_ns: float
    service_ns: float = 0.0
    span: int | None = None         # open dispatch span id (traced batches)


@dataclass(slots=True, eq=False)
class _Sub:
    """One shard's slice of a scattered batch (router-internal)."""

    shard: int
    nodes: np.ndarray               # unique node keys owned by this shard
    edges: np.ndarray               # unique (u, v) rows owned by this shard
    node_items: list                # [request, ...] per unique node
    edge_items: list                # [request, ...] per unique edge
    gather: _Gather                 # the batch's shared gather state
    attempts: int = 0
    done: bool = False
    inflight: int = 0               # outstanding attempts (primary + hedge)
    dispatched_to: list[int] = field(default_factory=list)


class Router(FrontDoor):
    """Scatter-gather front-end over replicated shard workers.

    Built by :func:`~repro.cluster.build.build_cluster` (via
    :func:`~repro.serve.config.open_server`); not usually constructed
    by hand.  *workers* is the flat worker list (workers of shard
    ``s`` are those with ``shard_id == s``), *partitioner* routes node
    keys to shards, and *clock* is the shared
    :class:`~repro.serve.request.ManualClock` all virtual time runs
    on.  *tracer* is the cluster's shared :class:`~repro.obs.Tracer`
    (also held by every worker's server, so router-side scatter spans
    and worker-side kernel spans land in one tree); defaults to what
    ``config.obs`` asks for.

    The request lifecycle is the one :class:`FrontDoor` gives the
    monolithic server; the router adds tenant quotas, the scatter,
    the hedge/retry/fail event loop, the gather and
    :meth:`cluster_stats`.
    """

    _layer = "router"
    _prefix = "router"

    def __init__(
        self,
        workers: list[ShardWorker],
        partitioner,
        config: ServerConfig,
        *,
        clock: ManualClock,
        tracer=None,
    ):
        if not workers:
            raise ValidationError("a cluster needs at least one worker")
        self.workers = list(workers)
        self.partitioner = partitioner
        self.num_shards = int(partitioner.num_shards)
        self.by_shard: dict[int, list[ShardWorker]] = {
            s: [w for w in self.workers if w.shard_id == s]
            for s in range(self.num_shards)
        }
        for s, group in self.by_shard.items():
            if not group:
                raise ValidationError(f"shard {s} has no replica workers")
        self.tenant_quotas = dict(config.tenant_quotas)
        self._tenant_inflight: dict[str, int] = {}
        self._tenant_completed: dict[str, int] = {}
        self._job_view = None
        self._events: list = []     # (time_ns, seq, kind, payload)
        self._seq = 0
        self._samples: deque[float] = deque(maxlen=256)
        # counters surfaced via cluster_stats()
        self.subs_dispatched = 0
        self.hedges_launched = 0
        self.duplicate_completions = 0
        self.retries = 0
        self.failed_requests = 0
        self.quota_rejected = 0
        self._per_shard_subs: dict[int, int] = {
            s: 0 for s in range(self.num_shards)
        }
        super().__init__(config, clock=clock, tracer=tracer)

    # -- admission: tenant quotas in front of the shared queue -----------
    def _unsupported(self, request: Request) -> str:
        if isinstance(request, WriteRequest):
            return ("cluster serving is read-only (route writes to a "
                    "single-worker server over an lsm store)")
        return super()._unsupported(request)

    def _root_meta(self, request: Request) -> dict:
        return {"kind": type(request).__name__, "tenant": request.tenant}

    def _admit(self, request: Request, slot: ReplySlot,
               now: float) -> ReplySlot:
        """Tenant quota, then the shared queue admission — exactly the
        monolithic order, with fan-out deferred to batch closure."""
        tenant = request.tenant
        inflight = self._tenant_inflight
        quota = self.tenant_quotas.get(tenant)
        if quota is not None and inflight.get(tenant, 0) >= quota:
            self.quota_rejected += 1
            slot._resolve(REJECTED)
            self._end_root(request.ticket, now, status="quota-rejected")
            return slot
        # charge the quota before the offer, whose pump may already
        # finish the request; a queue rejection gives it back
        inflight[tenant] = inflight.get(tenant, 0) + 1
        super()._admit(request, slot, now)
        if slot.status == REJECTED:
            self._release(tenant)
        return slot

    def _on_shed(self, victim: Request) -> None:
        self._release(victim.tenant)

    def _release(self, tenant: str) -> None:
        """Give back one in-flight quota unit (any terminal state)."""
        left = self._tenant_inflight.get(tenant, 0) - 1
        if left > 0:
            self._tenant_inflight[tenant] = left
        else:
            self._tenant_inflight.pop(tenant, None)

    # -- analytics jobs --------------------------------------------------
    def _job_graph(self):
        """Jobs run over a read-only :class:`~repro.shard.ShardedStore`
        view of replica 0 of every shard (the union of the shards *is*
        the graph, so results equal the monolithic run), built once
        and reused by every job."""
        if self._job_view is None:
            from ..shard import ShardedStore

            shards = []
            for s in range(self.num_shards):
                store = self.by_shard[s][0].server.engine.store
                if isinstance(store, RowCache):
                    store = store.store
                shards.append(store)
            self._job_view = ShardedStore(self.partitioner, shards)
        return self._job_view, self.config.executor

    # -- the event loop drives pump / drain ------------------------------
    def pump(self, now: float | None = None) -> int:
        """Run the event loop up to *now*, scatter every batch the
        coalescer considers closed, then grant the front analytics job
        its work slices; returns batches scattered."""
        if now is None:
            now = self._clock()
        self._run_events(now)
        served = 0
        while (batch := self.coalescer.poll(now)) is not None:
            self._dispatch(batch)
            served += 1
            self._run_events(now)
        self._pump_jobs()
        return served

    def _settle(self) -> int:
        """Run the event loop to quiescence, advancing the virtual
        clock through every outstanding completion."""
        served = 0
        while self._events:
            t = self._events[0][0]
            self._clock.advance_to(t)
            served += self.pump(t)
        return served

    def next_wakeup_ns(self) -> float | None:
        """Earliest virtual time with work: the oldest queued request's
        window expiry or the next in-flight completion/hedge event."""
        close = super().next_wakeup_ns()
        if not self._events:
            return close
        event = self._events[0][0]
        return event if close is None else min(close, event)

    # -- scatter ---------------------------------------------------------
    def _dispatch(self, batch: MicroBatch) -> None:
        """Scatter one closed batch into per-shard sub-batches."""
        plan = batch.plan
        t = float(batch.closed_ns)
        shard_nodes: dict[int, dict[int, int]] = {}
        shard_edges: dict[int, dict[int, int]] = {}
        if plan.unique_nodes.shape[0]:
            owners = self.partitioner.shard_of_array(plan.unique_nodes)
            for lane, s in enumerate(owners):
                shard_nodes.setdefault(int(s), {})[lane] = int(
                    plan.unique_nodes[lane]
                )
        if plan.unique_edges.shape[0]:
            owners = self.partitioner.shard_of_array(plan.unique_edges[:, 0])
            for lane, s in enumerate(owners):
                shard_edges.setdefault(int(s), {})[lane] = (
                    int(plan.unique_edges[lane, 0]),
                    int(plan.unique_edges[lane, 1]),
                )
        # per-lane ticket lists, for the gather-side demux
        node_tickets: dict[int, list] = {}
        for req, lane in zip(plan.neighbor_requests, plan.node_lane):
            node_tickets.setdefault(lane, []).append(req)
        edge_tickets: dict[int, list] = {}
        for req, lane in zip(plan.edge_requests, plan.edge_lane):
            edge_tickets.setdefault(lane, []).append(req)
        shards = sorted(set(shard_nodes) | set(shard_edges))
        gather = _Gather(batch, len(shards), t)
        tracer = self.tracer
        if self._obs:
            parent = None
            traced = self._traced
            for lane in (plan.neighbor_requests, plan.edge_requests):
                for req in lane:
                    root = traced.get(req.ticket)
                    if root is None:
                        continue
                    tracer.record("enqueue", "router", ticket=req.ticket,
                                  start_ns=float(req.enqueue_ns), end_ns=t,
                                  parent=root)
                    if parent is None:
                        parent = root
            if parent is not None:
                # stays open until the last sub gathers (_finish_sub)
                gather.span = tracer.begin(
                    "dispatch", "router", parent=parent, start_ns=t,
                    meta={"batch_size": len(batch),
                          "closed_by": batch.closed_by,
                          "shards": len(shards)},
                )
        if not shards:  # pragma: no cover - empty batches never close
            if gather.span is not None:
                tracer.end(gather.span, t)
            return
        for s in shards:
            nmap = shard_nodes.get(s, {})
            emap = shard_edges.get(s, {})
            sub = _Sub(
                shard=s,
                nodes=np.fromiter(nmap.values(), dtype=np.int64,
                                  count=len(nmap)),
                edges=np.array(list(emap.values()),
                               dtype=np.int64).reshape(-1, 2),
                node_items=[node_tickets.get(lane, []) for lane in nmap],
                edge_items=[edge_tickets.get(lane, []) for lane in emap],
                gather=gather,
            )
            if not self._dispatch_sub(sub, t):
                # every replica of this shard is already down: fail the
                # sub's tickets now rather than leaving slots pending
                self._fail_sub(sub, None, t)

    # -- replica selection / dispatch ------------------------------------
    def _candidates(self, sub: _Sub, t: float) -> list[ShardWorker]:
        return [
            w for w in self.by_shard[sub.shard]
            if w.alive_at(t) and w.worker_id not in sub.dispatched_to
        ]

    def _dispatch_sub(self, sub: _Sub, t: float, *, hedge: bool = False
                      ) -> bool:
        """Dispatch one attempt of *sub* at virtual time *t*; returns
        False when no alive replica remains (the caller fails the sub
        unless another attempt is still in flight)."""
        candidates = self._candidates(sub, t)
        if not candidates:
            return False
        worker = min(candidates,
                     key=lambda w: (w.busy_until, w.worker_id))
        span = sub.gather.span
        sub_sid = None
        if span is not None:
            sub_sid = self.tracer.begin(
                "sub", "router", parent=span, start_ns=t,
                meta={"shard": sub.shard, "worker": worker.worker_id,
                      "hedge": hedge, "attempt": sub.attempts + 1},
            )
        # the worker's dispatch/kernel spans nest under the sub
        # span via the stack — no ids threaded through worker.serve
        with self.tracer.under(sub_sid):
            rows, exists, service_ns = worker.serve(
                sub.nodes, sub.edges, wall=self.config.service == "wall"
            )
        start = max(t, worker.busy_until)
        done_at = start + service_ns
        worker.busy_until = done_at
        if sub_sid is not None:
            self.tracer.annotate(sub_sid, service_ns=float(service_ns))
            self.tracer.end(sub_sid, done_at)
        sub.attempts += 1
        sub.inflight += 1
        sub.dispatched_to.append(worker.worker_id)
        self.subs_dispatched += 1
        self._per_shard_subs[sub.shard] += 1
        self._push(done_at, _COMPLETE,
                   (sub, worker, rows, exists, service_ns, hedge))
        if not hedge:
            deadline = self._hedge_deadline(t)
            if deadline is not None and done_at > deadline:
                self._push(deadline, _HEDGE, sub)
        return True

    def _hedge_deadline(self, t: float) -> float | None:
        pct = self.config.hedge_percentile
        if pct is None or len(self._samples) < self.config.hedge_min_samples:
            return None
        return t + float(np.percentile(np.fromiter(
            self._samples, dtype=np.float64), pct))

    # -- the event loop ---------------------------------------------------
    def _push(self, t: float, kind: str, payload) -> None:
        self._seq += 1
        heapq.heappush(self._events, (float(t), self._seq, kind, payload))

    def _run_events(self, now: float) -> None:
        while self._events and self._events[0][0] <= now:
            t, _, kind, payload = heapq.heappop(self._events)
            if kind == _COMPLETE:
                self._on_complete(t, *payload)
            else:
                self._on_hedge(t, payload)

    def _on_complete(self, t: float, sub: _Sub, worker: ShardWorker,
                     rows, exists, service_ns: float, hedged: bool) -> None:
        sub.inflight -= 1
        if sub.done:
            # a hedge raced the primary (or vice versa); the slot was
            # already resolved by the winner — drop, count, move on
            self.duplicate_completions += 1
            return
        if not worker.alive_at(t):
            # the worker died with this completion in flight: lost.
            # Retry on a sibling replica unless a hedge is still out.
            self.retries += 1
            if not self._dispatch_sub(sub, t) and sub.inflight == 0:
                self._fail_sub(sub, worker, t)
            return
        sub.done = True
        if hedged:
            worker.hedge_wins += 1
        self._samples.append(float(service_ns))
        self._gather(sub, rows, exists, t, service_ns)

    def _on_hedge(self, t: float, sub: _Sub) -> None:
        if sub.done:
            return
        if self._dispatch_sub(sub, t, hedge=True):
            self.hedges_launched += 1
            gather = sub.gather
            if gather.span is not None:
                # the wait that triggered the hedge: batch close to the
                # percentile deadline that just fired
                self.tracer.record(
                    "hedge-wait", "router", start_ns=gather.scatter_ns,
                    end_ns=t, parent=gather.span,
                    meta={"shard": sub.shard},
                )

    # -- gather -----------------------------------------------------------
    def _gather(self, sub: _Sub, rows, exists, t: float,
                service_ns: float) -> None:
        closed_ns = sub.gather.batch.closed_ns
        for row, reqs in zip(rows, sub.node_items):
            for req in reqs:
                self._complete(req, row, closed_ns, t)
        for flag, reqs in zip(exists, sub.edge_items):
            for req in reqs:
                self._complete(req, bool(flag), closed_ns, t)
        self._finish_sub(sub, service_ns, t)

    def _finish_sub(self, sub: _Sub, service_ns: float, t: float) -> None:
        """Account one finished (gathered or failed) sub against its
        batch; the batch's metrics record when the last sub lands,
        with the slowest sub as the batch's service time."""
        gather = sub.gather
        gather.remaining -= 1
        gather.service_ns = max(gather.service_ns, float(service_ns))
        if gather.remaining == 0:
            if gather.span is not None:
                self.tracer.end(gather.span, t)
            batch = gather.batch
            self.metrics.record_batch(
                len(batch), batch.closed_by, batch.plan.duplicates,
                gather.service_ns,
            )

    def _complete(self, req: Request, value, dispatch_ns: float,
                  complete_ns: float) -> None:
        req.dispatch_ns = float(dispatch_ns)
        req.complete_ns = float(complete_ns)
        slot = self._slots.pop(req.ticket, None)
        if slot is None:  # pragma: no cover - would be a demux bug
            raise ClusterError(f"no reply slot for ticket {req.ticket}")
        slot._resolve(DONE, value)
        self._end_root(req.ticket, complete_ns)
        tenant = req.tenant
        self._release(tenant)
        self._tenant_completed[tenant] = (
            self._tenant_completed.get(tenant, 0) + 1
        )
        self.metrics.record_reply(req.wait_ns, req.latency_ns)

    def _fail_sub(self, sub: _Sub, worker: ShardWorker | None,
                  t: float) -> None:
        sub.done = True
        replicas = len(self.by_shard[sub.shard])
        last = (f"last worker {worker.worker_id}" if worker is not None
                else "none reachable")
        error = ClusterError(
            f"shard {sub.shard}: all {replicas} replicas down "
            f"({last}, {sub.attempts} attempts)"
        )
        for reqs in list(sub.node_items) + list(sub.edge_items):
            for req in reqs:
                slot = self._slots.pop(req.ticket, None)
                if slot is None:  # pragma: no cover - demux bug guard
                    continue
                req.complete_ns = float(t)
                slot._fail(error)
                self._end_root(req.ticket, float(t), status="failed")
                self._release(req.tenant)
                self.failed_requests += 1
        self._finish_sub(sub, 0.0, t)

    # -- observability ----------------------------------------------------
    def cluster_stats(self) -> ClusterStats:
        """Per-worker / per-shard / per-tenant breakdowns plus the
        hedging, retry, and failure counters."""
        now = self._clock()
        return ClusterStats(
            shards=self.num_shards,
            replicas=len(self.by_shard[0]),
            per_worker=tuple(
                WorkerStats(
                    worker_id=w.worker_id,
                    shard_id=w.shard_id,
                    alive=w.alive_at(now),
                    subs_served=w.subs_served,
                    requests_served=w.requests_served,
                    busy_ns=w.busy_ns,
                    hedge_wins=w.hedge_wins,
                )
                for w in self.workers
            ),
            per_shard=dict(self._per_shard_subs),
            per_tenant=dict(self._tenant_completed),
            subs_dispatched=self.subs_dispatched,
            hedges_launched=self.hedges_launched,
            duplicate_completions=self.duplicate_completions,
            retries=self.retries,
            failed_requests=self.failed_requests,
            quota_rejected=self.quota_rejected,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Router(shards={self.num_shards}, "
            f"workers={len(self.workers)}, "
            f"hedge={self.config.hedge_percentile})"
        )
