"""The query server: workload stream → coalescer → batched kernels.

:class:`GraphQueryServer` is the glue the ROADMAP's "heavy traffic"
framing was missing: it accepts *independent* requests one at a time,
lets admission control bound the queue, lets the coalescer turn the
queue into micro-batches, dispatches each batch through a
:class:`~repro.query.engine.QueryEngine` (so any
:class:`~repro.query.stores.GraphStore`, optional
:class:`~repro.query.rowcache.RowCache`, and any
:class:`~repro.parallel.machine.Executor` all plug in unchanged), and
demuxes the kernel outputs back onto each ticket's
:class:`~repro.serve.request.ReplySlot`.

Replies are **bit-exact** to direct per-request ``QueryEngine`` calls:
dispatch runs the very same Algorithm 6/7 batch kernels, and in-batch
dedup only routes several tickets to one kernel lane — it never
changes what the kernel computes (property-tested across stores,
executors, and admission policies in ``tests/serve``).

The server is synchronous and event-driven — ``submit`` and ``pump``
do all the work inline — which keeps results deterministic under the
injectable clock while exercising exactly the queueing structure a
threaded front-end would have.

The request lifecycle itself (validation, admission, reply slots,
analytics jobs, snapshots) lives in :class:`FrontDoor`, which the
cluster :class:`~repro.cluster.Router` inherits too; the server adds
writes and local dispatch, and :meth:`GraphQueryServer.run_batch` is
the kernel step both local dispatch and shard workers run.
"""

from __future__ import annotations

import time
from collections import deque

from ..errors import QueryError, ReproError, ValidationError
from ..obs import NULL_TRACER, MetricsRegistry, Tracer, register_server
from ..parallel.machine import Executor
from ..query.capabilities import capabilities
from ..query.edges import Method
from ..query.engine import QueryEngine
from ..query.rowcache import RowCache
from ..utils import require
from .admission import AdmissionController
from .coalescer import MicroBatch, MicroBatchCoalescer
from .metrics import ServeMetrics, ServeSnapshot
from .config import ServerConfig
from .request import (
    DONE,
    REJECTED,
    SHED,
    AnalyticsRequest,
    JobHandle,
    ReadRequest,
    ReplySlot,
    Request,
    WriteRequest,
    default_clock,
)

__all__ = ["FrontDoor", "GraphQueryServer"]


class FrontDoor:
    """The request lifecycle every serving front door shares.

    :class:`GraphQueryServer` and the cluster
    :class:`~repro.cluster.Router` both inherit it: request validation,
    ticketing and root sampling, admission (reject, shed-oldest or
    block) in front of the coalescer, reply slots, analytics jobs,
    ``snapshot`` and the metrics-registry wiring.  A subclass supplies
    how a closed batch is served (:meth:`_dispatch`) and where a job's
    stepper runs (:meth:`_job_graph`); everything else is written once
    here, so both front doors behave alike by construction.

    Subclasses set every attribute :func:`~repro.obs.register_server`
    probes (``engine`` for the row-cache source) before calling
    ``super().__init__``.
    """

    #: layer of the request root spans
    _layer = "serve"
    #: registry source prefix
    _prefix = "server"
    #: request types :meth:`submit` accepts
    _request_types: tuple = (ReadRequest,)
    #: write-capable store whose LSM stats join :meth:`snapshot`
    _write_target = None

    def __init__(self, config: ServerConfig, *, clock, tracer=None):
        self.config = config
        self._clock = clock
        self.coalescer = MicroBatchCoalescer(
            config.max_batch_size, config.max_wait_ns, clock=clock
        )
        self.admission = AdmissionController(config.queue_capacity,
                                             config.policy)
        self.metrics = ServeMetrics()
        self._slots: dict[int, ReplySlot] = {}
        self._jobs: deque[JobHandle] = deque()
        self._next_ticket = 0
        if tracer is None:
            tracer = (
                Tracer(config.obs, clock=clock)
                if config.obs is not None and config.obs.enabled
                else NULL_TRACER
            )
        self.tracer = tracer
        # plain-bool mirror of tracer.enabled: submit/_dispatch test it
        # per request, and a property lookup is measurable at 10k qps
        self._obs = tracer.enabled
        self._traced: dict[int, int] = {}
        self._traced_jobs: dict[int, int] = {}
        self.registry = MetricsRegistry()
        register_server(self.registry, self, prefix=self._prefix)

    # -- the request lifecycle ------------------------------------------
    def submit(self, request: Request) -> ReplySlot:
        """Admit one request; returns its reply handle immediately.

        The slot may already be terminal on return: ``rejected`` under
        the reject policy at capacity, or ``done`` when this submit
        closed a batch (by size, by an expired window, or by the
        ``block`` policy draining to make room).
        """
        if isinstance(request, AnalyticsRequest):
            raise ValidationError(
                "analytics requests are long-running jobs — submit them "
                "through submit_job(), not submit()"
            )
        if not isinstance(request, self._request_types) or (
            type(request) is ReadRequest
        ):
            raise ValidationError(self._unsupported(request))
        require(request.ticket < 0, "request was already submitted")
        now = self._clock()
        request.ticket = self._next_ticket
        self._next_ticket += 1
        request.enqueue_ns = now
        slot = ReplySlot(request)
        # root sampling: only top-level submits start a trace
        if self._obs and self.tracer.sample_root():
            self._traced[request.ticket] = self.tracer.begin(
                "request", self._layer, ticket=request.ticket, start_ns=now,
                meta=self._root_meta(request),
            )
        return self._admit(request, slot, now)

    def _unsupported(self, request: Request) -> str:
        return f"unsupported request type {type(request).__name__}"

    def _root_meta(self, request: Request) -> dict:
        return {"kind": type(request).__name__}

    def _admit(self, request: Request, slot: ReplySlot,
               now: float) -> ReplySlot:
        """Queue admission: decide, then reject, shed the oldest queued
        request, or block (serve a batch to make room); then offer to
        the coalescer and pump."""
        decision = self.admission.decide(self.coalescer.pending)
        if decision == "reject":
            slot._resolve(REJECTED)
            self._end_root(request.ticket, now, status="rejected")
            return slot
        if decision == "shed":
            victim = self.coalescer.evict_oldest()
            self._slots.pop(victim.ticket)._resolve(SHED)
            self._end_root(victim.ticket, now, status="shed")
            self._on_shed(victim)
        elif decision == "block":
            # backpressure: serve a batch now so the queue has room
            batch = self.coalescer.close_batch(now, "flush")
            if batch is not None:
                self._dispatch(batch)
        self._slots[request.ticket] = slot
        self.coalescer.offer(request)
        self.admission.record_admitted(self.coalescer.pending)
        self.metrics.record_depth(self.coalescer.pending)
        self.pump(now)
        return slot

    def _on_shed(self, victim: Request) -> None:
        """Hook: an admitted request was shed from the queue."""

    def _dispatch(self, batch: MicroBatch) -> None:  # pragma: no cover
        raise NotImplementedError

    def pump(self, now: float | None = None) -> int:
        """Dispatch every batch the coalescer considers closed at
        *now* (size reached, or wait window expired), then grant the
        front analytics job its work slices; returns the number of
        batches served.  Call between arrivals when driving the server
        from a schedule."""
        served = 0
        while (batch := self.coalescer.poll(now)) is not None:
            self._dispatch(batch)
            served += 1
        self._pump_jobs()
        return served

    def next_wakeup_ns(self) -> float | None:
        """Earliest clock time at which :meth:`pump` would have work —
        the oldest queued request's window expiry (``None`` when the
        queue is empty).  Virtual-time drivers (the closed-loop load
        harness, the cluster router) advance their clock here instead
        of polling."""
        return self.coalescer.next_close_ns

    def drain(self) -> int:
        """Flush and serve everything still queued, then run every
        analytics job to completion (shutdown path); returns the
        number of batches served.  Afterwards every accepted ticket's
        slot and every job handle is terminal."""
        served = 0
        for batch in self.coalescer.flush(self._clock()):
            self._dispatch(batch)
            served += 1
        served += self._settle()
        while self._jobs:
            self._pump_jobs()
        return served

    def _settle(self) -> int:
        """Hook: serve work still in flight after the drain's flush;
        returns batches served meanwhile (none on a local server)."""
        return 0

    def _end_root(self, ticket: int, end_ns: float,
                  status: str | None = None) -> None:
        """Close a traced request's root span (no-op for untraced)."""
        sid = self._traced.pop(ticket, None)
        if sid is not None:
            if status is not None:
                self.tracer.annotate(sid, status=status)
            self.tracer.end(sid, end_ns)

    # -- analytics jobs -------------------------------------------------
    def submit_job(self, request: AnalyticsRequest) -> JobHandle:
        """Admit one analytics job; returns its handle immediately.

        The job's :class:`~repro.algorithms.base.AlgorithmStepper` is
        built over :meth:`_job_graph`, then queued FIFO: every
        :meth:`pump` grants the front job ``config.job_slice_steps``
        bounded work slices after serving point traffic, so analytics
        progress rides along with live queries instead of
        monopolising the engine.  Unknown algorithm names and bad
        parameters raise here, at submit time.
        """
        from ..algorithms import make_stepper

        if not isinstance(request, AnalyticsRequest):
            raise ValidationError(
                f"submit_job takes an AnalyticsRequest, got "
                f"{type(request).__name__}"
            )
        require(request.ticket < 0, "request was already submitted")
        store, executor = self._job_graph()
        stepper = make_stepper(request.algorithm, store, executor,
                               **dict(request.params))
        now = self._clock()
        request.ticket = self._next_ticket
        self._next_ticket += 1
        request.enqueue_ns = now
        request.dispatch_ns = now
        tracer = self.tracer
        if self._obs and tracer.sample_root():
            self._traced_jobs[request.ticket] = tracer.begin(
                "job", "algorithms", ticket=request.ticket, start_ns=now,
                meta={"algorithm": request.algorithm},
            )
        handle = JobHandle(request, stepper)
        self._jobs.append(handle)
        return handle

    def _job_graph(self):  # pragma: no cover - every subclass overrides
        """``(store, executor)`` an analytics job's stepper runs on."""
        raise NotImplementedError

    @property
    def active_jobs(self) -> int:
        """Analytics jobs queued or running (FIFO; the front one gets
        the pump slices)."""
        return len(self._jobs)

    def _pump_jobs(self) -> None:
        """Grant the front job one slice allowance; a job that reached
        a terminal state leaves the queue."""
        if self._jobs and self._advance_job(self._jobs[0]):
            self._finish_job(self._jobs.popleft())

    def _advance_job(self, handle: JobHandle) -> bool:
        """Grant one slice allowance inside a ``job-slice`` span (when
        the job is traced); returns whether the job finished."""
        jsid = self._traced_jobs.get(handle.request.ticket)
        if jsid is None:
            return handle._advance(self.config.job_slice_steps)
        # scope the cost observer to the traced slice on the stepper's
        # own executor, mirroring the batch kernel step
        executor = handle._stepper.executor
        executor.cost_observer = self.tracer.on_cost
        try:
            with self.tracer.span("job-slice", "algorithms",
                                  ticket=handle.request.ticket, parent=jsid):
                return handle._advance(self.config.job_slice_steps)
        finally:
            executor.cost_observer = None

    def _finish_job(self, handle: JobHandle) -> None:
        """Stamp completion and close the job's root span (if traced)."""
        handle.request.complete_ns = float(self._clock())
        jsid = self._traced_jobs.pop(handle.request.ticket, None)
        if jsid is not None:
            self.tracer.end(jsid, handle.request.complete_ns)

    # -- observability --------------------------------------------------
    def snapshot(self, *, elapsed_s: float | None = None) -> ServeSnapshot:
        """Current serve metrics merged with the admission counters
        (and the write target's LSM stats, when one is wired)."""
        stats_fn = getattr(self._write_target, "stats", None)
        return self.metrics.snapshot(
            self.admission.stats(),
            elapsed_s=elapsed_s,
            lsm=stats_fn() if callable(stats_fn) else None,
        )


class GraphQueryServer(FrontDoor):
    """Micro-batching front-end over a graph store.

    Parameters
    ----------
    store:
        Any :class:`~repro.query.stores.GraphStore` (CSR, packed CSR,
        baselines, or an already-wrapped :class:`RowCache`).
    executor:
        Where batches run; defaults to the engine's serial executor.
    config:
        A :class:`~repro.serve.config.ServerConfig` carrying every
        serving knob (cache elements, coalescer bounds, admission
        bounds, edge method) — the construction path
        :func:`~repro.serve.config.open_server` uses.
    clock:
        Nanosecond monotonic clock for every lifecycle stamp;
        injectable (:class:`~repro.serve.request.ManualClock`) for
        deterministic tests and virtual-time latency studies.
    tracer:
        An explicit :class:`~repro.obs.Tracer` to share (the cluster
        passes one tracer to every shard worker); defaults to a fresh
        tracer when ``config.obs`` asks for one, else the no-op
        :data:`~repro.obs.NULL_TRACER`.
    """

    _request_types = (ReadRequest, WriteRequest)

    def __init__(
        self,
        store,
        executor: Executor | None = None,
        *,
        config: ServerConfig | None = None,
        clock=default_clock,
        tracer=None,
        **removed,
    ):
        if removed:
            raise ReproError(
                f"GraphQueryServer(store, **kwargs) was removed: pass "
                f"{', '.join(sorted(removed))} via a repro.serve."
                f"ServerConfig and call open_server(config)"
            )
        if config is None:
            config = ServerConfig()
        if config.cache_elements and not isinstance(store, RowCache):
            store = RowCache(store, capacity=config.cache_elements)
        self.engine = QueryEngine(store, executor)
        self.edge_method: Method = config.edge_method
        # the write target is the store under any RowCache wrap — a
        # WriteRequest mutates it directly, then invalidates the
        # touched row so no pre-write copy can ever be served
        target = self._raw_store()
        self._write_target = (
            target if capabilities(target).supports_writes else None
        )
        super().__init__(config, clock=clock, tracer=tracer)

    @property
    def store(self):
        """The (possibly cache-wrapped) store batches run against."""
        return self.engine.store

    @property
    def row_cache(self) -> RowCache | None:
        """The wrapping :class:`RowCache`, when one is in the path."""
        store = self.engine.store
        return store if isinstance(store, RowCache) else None

    def _raw_store(self):
        """The store under any :class:`RowCache` wrap."""
        store = self.engine.store
        return store.store if isinstance(store, RowCache) else store

    def _admit(self, request: Request, slot: ReplySlot,
               now: float) -> ReplySlot:
        if isinstance(request, WriteRequest):
            return self._apply_write(request, slot, now)
        return super()._admit(request, slot, now)

    def _job_graph(self):
        # jobs read the raw store (under any cache wrap) on the
        # engine's executor
        return self._raw_store(), self.engine.executor

    def _apply_write(self, request: WriteRequest, slot: ReplySlot,
                     now: float) -> ReplySlot:
        """Apply one edge mutation inline, bypassing the coalescer.

        Writes need no batching (each is one memtable upsert) and must
        be visible to every later read, so they execute at submit time:
        mutate the write target, invalidate the touched row in the
        cache, and run the watermark compaction check.  The slot
        resolves DONE with the applied/no-op bool immediately.
        """
        if self._write_target is None:
            raise ValidationError(
                "store does not support writes (serve writes need a "
                "write-capable store such as the lsm kind)"
            )
        if request.op not in ("insert", "delete"):
            raise ValidationError(
                f"unknown write op {request.op!r} (known: insert, delete)"
            )
        root = self._traced.get(request.ticket)
        wsid = None
        if root is not None:
            wsid = self.tracer.begin(
                "write", "lsm", ticket=request.ticket, parent=root,
                start_ns=now, meta={"op": request.op},
            )
        t0 = time.perf_counter_ns()
        if request.op == "insert":
            applied = self._write_target.insert_edge(request.u, request.v)
        else:
            applied = self._write_target.delete_edge(request.u, request.v)
        cache = self.row_cache
        if cache is not None and applied:
            cache.invalidate([request.u])
        compact = getattr(self._write_target, "maybe_compact", None)
        if callable(compact):
            # compaction rewrites every row's backing segment; contents
            # are bit-exact, so resident cached rows stay valid
            compact()
        service_ns = time.perf_counter_ns() - t0
        request.dispatch_ns = now
        request.complete_ns = max(float(now), float(self._clock()))
        if wsid is not None:
            self.tracer.annotate(wsid, applied=bool(applied))
            self.tracer.end(wsid, request.complete_ns)
            self._end_root(request.ticket, request.complete_ns)
        slot._resolve(DONE, applied)
        # writes live in their own counters (writes / write_noops /
        # write percentiles) — the read-side completed/batch metrics
        # keep describing only coalesced query traffic
        self.metrics.record_write(service_ns, applied)
        return slot

    # -- batch dispatch -------------------------------------------------
    def _dispatch(self, batch: MicroBatch) -> None:
        plan = batch.plan
        parent = meta = None
        if self._obs:
            # the dispatch span hangs off the first traced root in the
            # batch; per-request enqueue spans are recorded at
            # _complete, so this scan stops at the first hit instead of
            # walking the whole batch
            traced = self._traced
            for lane in (plan.neighbor_requests, plan.edge_requests):
                for req in lane:
                    parent = traced.get(req.ticket)
                    if parent is not None:
                        break
                if parent is not None:
                    break
            meta = {"batch_size": len(batch), "closed_by": batch.closed_by}
        rows, exists, service_ns = self.run_batch(
            plan.unique_nodes, plan.unique_edges, parent=parent, meta=meta
        )
        # completion is stamped on the server clock at dispatch (never
        # before the batch's analytic close time): under a manual clock
        # latency is pure queueing/poll-cadence time, under the wall
        # clock it also includes kernel time
        done_ns = max(float(batch.closed_ns), float(self._clock()))
        self.metrics.record_batch(
            len(batch), batch.closed_by, plan.duplicates, service_ns
        )
        for req, lane in zip(plan.neighbor_requests, plan.node_lane):
            self._complete(req, rows[lane], batch.closed_ns, done_ns)
        for req, lane in zip(plan.edge_requests, plan.edge_lane):
            self._complete(req, bool(exists[lane]), batch.closed_ns, done_ns)

    def run_batch(self, nodes, edges, *, parent: int | None = None,
                  meta: dict | None = None):
        """The kernel step of one deduplicated batch.

        Runs the neighbour kernel over *nodes* and the edge kernel
        over the ``(u, v)`` rows of *edges*, both unique keys in
        kernel-input order; returns ``(rows, exists, service_ns)``
        with one row / one flag per key and the measured kernel
        nanoseconds.  When the batch is traced the kernels run inside
        a ``dispatch`` span (*meta* its metadata) under *parent* — or,
        without one, under the innermost open span, which is how a
        shard worker's kernels nest under the router's ``sub`` span —
        with the executor's cost observer scoped to the span.
        """
        tracer = self.tracer
        if parent is None and self._obs:
            parent = tracer.current()
        if parent is None:
            return self._run_kernels(nodes, edges, NULL_TRACER)
        # kernel phases report their declared Cost to the innermost
        # open span; the observer is scoped to traced batches — an
        # always-installed hook fires on every phase of every untraced
        # batch just to throw the cost away
        executor = self.engine.executor
        executor.cost_observer = tracer.on_cost
        try:
            with tracer.span("dispatch", "serve", parent=parent,
                             meta=meta) as dsid:
                rows, exists, service_ns = self._run_kernels(nodes, edges,
                                                             tracer)
                tracer.annotate(dsid, service_ns=float(service_ns))
        finally:
            executor.cost_observer = None
        return rows, exists, service_ns

    def _run_kernels(self, nodes, edges, tracer):
        """Run the neighbor/edge kernels inside kernel spans.

        *tracer* is the live tracer for traced batches (each kernel
        span sits innermost on the stack, so the executor's cost
        observer charges the kernel's declared Cost to it) and the
        null tracer for untraced ones.
        """
        t0 = time.perf_counter_ns()
        rows = exists = []
        if nodes.shape[0]:
            with tracer.span("kernel:neighbors", "query",
                             meta={"keys": int(nodes.shape[0])}):
                rows = self.engine.neighbors(nodes)
        if edges.shape[0]:
            with tracer.span("kernel:edges", "query",
                             meta={"keys": int(edges.shape[0])}):
                exists = self.engine.has_edges(edges, method=self.edge_method)
        return rows, exists, time.perf_counter_ns() - t0

    def _complete(self, req: Request, value, dispatch_ns: float,
                  complete_ns: float) -> None:
        req.dispatch_ns = float(dispatch_ns)
        req.complete_ns = complete_ns
        slot = self._slots.pop(req.ticket, None)
        if slot is None:  # pragma: no cover - would be a demux bug
            raise QueryError(f"no reply slot for ticket {req.ticket}")
        slot._resolve(DONE, value)
        if self._obs:
            sid = self._traced.pop(req.ticket, None)
            if sid is not None:
                # queue wait is analytic: submit stamp -> batch close
                self.tracer.record(
                    "enqueue", "serve", ticket=req.ticket,
                    start_ns=float(req.enqueue_ns),
                    end_ns=float(dispatch_ns), parent=sid,
                )
                self.tracer.end(sid, complete_ns)
        self.metrics.record_reply(req.wait_ns, req.latency_ns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphQueryServer(engine={self.engine!r}, "
            f"coalescer={self.coalescer!r}, admission={self.admission!r})"
        )
