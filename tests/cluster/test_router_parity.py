"""Property tests: routed serving is bit-exact, exactly-once, and fails fast.

The cluster router must be observationally identical to a monolithic
:class:`GraphQueryServer` for completed requests: for random request
interleavings over every shard store kind × worker/replica layout,
every routed reply equals a direct per-request :class:`QueryEngine`
call on an unsharded store of the same kind.  On top of parity, the
router's three tail mechanisms get their own guarantees: hedging never
double-resolves a slot (losing duplicates are dropped and counted),
a replica failure mid-flight is retried on a sibling, and when every
replica of a shard is down the affected tickets fail with a one-line
:class:`ClusterError` instead of hanging.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.csr.builder import ensure_sorted
from repro.errors import ClusterError, ValidationError
from repro.parallel import SimulatedMachine
from repro.query import QueryEngine
from repro.serve import (
    DONE,
    FAILED,
    REJECTED,
    SHED,
    EdgeRequest,
    ManualClock,
    NeighborsRequest,
    ServerConfig,
    WriteRequest,
    open_server,
)
from repro.stores import open_store

#: Store kinds each shard replica can serve (sharded via open_store).
SHARD_KINDS = ["csr", "packed", "gap", "adjlist", "edgelist"]

#: (workers, replicas) layouts: monolithic-on-router, sharded,
#: replicated single shard, and sharded+replicated.
LAYOUTS = [(1, 1), (2, 1), (2, 2), (4, 2)]


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 20))
    m = draw(st.integers(0, 60))
    src = np.asarray(
        draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.int64
    )
    dst = np.asarray(
        draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.int64
    )
    src, dst = ensure_sorted(src, dst)
    return src, dst, n


@st.composite
def request_streams(draw, n):
    """A random interleaving of neighbour and edge requests with gaps."""
    k = draw(st.integers(0, 40))
    stream = []
    t = 0.0
    for _ in range(k):
        t += draw(st.integers(0, 300))
        if draw(st.booleans()):
            stream.append((t, NeighborsRequest(node=draw(st.integers(0, n - 1)))))
        else:
            stream.append(
                (t, EdgeRequest(u=draw(st.integers(0, n - 1)),
                                v=draw(st.integers(0, n - 1))))
            )
    return stream


def _assert_reply_correct(slot, engine):
    req = slot.request
    if isinstance(req, NeighborsRequest):
        want = engine.neighbors([req.node])[0]
        got = slot.result()
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    else:
        assert slot.result() == bool(engine.has_edges([(req.u, req.v)])[0])


def _cluster(src, dst, n, *, workers, replicas, kind="packed", **overrides):
    clock = ManualClock()
    config = ServerConfig(
        store_kind=kind,
        edges=(src, dst, n),
        workers=workers,
        replicas=replicas,
        cluster=True,
        **overrides,
    )
    return open_server(config, clock=clock), clock


def _dense_edges(seed=7, n=40, m=300):
    rng = np.random.default_rng(seed)
    src = np.sort(rng.integers(0, n, m))
    dst = rng.integers(0, n, m)
    src, dst = ensure_sorted(src, dst)
    return src, dst, n


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), edges=edge_lists())
@pytest.mark.parametrize("workers,replicas", LAYOUTS,
                         ids=[f"{w}w-{r}r" for w, r in LAYOUTS])
def test_routed_replies_bit_exact(workers, replicas, data, edges):
    """Scatter-gather across any layout equals the monolithic engine."""
    src, dst, n = edges
    kind = data.draw(st.sampled_from(SHARD_KINDS))
    engine = QueryEngine(open_store(kind, src, dst, n))
    router, clock = _cluster(
        src, dst, n,
        workers=workers, replicas=replicas, kind=kind,
        max_batch_size=data.draw(st.integers(1, 8)),
        max_wait_ns=float(data.draw(st.integers(0, 500))),
        queue_capacity=1 << 16,
    )
    slots = []
    for arrival, req in data.draw(request_streams(n)):
        clock.advance_to(arrival)
        router.pump(clock())
        slots.append(router.submit(req))
    router.drain()
    for slot in slots:
        assert slot.status == DONE
        _assert_reply_correct(slot, engine)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), edges=edge_lists())
@pytest.mark.parametrize("policy", ["reject", "shed-oldest", "block"])
def test_routed_tickets_resolved_exactly_once(policy, data, edges):
    """Every routed ticket ends in exactly one terminal state, with the
    router's snapshot and cluster counters agreeing with the slots."""
    src, dst, n = edges
    engine = QueryEngine(open_store("packed", src, dst, n))
    router, clock = _cluster(
        src, dst, n,
        workers=2, replicas=1,
        max_batch_size=data.draw(st.integers(1, 6)),
        max_wait_ns=float(data.draw(st.integers(0, 1000))),
        queue_capacity=data.draw(st.integers(1, 6)),
        policy=policy,
    )
    slots = []
    for arrival, req in data.draw(request_streams(n)):
        clock.advance_to(arrival)
        slots.append(router.submit(req))
    router.drain()

    # ReplySlot._resolve raises on double resolution, so reaching a
    # terminal state here proves exactly-once delivery
    assert all(s.ready for s in slots)
    statuses = [s.status for s in slots]
    snap = router.snapshot()
    stats = router.cluster_stats()
    assert statuses.count(DONE) == snap.completed
    assert statuses.count(REJECTED) == snap.rejected
    assert statuses.count(SHED) == snap.shed
    assert statuses.count(FAILED) == stats.failed_requests == 0
    assert len(slots) == snap.accepted + snap.rejected
    assert sum(stats.per_shard.values()) == stats.subs_dispatched
    for slot in slots:
        if slot.status == DONE:
            _assert_reply_correct(slot, engine)


class TestFailureInjection:
    """Replica failure: retries when a sibling is up, fast one-line
    failure when the whole replica set is down — never a hung slot."""

    def test_retry_on_replica_failure_mid_flight(self):
        src, dst, n = _dense_edges()
        engine = QueryEngine(open_store("packed", src, dst, n))
        router, clock = _cluster(src, dst, n, workers=2, replicas=2,
                                 max_batch_size=16, max_wait_ns=100.0)
        rng = np.random.default_rng(11)
        slots = [router.submit(NeighborsRequest(node=int(u)))
                 for u in rng.integers(0, n, 48)]
        # completions are in flight; kill the busiest worker just after
        # "now", so its landed-in-the-future replies are lost
        victim = max(router.workers, key=lambda w: w.busy_until)
        victim.fail(clock() + 1.0)
        router.drain()
        assert router.retries >= 1
        for slot in slots:
            assert slot.status == DONE
            _assert_reply_correct(slot, engine)

    def test_all_replicas_down_fails_with_one_line_cluster_error(self):
        src, dst, n = _dense_edges()
        router, clock = _cluster(src, dst, n, workers=2, replicas=2,
                                 max_batch_size=8, max_wait_ns=50.0)
        for worker in router.workers:
            worker.fail()
        slots = [router.submit(NeighborsRequest(node=i)) for i in range(20)]
        router.drain()  # must terminate: no hang on a dead replica set
        stats = router.cluster_stats()
        assert stats.failed_requests == len(slots)
        for slot in slots:
            assert slot.status == FAILED
            with pytest.raises(ClusterError, match=r"shard 0: all 2 replicas down"):
                slot.result()
            assert "\n" not in str(slot.error)
            assert "attempts" in str(slot.error)

    def test_failure_after_dispatch_names_last_worker(self):
        src, dst, n = _dense_edges()
        router, clock = _cluster(src, dst, n, workers=2, replicas=2,
                                 max_batch_size=4, max_wait_ns=0.0)
        slot = router.submit(NeighborsRequest(node=1))
        # the sub was dispatched on submit (zero-wait window); now the
        # whole replica set dies before the completion lands
        for worker in router.workers:
            worker.fail(clock() + 1.0)
        router.drain()
        assert slot.status == FAILED
        assert "last worker" in str(slot.error)
        assert router.retries >= 1

    def test_worker_alive_until_its_failure_time(self):
        src, dst, n = _dense_edges()
        router, clock = _cluster(src, dst, n, workers=2, replicas=2,
                                 max_batch_size=4, max_wait_ns=0.0)
        worker = router.workers[0]
        worker.fail(at_ns=1e9)
        slot = router.submit(NeighborsRequest(node=1))
        router.drain()
        assert slot.status == DONE
        assert worker.subs_served == 1
        assert router.cluster_stats().per_worker[0].alive
        clock.advance_to(1e9)
        assert not router.cluster_stats().per_worker[0].alive
        assert router.cluster_stats().per_worker[1].alive

    def test_failed_requests_do_not_count_as_completed(self):
        src, dst, n = _dense_edges()
        router, clock = _cluster(src, dst, n, workers=2, replicas=1,
                                 max_batch_size=8, max_wait_ns=50.0)
        router.workers[0].fail()
        slots = []
        for i in range(100):
            clock.advance(20.0)
            slots.append(router.submit(
                NeighborsRequest(node=i % n, tenant="b")))
        router.drain()
        stats = router.cluster_stats()
        done = [s for s in slots if s.status == DONE]
        assert 0 < len(done) < len(slots)
        assert stats.failed_requests == len(slots) - len(done)
        assert sum(stats.per_tenant.values()) == router.snapshot().completed
        assert stats.per_tenant == {"b": len(done)}

    def test_recovered_worker_rejoins_selection(self):
        src, dst, n = _dense_edges()
        router, clock = _cluster(src, dst, n, workers=2, replicas=2,
                                 max_batch_size=4, max_wait_ns=0.0)
        router.workers[0].fail()
        a = router.submit(NeighborsRequest(node=0))
        router.drain()
        router.workers[0].recover()
        b = router.submit(NeighborsRequest(node=0))
        router.drain()
        assert a.status == DONE and b.status == DONE
        assert router.cluster_stats().per_worker[0].alive


class TestHedging:
    """Straggler hedging: duplicates dropped and counted, replies
    exactly-once, results still bit-exact."""

    def _hedged_router(self, src, dst, n):
        router, clock = _cluster(
            src, dst, n,
            workers=2, replicas=2,
            max_batch_size=4, max_wait_ns=0.0,
            hedge_percentile=50.0, hedge_min_samples=1,
        )
        return router, clock

    def test_hedged_duplicates_dropped_and_counted(self):
        src, dst, n = _dense_edges()
        engine = QueryEngine(open_store("packed", src, dst, n))
        router, clock = self._hedged_router(src, dst, n)
        # warm the service-time sample window with both replicas fast,
        # so the hedge deadline reflects healthy latencies...
        slots = []
        rng = np.random.default_rng(3)
        for u in rng.integers(0, n, 10):
            clock.advance(50.0)
            router.pump(clock())
            slots.append(router.submit(NeighborsRequest(node=int(u))))
        router.drain()
        # ...then inject the straggler: subs landing on it would finish
        # far past the deadline, so they get hedged to the fast sibling
        router.workers[1].slow_factor = 100.0
        for u in rng.integers(0, n, 40):
            clock.advance(50.0)
            router.pump(clock())
            slots.append(router.submit(NeighborsRequest(node=int(u))))
        router.drain()
        assert router.hedges_launched >= 1
        # no failures here, so every hedge produces exactly one losing
        # duplicate completion — dropped, never double-resolved
        assert router.duplicate_completions == router.hedges_launched
        assert sum(w.hedge_wins for w in router.workers) >= 1
        snap = router.snapshot()
        assert snap.completed == len(slots)
        for slot in slots:
            assert slot.status == DONE
            _assert_reply_correct(slot, engine)

    def test_hedging_waits_for_warmup_samples(self):
        src, dst, n = _dense_edges()
        router, clock = _cluster(
            src, dst, n,
            workers=2, replicas=2,
            max_batch_size=4, max_wait_ns=0.0,
            hedge_percentile=50.0, hedge_min_samples=10_000,
        )
        router.workers[1].slow_factor = 100.0
        for u in range(30):
            clock.advance(50.0)
            router.submit(NeighborsRequest(node=u % n))
        router.drain()
        assert router.hedges_launched == 0


class TestRouterSurface:
    """Non-property behaviours of the router object itself."""

    def test_cluster_serving_is_read_only(self):
        src, dst, n = _dense_edges()
        router, _ = _cluster(src, dst, n, workers=2, replicas=1)
        with pytest.raises(ValidationError):
            router.submit(WriteRequest(op="insert", u=0, v=1))

    def test_double_submit_rejected(self):
        src, dst, n = _dense_edges()
        router, _ = _cluster(src, dst, n, workers=2, replicas=1)
        req = NeighborsRequest(node=0)
        router.submit(req)
        with pytest.raises(ValidationError):
            router.submit(req)

    def test_tenant_quota_rejects_excess_inflight(self):
        src, dst, n = _dense_edges()
        router, _ = _cluster(src, dst, n, workers=2, replicas=1,
                             max_batch_size=64, max_wait_ns=1e12,
                             tenant_quotas={"free": 1})
        a = router.submit(NeighborsRequest(node=1, tenant="free"))
        b = router.submit(NeighborsRequest(node=2, tenant="free"))
        c = router.submit(NeighborsRequest(node=3, tenant="paid"))
        assert b.status == REJECTED
        router.drain()
        assert a.status == DONE and c.status == DONE
        stats = router.cluster_stats()
        assert stats.quota_rejected == 1
        assert stats.per_tenant == {"free": 1, "paid": 1}

    def test_per_tenant_counts_only_completed_replies_under_shed(self):
        src, dst, n = _dense_edges()
        router, _ = _cluster(src, dst, n, workers=2, replicas=1,
                             max_batch_size=64, max_wait_ns=1e12,
                             queue_capacity=8, policy="shed-oldest",
                             tenant_quotas={"a": 9})
        slots = [router.submit(NeighborsRequest(node=i % n, tenant="a"))
                 for i in range(200)]
        router.drain()
        snap = router.snapshot()
        assert snap.completed == 8 and snap.shed == 192
        assert [s.status for s in slots].count(DONE) == 8
        stats = router.cluster_stats()
        assert stats.quota_rejected == 0  # shed victims gave quota back
        assert sum(stats.per_tenant.values()) == snap.completed
        assert stats.per_tenant == {"a": 8}

    def test_next_wakeup_tracks_window_then_events(self):
        src, dst, n = _dense_edges()
        router, clock = _cluster(src, dst, n, workers=2, replicas=1,
                                 max_batch_size=64, max_wait_ns=500.0)
        assert router.next_wakeup_ns() is None
        router.submit(NeighborsRequest(node=0))
        assert router.next_wakeup_ns() == 500.0  # oldest request's window
        clock.advance_to(500.0)
        router.pump(clock())
        wake = router.next_wakeup_ns()
        assert wake is not None and wake > 500.0  # in-flight completion
        router.drain()
        assert router.next_wakeup_ns() is None

    def test_per_worker_stats_cover_all_workers(self):
        src, dst, n = _dense_edges()
        router, clock = _cluster(src, dst, n, workers=4, replicas=2,
                                 max_batch_size=8, max_wait_ns=100.0)
        for u in range(60):
            clock.advance(20.0)
            router.pump(clock())
            router.submit(NeighborsRequest(node=u % n))
        router.drain()
        stats = router.cluster_stats()
        assert stats.shards == 2 and stats.replicas == 2
        assert len(stats.per_worker) == 4
        assert sum(w.requests_served for w in stats.per_worker) >= 60
        assert sum(stats.per_shard.values()) == stats.subs_dispatched


class TestShardWorker:
    """A worker serves its sub-batch straight through the kernel step."""

    def test_service_time_is_the_kernels_charged_cost(self):
        src, dst, n = _dense_edges()
        router, _ = _cluster(src, dst, n, workers=2, replicas=2)
        worker = router.workers[1]
        worker.slow_factor = 3.0
        nodes = np.array([5, 1, 9, 3], dtype=np.int64)
        edges = np.array([[1, 2], [5, 7], [0, 0]], dtype=np.int64)
        rows, exists, service_ns = worker.serve(nodes, edges)

        reference = QueryEngine(open_store("packed", src, dst, n))
        want = reference.neighbors(nodes)
        assert len(rows) == len(want)
        for got, row in zip(rows, want):
            assert got.dtype == row.dtype and np.array_equal(got, row)
        assert exists == [bool(f) for f in reference.has_edges(edges)]

        group = SimulatedMachine(2).split(2)[0]
        engine = QueryEngine(worker.server.store, group)
        engine.neighbors(nodes)
        engine.has_edges(edges, method=router.config.edge_method)
        assert service_ns == group.elapsed_ns() * 3.0
        assert worker.busy_ns == service_ns
        assert worker.subs_served == 1 and worker.requests_served == 7
