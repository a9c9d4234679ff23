"""Integration: the monolithic serve path emits one coherent span tree.

A traced :class:`GraphQueryServer` must produce, per sampled request,
the root span plus the analytic queue-wait span, the batch dispatch
span, and the kernel spans underneath — with parent links intact and
the kernel cost equal to what a direct :class:`QueryEngine` run of the
same keys declares.  Sampling must thin roots, a disabled config must
cost nothing, and the registry snapshot must carry the serve + trace
sources.
"""

import numpy as np
import pytest

from repro.lsm import build_lsm_store
from repro.obs import NULL_TRACER, ObsConfig, subtree_cost
from repro.parallel import SerialExecutor
from repro.parallel.cost import Cost
from repro.query import QueryEngine
from repro.serve import (
    AnalyticsRequest,
    EdgeRequest,
    GraphQueryServer,
    ManualClock,
    NeighborsRequest,
    ServerConfig,
    WriteRequest,
    open_server,
)
from repro.stores import open_store


@pytest.fixture
def edges():
    rng = np.random.default_rng(11)
    n, m = 60, 500
    keys = np.unique(rng.integers(0, n * n, m))
    return keys // n, keys % n, n


@pytest.fixture
def packed(edges):
    src, dst, n = edges
    return open_store("packed", src, dst, n, sort=True)


def _server(store, **knobs):
    knobs.setdefault("obs", True)
    return GraphQueryServer(store, config=ServerConfig(**knobs),
                            clock=ManualClock())


def _serve(server, requests, gap_ns=1000.0):
    clock = server._clock
    slots = []
    for i, req in enumerate(requests):
        clock.advance_to(i * gap_ns)
        slots.append(server.submit(req))
        server.pump(clock())
    server.drain()
    return slots


def _by_name(spans):
    out = {}
    for s in spans:
        out.setdefault(s.name, []).append(s)
    return out


def _direct_cost(store, node):
    charged = []
    ex = SerialExecutor()
    ex.cost_observer = lambda label, cost: charged.append(cost)
    QueryEngine(store, ex).neighbors([node])
    total = Cost.zero()
    for c in charged:
        total = total + c
    return total


class TestRequestTree:
    def test_full_chain_with_parent_links(self, packed):
        server = _server(packed, max_batch_size=4)
        _serve(server, [NeighborsRequest(node=i) for i in range(8)]
               + [EdgeRequest(u=0, v=1)])
        spans = server.tracer.spans()
        named = _by_name(spans)
        roots = named["request"]
        assert len(roots) == 9
        assert all(s.layer == "serve" and s.parent_id is None for s in roots)
        root_ids = {s.span_id for s in roots}
        # every request got its analytic queue-wait span under its root
        assert len(named["enqueue"]) == 9
        assert all(s.parent_id in root_ids for s in named["enqueue"])
        # dispatches parent to the first traced root of their batch
        dispatch_ids = set()
        for d in named["dispatch"]:
            assert d.layer == "serve"
            assert d.parent_id in root_ids
            assert d.meta["batch_size"] >= 1
            dispatch_ids.add(d.span_id)
        # kernels sit under dispatches and carry real cost
        for k in named["kernel:neighbors"] + named.get("kernel:edges", []):
            assert k.layer == "query"
            assert k.parent_id in dispatch_ids
        assert any(k.cost != Cost.zero() for k in named["kernel:neighbors"])

    def test_kernel_cost_matches_direct_engine_run(self, packed):
        server = _server(packed, max_batch_size=1)
        _serve(server, [NeighborsRequest(node=5)])
        spans = server.tracer.spans()
        (root,) = [s for s in spans if s.name == "request"]
        assert subtree_cost(spans, root.span_id) == _direct_cost(packed, 5)

    def test_rejected_request_root_carries_status(self, packed):
        server = _server(packed, max_batch_size=100,
                         max_wait_ns=float("inf"),
                         queue_capacity=1, policy="reject")
        clock = server._clock
        server.submit(NeighborsRequest(node=0))
        server.submit(NeighborsRequest(node=1))  # over capacity: rejected
        server.drain()
        statuses = [s.meta.get("status") for s in server.tracer.spans()
                    if s.name == "request"]
        assert statuses.count("rejected") == 1


class TestWriteAndJobSpans:
    def test_write_span_under_root(self, edges):
        src, dst, n = edges
        server = _server(build_lsm_store(src, dst, n))
        server.submit(WriteRequest(op="insert", u=0, v=59))
        server.drain()
        spans = server.tracer.spans()
        named = _by_name(spans)
        (root,) = named["request"]
        (write,) = named["write"]
        assert write.layer == "lsm"
        assert write.parent_id == root.span_id
        assert write.meta["op"] == "insert"
        assert write.meta["applied"] is True

    @pytest.mark.parametrize("front", ["server", "router"])
    def test_job_and_slice_spans(self, packed, front):
        if front == "server":
            server = _server(packed, job_slice_steps=2)
        else:
            server = open_server(
                ServerConfig(store=packed, workers=2, obs=True,
                             job_slice_steps=2),
                clock=ManualClock(),
            )
        server.submit_job(AnalyticsRequest(algorithm="bfs",
                                           params={"source": 0}))
        server.drain()
        named = _by_name(server.tracer.spans())
        (job,) = named["job"]
        assert job.layer == "algorithms"
        assert job.meta["algorithm"] == "bfs"
        slices = named["job-slice"]
        assert slices and all(s.parent_id == job.span_id for s in slices)
        # the traversal's kernel cost lands inside the slices
        total = Cost.zero()
        for s in slices:
            total = total + s.cost
        assert total != Cost.zero()


class TestKnobs:
    def test_sampling_thins_roots(self, packed):
        server = _server(packed, obs=ObsConfig(sample_every=4),
                         max_batch_size=1)
        _serve(server, [NeighborsRequest(node=i) for i in range(8)])
        roots = [s for s in server.tracer.spans() if s.name == "request"]
        assert len(roots) == 2

    def test_obs_off_records_nothing(self, packed):
        server = GraphQueryServer(packed, config=ServerConfig(),
                                  clock=ManualClock())
        assert server.tracer is NULL_TRACER
        assert server.engine.executor.cost_observer is None
        _serve(server, [NeighborsRequest(node=0)])
        assert server.tracer.spans() == []

    def test_obs_false_means_off(self, packed):
        server = _server(packed, obs=False)
        assert server.tracer is NULL_TRACER

    def test_ring_capacity_bounds_spans(self, packed):
        server = _server(packed, obs=ObsConfig(capacity=4),
                         max_batch_size=1)
        _serve(server, [NeighborsRequest(node=i) for i in range(6)])
        assert len(server.tracer.spans()) == 4
        assert server.tracer.dropped > 0


class TestRegistryWiring:
    def test_snapshot_carries_serve_and_trace_sources(self, packed):
        server = _server(packed)
        _serve(server, [NeighborsRequest(node=0)])
        snap = server.registry.snapshot()
        assert snap["server.serve"]["completed"] == 1
        assert snap["server.trace"]["finished_spans"] >= 1
        assert snap["server.trace"]["sample_every"] == 1

    def test_untraced_server_omits_trace_source(self, packed):
        server = _server(packed, obs=None)
        snap = server.registry.snapshot()
        assert "server.trace" not in snap
        assert "server.serve" in snap
