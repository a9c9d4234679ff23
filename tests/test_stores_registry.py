"""The store registry, open_store, and protocol conformance.

The conformance meta-test runs every *registered* store kind —
including the sharded composite — through the GraphStore contract:
isinstance against the protocol, row_dtype consistency between scalar
and batch paths, and the neighbors_batch offset invariants.
"""

import numpy as np
import pytest

from repro import available_stores, open_store, register_store
from repro.errors import QueryError, ValidationError
from repro.query import capabilities
from repro.query.stores import GraphStore, neighbors_batch
from repro.stores import get_store_spec


@pytest.fixture(scope="module")
def edges():
    # distinct (u, v) pairs: the dense-matrix baselines deduplicate,
    # so a multigraph would skew their num_edges
    rng = np.random.default_rng(0xBEEF)
    n = 60
    keys = np.unique(rng.integers(0, n * n, 400))
    src, dst = keys // n, keys % n
    order = np.lexsort((dst, src))
    return src[order], dst[order], n


@pytest.fixture(scope="module")
def built(edges):
    src, dst, n = edges
    return {kind: open_store(kind, src, dst, n) for kind in available_stores()}


class TestRegistry:
    def test_builtin_kinds_present(self):
        kinds = available_stores()
        for kind in ("csr", "csr-serial", "packed", "gap", "disk", "sharded",
                     "adjlist", "edgelist", "edgelist-unsorted",
                     "adjmatrix", "bitmatrix", "k2tree", "compact",
                     "reordered", "lsm"):
            assert kind in kinds

    def test_unknown_kind_lists_known(self):
        with pytest.raises(ValidationError, match="unknown store kind"):
            open_store("btree", None, None, 0)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError):
            register_store("csr", lambda *a, **k: None, "dup")

    def test_replace_and_custom_kind(self, edges):
        src, dst, n = edges
        spec = register_store(
            "test-custom", lambda s, d, n, **k: open_store("csr", s, d, n),
            "adapter for the conformance test", replace=True,
        )
        try:
            assert get_store_spec("test-custom") is spec
            store = open_store("test-custom", src, dst, n)
            assert store.num_edges == len(src)
        finally:
            from repro import stores as _stores

            _stores._REGISTRY.pop("test-custom", None)

    def test_executor_accepted_everywhere(self, edges):
        """Every registered builder takes executor= (used or ignored)."""
        from repro.parallel import SerialExecutor

        src, dst, n = edges
        for kind in available_stores():
            store = open_store(kind, src, dst, n, executor=SerialExecutor())
            assert store.num_edges >= 0

    def test_sharded_nested_inner_kind(self, edges):
        src, dst, n = edges
        store = open_store(
            "sharded", src, dst, n, shards=2, inner="gap", partitioner="hash"
        )
        assert store.shards[0].gap_encoded

    def test_lsm_nested_inner_kind(self, edges):
        src, dst, n = edges
        store = open_store("lsm", src, dst, n, inner="gap")
        assert store.segments[0].gap_encoded

    @pytest.mark.parametrize("outer,opts", [
        ("sharded", {"shards": 2}),
        ("lsm", {}),
        ("reordered", {}),
    ])
    def test_unknown_nested_inner_kind_names_composite(self, edges, outer, opts):
        """An unknown inner= fails with one line naming the composite
        it was nested in and listing the known kinds."""
        src, dst, n = edges
        with pytest.raises(
            ValidationError,
            match=f"unknown inner store kind 'btree' for {outer} store",
        ) as excinfo:
            open_store(outer, src, dst, n, inner="btree", **opts)
        assert "known:" in str(excinfo.value)
        assert "\n" not in str(excinfo.value).strip()

    def test_old_constructors_still_work(self, edges):
        """The registry is additive — direct construction is untouched."""
        from repro.csr import BitPackedCSR, build_csr_serial

        src, dst, n = edges
        g = build_csr_serial(src, dst, n)
        packed = BitPackedCSR.from_csr(g)
        assert packed.num_edges == g.num_edges == len(src)


class TestProtocolConformance:
    """Every registered kind satisfies the GraphStore contract."""

    @pytest.mark.parametrize("kind", sorted(
        # module-scope fixture can't parametrise itself; keep in sync
        # via the assertion inside test_builtin_kinds_present
        ["csr", "csr-serial", "packed", "gap", "disk", "sharded", "adjlist",
         "edgelist", "edgelist-unsorted", "adjmatrix", "bitmatrix", "k2tree",
         "compact", "reordered", "lsm"]
    ))
    def test_kind(self, built, edges, kind):
        src, dst, n = edges
        store = built[kind]
        assert isinstance(store, GraphStore)
        assert int(store.num_nodes) == n
        assert int(store.num_edges) == len(src)
        assert store.memory_bytes() > 0

        caps = capabilities(store)
        rng = np.random.default_rng(kind.encode()[0])
        us = rng.integers(0, n, 50)

        # scalar surface: neighbors dtype matches the declared row dtype
        row = store.neighbors(int(us[0]))
        assert row.dtype == caps.row_dtype
        assert store.degree(int(us[0])) == row.shape[0]

        # batch surface invariants (native or fallback): a random batch,
        # an empty one, and one of repeated, descending ids
        descending = np.concatenate([np.sort(us)[::-1], us[:7], us[:7]])
        for batch in (us, us[:0], descending):
            flat, offs = neighbors_batch(store, batch, caps)
            assert flat.dtype == caps.row_dtype
            assert offs.dtype == np.int64
            assert offs.shape == (len(batch) + 1,)
            assert int(offs[0]) == 0
            assert np.all(np.diff(offs) >= 0)
            assert int(offs[-1]) == flat.shape[0]
            for i, u in enumerate(batch.tolist()):
                assert np.array_equal(flat[offs[i]: offs[i + 1]], store.neighbors(u))

        # a 2-D, negative or out-of-range batch is a one-line QueryError
        for bad in (us.reshape(5, 10), np.array([0, -1]), np.array([n])):
            with pytest.raises(QueryError):
                neighbors_batch(store, bad, caps)

    def test_registry_and_parametrisation_in_sync(self, built):
        assert sorted(built) == sorted(
            ["csr", "csr-serial", "packed", "gap", "disk", "sharded", "adjlist",
             "edgelist", "edgelist-unsorted", "adjmatrix", "bitmatrix",
             "k2tree", "compact", "reordered", "lsm"]
        ), "new registered kinds must be added to TestProtocolConformance"
