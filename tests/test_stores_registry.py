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


def _live_lsm(src, dst, n, **opts):
    """An lsm store with a resident memtable: one insert, one delete."""
    store = open_store("lsm", src, dst, n, **opts)
    store.insert_edge(1, int(np.setdiff1d(np.arange(n), store.neighbors(1))[0]))
    store.delete_edge(int(src[0]), int(dst[0]))
    assert len(store.memtable) == 2
    return store


ROUND_TRIPS = {
    "packed": lambda s, d, n: open_store("packed", s, d, n),
    "gap": lambda s, d, n: open_store("gap", s, d, n),
    "compact": lambda s, d, n: open_store("compact", s, d, n),
    **{
        f"sharded-{inner}": (
            lambda s, d, n, inner=inner: open_store(
                "sharded", s, d, n, shards=3, partitioner="hash", inner=inner
            )
        )
        for inner in ("packed", "gap", "compact")
    },
    **{
        f"reordered-{inner}": (
            lambda s, d, n, inner=inner: open_store(
                "reordered", s, d, n, order="degree", inner=inner
            )
        )
        for inner in ("packed", "compact", "sharded")
    },
    **{
        f"lsm-{inner}": lambda s, d, n, inner=inner: _live_lsm(s, d, n, inner=inner)
        for inner in ("packed", "gap", "compact")
    },
}


class TestStoreFiles:
    """One .npz format: every savable nesting round-trips through
    save + load_store, and everything else refuses with one line."""

    @pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
    def test_round_trip_bit_exact(self, edges, tmp_path, case):
        from repro.stores import load_store

        src, dst, n = edges
        store = ROUND_TRIPS[case](src, dst, n)
        path = tmp_path / f"{case}.npz"
        store.save(path)
        loaded = load_store(path)
        assert type(loaded) is type(store)
        assert type(store).load(path).num_edges == store.num_edges
        ids = np.arange(n)
        f1, o1 = store.neighbors_batch(ids)
        f2, o2 = loaded.neighbors_batch(ids)
        assert f2.dtype == f1.dtype and np.array_equal(f1, f2)
        assert np.array_equal(o1, o2)

    def test_lsm_keeps_inner_opts(self, edges, tmp_path):
        from repro.lsm import LsmStore

        src, dst, n = edges
        store = open_store("lsm", src, dst, n, inner="packed", gap_encode=True)
        path = tmp_path / "lsm.npz"
        store.save(path)
        loaded = LsmStore.load(path)
        assert loaded.inner_opts == {"gap_encode": True}
        for lsm in (store, loaded):
            lsm.insert_edge(2, int(np.setdiff1d(np.arange(n), lsm.neighbors(2))[0]))
            lsm.compact()
            assert lsm.segments[0].gap_encoded

    @pytest.mark.parametrize("kind,opts", [
        ("sharded", {"shards": 2, "inner": "csr"}),
        ("sharded", {"shards": 2, "cache_elements": 64}),
        ("lsm", {"inner": "disk"}),
    ])
    def test_no_payload_refuses_in_one_line(self, edges, tmp_path, kind, opts):
        src, dst, n = edges
        store = open_store(kind, src, dst, n, **opts)
        with pytest.raises(ValidationError, match="no .npz form") as excinfo:
            store.save(tmp_path / "x.npz")
        assert "\n" not in str(excinfo.value)

    def test_unknown_kind_names_file(self, tmp_path):
        from repro.errors import ReproError
        from repro.stores import load_store

        path = tmp_path / "btree.npz"
        np.savez(path, store_kind="btree")
        with pytest.raises(ReproError, match="unknown store kind 'btree'") as excinfo:
            load_store(path)
        assert str(path) in str(excinfo.value)
        assert "\n" not in str(excinfo.value)

    def test_unrelated_npz_names_file(self, edges, tmp_path):
        from repro.csr import build_csr_serial
        from repro.csr.io import save_csr
        from repro.errors import ReproError
        from repro.stores import load_store

        src, dst, n = edges
        path = tmp_path / "graph.npz"
        save_csr(path, build_csr_serial(src, dst, n))
        with pytest.raises(ReproError, match="not a recognized store file") as excinfo:
            load_store(path)
        assert str(path) in str(excinfo.value)
        assert "\n" not in str(excinfo.value)

    def test_bare_npy_names_file(self, tmp_path):
        from repro.errors import ReproError
        from repro.stores import load_store

        path = tmp_path / "ids.npy"
        np.save(path, np.arange(4))
        with pytest.raises(ReproError, match="not a loadable store file") as excinfo:
            load_store(path)
        assert str(path) in str(excinfo.value)

    def test_packed_payload_key_layout(self, edges):
        """The packed payload is the paper's stored form (packed iA and
        jA plus widths); pin its keys so the file format cannot drift."""
        from repro.csr.packed import build_bitpacked_csr
        from repro.stores import _write_payload

        src, dst, n = edges
        base = {"num_nodes", "num_edges", "offset_width", "column_width",
                "gap_encoded", "offsets", "offsets_nbits", "columns",
                "columns_nbits"}
        packed = open_store("packed", src, dst, n)
        assert set(packed.npz_payload("p_")) == {f"p_{k}" for k in base}
        assert set(_write_payload(packed, "p_")) == {
            f"p_{k}" for k in base | {"store_kind"}
        }
        weighted = build_bitpacked_csr(src, dst, n, weights=np.ones_like(src))
        assert set(weighted.npz_payload("p_")) == {
            f"p_{k}" for k in base | {"values", "values_nbits", "values_width"}
        }
