"""The reordered store view: compressed ids inside, original ids outside.

:class:`ReorderedStore` wraps any inner :class:`GraphStore` that was
built from a *relabeled* edge list and carries the permutation used, so
every query translates on the way in (``perm[u]``) and back out
(``inv[new_id]``) — results are bit-exact in the original id space, and
callers never see the compression ordering.  This is the WebGraph
``.map``-file convention: :meth:`bits_per_edge` reports the inner
encoding alone (the permutation is a side table, not part of the edge
stream), while :meth:`memory_bytes` counts the permutation honestly.
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryError, ValidationError
from ..query.capabilities import capabilities
from ..query.stores import dedup_batch
from ..query.stores import neighbors_batch as _store_batch
from ..stores import (
    _read_payload, _write_payload, inner_store_spec, load_store, open_store, save_store,
)
from ..utils import human_bytes
from .orderings import compute_ordering

__all__ = ["ReorderedStore", "build_reordered_store"]


class ReorderedStore:
    """An id-translating wrapper satisfying the ``GraphStore`` protocol.

    Parameters
    ----------
    inner:
        A store built over the *relabeled* graph (node ``u`` of the
        original graph appears inside as ``perm[u]``).
    perm:
        The permutation applied before the inner build,
        ``perm[old_id] = new_id``.
    ordering:
        Display name of the ordering that produced *perm*.
    """

    __slots__ = (
        "inner",
        "perm",
        "inv",
        "ordering",
        "num_nodes",
        "take_page_touches",
        "gap_encoded",
        "offset_width",
    )

    def __init__(self, inner, perm, *, ordering: str = "custom"):
        p = np.asarray(perm, dtype=np.int64)
        n = int(inner.num_nodes)
        if p.shape != (n,):
            raise ValidationError(f"permutation must have shape ({n},)")
        seen = np.zeros(n, dtype=bool)
        seen[p] = True
        if not seen.all():
            raise ValidationError("perm must be a permutation of range(n)")
        self.inner = inner
        self.perm = p
        self.inv = np.empty(n, dtype=np.int64)
        self.inv[p] = np.arange(n, dtype=np.int64)
        self.ordering = str(ordering)
        self.num_nodes = n
        # the page-touch surface and the packed metadata some tools
        # read exist exactly when the inner store provides them
        for name in ("take_page_touches", "gap_encoded", "offset_width"):
            value = getattr(inner, name, None)
            if value is not None:
                setattr(self, name, value)

    # -- protocol surface -----------------------------------------------
    @property
    def num_edges(self) -> int:
        """Edge count (unchanged by relabeling)."""
        return int(self.inner.num_edges)

    @property
    def row_dtype(self) -> np.dtype:
        """Dtype of decoded rows (the inner store's)."""
        return capabilities(self.inner).row_dtype

    @property
    def column_width(self):
        """Inner packed column width, or ``None`` for unpacked inners.

        Declared so capability resolution charges the same per-element
        decode cost as the wrapped store.
        """
        caps = capabilities(self.inner)
        return caps.decode_bits if caps.is_packed else None

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.num_nodes):
            raise QueryError(f"node {u} out of range [0, {self.num_nodes})")

    def degree(self, u: int) -> int:
        """Out-degree of original node *u*."""
        self._check_node(u)
        return int(self.inner.degree(int(self.perm[u])))

    def degrees(self) -> np.ndarray:
        """Degree of every node, indexed by original id."""
        return np.asarray(self.inner.degrees(), dtype=np.int64)[self.perm]

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted original-id destinations of original node *u*."""
        self._check_node(u)
        row = self.inner.neighbors(int(self.perm[u]))
        mapped = self.inv[np.asarray(row, dtype=np.int64)]
        mapped.sort()
        return mapped.astype(self.row_dtype, copy=False)

    def has_edge(self, u: int, v: int) -> bool:
        """Edge test in original ids — translated, then delegated."""
        self._check_node(u)
        self._check_node(v)
        return bool(self.inner.has_edge(int(self.perm[u]), int(self.perm[v])))

    def neighbors_batch(self, unodes) -> tuple[np.ndarray, np.ndarray]:
        """Bulk row fetch in original ids — ``(flat, offsets)``.

        Deduplicates the batch first (see
        :func:`~repro.query.stores.dedup_batch`) — skewed serving
        workloads repeat the same hub rows thousands of times, and
        decoding (plus re-sorting) each distinct row once turns the
        translation cost from O(output) into O(distinct rows) + one
        expansion gather.
        """
        return dedup_batch(self, unodes, self._decode_distinct)

    def _decode_distinct(self, uniq: np.ndarray):
        """The distinct rows as one group: each runs through the inner
        store's vectorised batch kernel, maps back through the inverse
        permutation, and is re-sorted (the relabeled rows are sorted by
        *new* id, a permutation of the original order) with one
        fused-key argsort across all rows."""
        flat_u, offs_u = _store_batch(self.inner, self.perm[uniq])
        mapped = self.inv[np.asarray(flat_u, dtype=np.int64)]
        counts_u = np.diff(offs_u)
        row_ids = np.repeat(np.arange(uniq.shape[0], dtype=np.int64), counts_u)
        if uniq.shape[0] * self.num_nodes < (1 << 62):
            # ties only between equal values, so an unstable sort is fine
            order = np.argsort(row_ids * self.num_nodes + mapped)
        else:
            order = np.lexsort((mapped, row_ids))
        yield slice(None), mapped[order].astype(self.row_dtype, copy=False), offs_u

    # -- accounting ------------------------------------------------------
    def bits_per_edge(self) -> float:
        """Bits per edge of the *inner* encoding.

        The permutation is excluded by convention (WebGraph keeps its
        ``.map`` file outside the graph size too); see
        :meth:`memory_bytes` for the all-in footprint.
        """
        fn = getattr(self.inner, "bits_per_edge", None)
        if callable(fn):
            return float(fn())
        return 8.0 * float(self.inner.memory_bytes()) / max(1, self.num_edges)

    def memory_bytes(self) -> int:
        """Inner payload plus both id-translation tables."""
        return int(self.inner.memory_bytes()) + self.perm.nbytes + self.inv.nbytes

    def to_csr(self):
        """Materialise as a plain CSR graph in *original* ids."""
        from ..csr.reorder import relabel

        return relabel(self.inner.to_csr(), self.inv)

    def __repr__(self) -> str:
        return (
            f"ReorderedStore(ordering={self.ordering!r}, "
            f"inner={type(self.inner).__name__}, n={self.num_nodes}, "
            f"m={self.num_edges}, mem={human_bytes(self.memory_bytes())})"
        )

    # -- persistence -----------------------------------------------------
    def npz_payload(self, prefix: str = "") -> dict:
        """The ordering name and permutation; the inner store's own
        payload goes through :mod:`repro.stores` under ``inner_``."""
        return {
            f"{prefix}ordering": self.ordering,
            f"{prefix}perm": self.perm,
            **_write_payload(self.inner, f"{prefix}inner_"),
        }

    @classmethod
    def from_npz_payload(cls, data, prefix: str = "") -> "ReorderedStore":
        """Rebuild from the key/value payload of :meth:`npz_payload`."""
        return cls(
            _read_payload(data, f"{prefix}inner_"),
            np.asarray(data[f"{prefix}perm"], dtype=np.int64),
            ordering=str(data[f"{prefix}ordering"]),
        )

    def save(self, path) -> None:
        """Persist to ``.npz`` via :func:`repro.stores.save_store`."""
        save_store(self, path)

    @classmethod
    def load(cls, path) -> "ReorderedStore":
        """Rebuild a reordered store saved by :meth:`save`."""
        return load_store(path, expect=cls)


def build_reordered_store(
    sources,
    destinations,
    num_nodes: int,
    *,
    order: str = "degree",
    inner: str = "packed",
    executor=None,
    **inner_opts,
):
    """Relabel the edge list under *order* and build an *inner* store.

    The returned :class:`ReorderedStore` answers queries in the
    original id space.  *inner* may be any registered store kind except
    ``reordered`` itself; extra keyword options pass through to the
    inner builder.
    """
    from ..csr.builder import build_csr_serial, ensure_sorted

    if inner == "reordered":
        raise ValidationError("reordered stores cannot nest directly")
    inner_store_spec(inner, "reordered")
    src, dst = ensure_sorted(sources, destinations)
    graph = build_csr_serial(src, dst, num_nodes)
    perm = compute_ordering(order, graph)
    new_src, new_dst = ensure_sorted(perm[src], perm[dst])
    built = open_store(inner, new_src, new_dst, num_nodes, executor=executor, **inner_opts)
    return ReorderedStore(built, perm, ordering=order)
