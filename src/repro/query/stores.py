"""The store protocol every queryable graph representation satisfies.

Algorithms 6-9 are written against this surface, so one harness can
query the uncompressed CSR, the bit-packed CSR, the sharded store, and
every baseline store interchangeably — the apples-to-apples setup of
Section VI.

Capability resolution (which optional members a store provides) lives
in :mod:`repro.query.capabilities`; this module contains **no**
``getattr`` probing — every dispatcher below resolves a
:class:`~repro.query.capabilities.StoreCapabilities` once and branches
on its explicit fields.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import QueryError
from .capabilities import StoreCapabilities, capabilities

__all__ = [
    "GraphStore",
    "StoreCapabilities",
    "capabilities",
    "check_batch",
    "dedup_batch",
    "extract_edges",
    "neighbors_batch",
    "row_decode_cost",
    "row_dtype",
]


@runtime_checkable
class GraphStore(Protocol):
    """Minimal query surface of a graph store.

    Optional members (resolved once per store by
    :func:`~repro.query.capabilities.capabilities`, never probed
    inline):

    ``neighbors_batch(unodes) -> (flat, offsets)``
        Bulk row fetch returning the concatenation of every requested
        row plus ``int64`` offsets delimiting row *i* as
        ``flat[offsets[i]:offsets[i + 1]]``.  Sets
        ``StoreCapabilities.has_native_batch``; without it the
        module-level :func:`neighbors_batch` dispatcher falls back to
        per-row :meth:`neighbors` calls, so baseline stores work
        unchanged.

        The batch contract, on every path: *unodes* is a 1-D batch of
        ids in ``[0, num_nodes)`` in any order, repeats allowed, and
        row *i* of the result belongs to ``unodes[i]``.  Anything else
        raises a one-line :class:`~repro.errors.QueryError` from
        :func:`check_batch`; an empty batch returns an empty ``flat``
        and ``offsets == [0]``.  Stores dedup in one place,
        :func:`dedup_batch`: the compact, disk, sharded, reordered and
        LSM stores pass it a private decode of the sorted distinct ids
        and it expands those rows back to caller order.
        :class:`~repro.csr.CSRGraph` and
        :class:`~repro.csr.BitPackedCSR` decode in caller order without
        a dedup, since their per-row decode is cheaper than
        ``np.unique``.
    ``take_page_touches() -> int``
        Drain the count of distinct memory-mapped pages faulted since
        the last drain.  Wrapping stores set it at construction
        exactly when every store they wrap meters pages.
    ``row_dtype``
        Dtype of decoded neighbour rows.  Defaults to the ``indices``
        dtype for array-backed stores, ``uint64`` for packed stores,
        ``int64`` otherwise.
    ``column_width``
        Bits per packed column field.  Declaring it marks the store as
        packed (``StoreCapabilities.is_packed``) and sets the
        per-element decode charge (``StoreCapabilities.decode_bits``)
        used by :func:`row_decode_cost`.
    """

    num_nodes: int
    num_edges: int

    def degree(self, u: int) -> int:
        """Out-degree of *u*."""
        ...

    def neighbors(self, u: int) -> np.ndarray:
        """Destinations adjacent to *u*, sorted."""
        ...

    def has_edge(self, u: int, v: int) -> bool:
        """True when the edge (u, v) exists."""
        ...

    def memory_bytes(self) -> int:
        """Resident bytes of this structure's payload."""
        ...


def row_dtype(store, caps: StoreCapabilities | None = None) -> np.dtype:
    """Dtype of *store*'s decoded neighbour rows."""
    caps = caps if caps is not None else capabilities(store)
    return caps.row_dtype


def neighbors_batch(
    store, unodes, caps: StoreCapabilities | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bulk row fetch with a scalar fallback — ``(flat, offsets)``.

    Dispatches to the store's native ``neighbors_batch`` when its
    capabilities declare one (one packed read per chunk for
    :class:`~repro.csr.BitPackedCSR`, one gather for
    :class:`~repro.csr.CSRGraph`, a scatter-gather fan-out for
    :class:`~repro.shard.ShardedStore`); otherwise loops per-row
    :meth:`GraphStore.neighbors` calls, so every baseline store keeps
    working unchanged.  Values and dtype are identical between the two
    paths.
    """
    caps = caps if caps is not None else capabilities(store)
    if caps.has_native_batch:
        return store.neighbors_batch(unodes)
    us = check_batch(unodes, store.num_nodes)
    rows = [store.neighbors(int(u)) for u in us]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([r.shape[0] for r in rows], out=offsets[1:])
    if not rows:
        return np.zeros(0, dtype=caps.row_dtype), offsets
    return np.concatenate(rows), offsets


def extract_edges(store) -> tuple[np.ndarray, np.ndarray]:
    """Every edge of *store* as u-sorted ``(src, dst)`` ``int64`` arrays:
    one :func:`neighbors_batch` over all node ids."""
    ids = np.arange(int(store.num_nodes), dtype=np.int64)
    flat, offsets = neighbors_batch(store, ids)
    return np.repeat(ids, np.diff(offsets)), flat.astype(np.int64, copy=False)


def check_batch(unodes, num_nodes: int) -> np.ndarray:
    """*unodes* as a 1-D ``int64`` id array, checked against the batch
    contract (see :class:`GraphStore`)."""
    us = np.asarray(unodes, dtype=np.int64)
    if us.ndim != 1:
        raise QueryError("node batch must be 1-D")
    if us.size and (int(us.min()) < 0 or int(us.max()) >= num_nodes):
        raise QueryError(f"node ids must lie in [0, {num_nodes})")
    return us


def dedup_batch(store, unodes, decode_distinct) -> tuple[np.ndarray, np.ndarray]:
    """Bulk row fetch that decodes each distinct id once — ``(flat, offsets)``.

    Checks the batch, hands its sorted distinct ids ``uniq`` to
    ``decode_distinct(uniq)``, and expands the decoded rows back into
    caller order with one fused indexed copy.  ``decode_distinct``
    yields ``(pos, flat, offsets)`` groups: id ``uniq[pos][i]`` has the
    row ``flat[offsets[i]:offsets[i + 1]]``, where *pos* is an index
    array or slice into ``uniq``.  Ids in no group have empty rows.
    Every group's ``flat`` must already have the store's row dtype.
    """
    us = check_batch(unodes, store.num_nodes)
    if us.size == 0:
        return np.zeros(0, dtype=row_dtype(store)), np.zeros(1, dtype=np.int64)
    uniq, inv = np.unique(us, return_inverse=True)
    starts = np.zeros(uniq.shape[0], dtype=np.int64)
    counts = np.zeros(uniq.shape[0], dtype=np.int64)
    parts = []
    base = 0
    for pos, flat, offs in decode_distinct(uniq):
        starts[pos] = base + offs[:-1]
        counts[pos] = np.diff(offs)
        parts.append(flat)
        base += flat.shape[0]
    if len(parts) == 1:
        src = parts[0]
    else:
        src = np.concatenate(parts) if parts else np.zeros(0, row_dtype(store))

    # element j of output row i reads src[starts[inv[i]] + j]
    counts_q = counts[inv]
    offsets = np.zeros(us.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts_q, out=offsets[1:])
    index = np.repeat(starts[inv] - offsets[:-1], counts_q)
    index += np.arange(int(offsets[-1]), dtype=np.int64)
    return src[index], offsets


def row_decode_cost(
    store, degree: int, caps: StoreCapabilities | None = None
) -> float:
    """Abstract work units to materialise one row of *store*.

    Packed stores pay per-bit decode; array-backed stores pay one read
    per neighbour.  Used by the query engine's cost charges.
    """
    caps = caps if caps is not None else capabilities(store)
    return float(degree * caps.decode_bits)
