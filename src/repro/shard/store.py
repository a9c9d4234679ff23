"""The sharded graph store: per-shard sub-stores behind one surface.

:class:`ShardedStore` range- or hash-partitions the vertex set across
*k* sub-stores, each of which is itself any existing store kind (plain
:class:`~repro.csr.CSRGraph`, :class:`~repro.csr.BitPackedCSR`, or a
baseline) holding only the edges whose *source* the shard owns.  Every
shard spans the full global node space — non-owned rows are simply
empty — so node ids never need remapping and destinations stay valid
for binary search, at the cost of replicating the (small) offset array
per shard; :meth:`memory_bytes` reports that honestly.

Point queries route through the partitioner to the one owning shard.
The batch surface is **scatter-gather**: the (already deduplicated)
query keys are scattered to their shards, each shard runs the existing
vectorised gather/decode kernel locally, and the per-shard results are
gathered back into the caller's original order — bit-exact with the
monolithic store.
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryError, ValidationError
from ..query.capabilities import capabilities
from ..query.stores import dedup_batch
from ..query.stores import neighbors_batch as _store_batch
from ..stores import _read_payload, _write_payload, load_store, save_store
from ..utils import human_bytes, require
from .partition import Partitioner, partitioner_from_state

__all__ = ["ShardedStore"]


class ShardedStore:
    """A partitioned graph store satisfying the ``GraphStore`` protocol.

    Parameters
    ----------
    partitioner:
        Maps each source node to its owning shard; ``num_shards`` must
        match ``len(shards)``.
    shards:
        One store per shard, every one spanning the full global node
        space (``num_nodes`` equal across shards) and all of the same
        kind, so decoded rows share a single dtype.
    """

    __slots__ = (
        "partitioner",
        "shards",
        "num_nodes",
        "take_page_touches",
        "_num_edges",
        "_scatters",
    )

    def __init__(self, partitioner: Partitioner, shards):
        shards = list(shards)
        require(len(shards) >= 1, "a sharded store needs at least one shard")
        if partitioner.num_shards != len(shards):
            raise ValidationError(
                f"partitioner routes {partitioner.num_shards} shards, got {len(shards)}"
            )
        n = int(shards[0].num_nodes)
        kind = type(shards[0])
        for s, shard in enumerate(shards):
            if int(shard.num_nodes) != n:
                raise ValidationError(
                    f"shard {s} spans {shard.num_nodes} nodes, expected {n} "
                    "(every shard must cover the global node space)"
                )
            if type(shard) is not kind:
                raise ValidationError(
                    f"shard {s} is {type(shard).__name__}, expected {kind.__name__} "
                    "(shards must share one store kind)"
                )
        self.partitioner = partitioner
        self.shards = shards
        self.num_nodes = n
        self._num_edges = int(sum(int(s.num_edges) for s in shards))
        self._scatters = np.zeros(len(shards), dtype=np.int64)
        if all(capabilities(s).counts_page_touches for s in shards):
            # page metering is on offer exactly when every shard meters
            self.take_page_touches = self._take_shard_pages

    # -- protocol surface -----------------------------------------------
    @property
    def num_edges(self) -> int:
        """Total edges across every shard."""
        return self._num_edges

    @property
    def num_shards(self) -> int:
        """Shard fan-out."""
        return len(self.shards)

    @property
    def row_dtype(self) -> np.dtype:
        """Dtype of decoded rows (the inner store kind's)."""
        return capabilities(self.shards[0]).row_dtype

    @property
    def column_width(self):
        """Inner packed column width, or ``None`` for unpacked shards.

        Declared so capability resolution sees a sharded-over-packed
        store as packed with the same per-element decode charge as its
        monolithic equivalent — simulated query costs stay comparable.
        """
        caps = capabilities(self.shards[0])
        return caps.decode_bits if caps.is_packed else None

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.num_nodes):
            raise QueryError(f"node {u} out of range [0, {self.num_nodes})")

    def degree(self, u: int) -> int:
        """Out-degree of *u* (routed to the owning shard)."""
        self._check_node(u)
        return self.shards[self.partitioner.shard_of(u)].degree(u)

    def degrees(self) -> np.ndarray:
        """Degree of every node as an ``int64`` array.

        Shards span the global node space, so the per-shard degree
        arrays align and the global vector is their elementwise sum.
        """
        out = np.zeros(self.num_nodes, dtype=np.int64)
        for shard in self.shards:
            out += shard.degrees()
        return out

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted destinations of *u* (routed to the owning shard)."""
        self._check_node(u)
        return self.shards[self.partitioner.shard_of(u)].neighbors(u)

    def has_edge(self, u: int, v: int) -> bool:
        """Edge test, routed to the shard owning source *u*."""
        self._check_node(u)
        self._check_node(v)
        return self.shards[self.partitioner.shard_of(u)].has_edge(u, v)

    # -- scatter-gather batch surface -----------------------------------
    def neighbors_batch(self, unodes) -> tuple[np.ndarray, np.ndarray]:
        """Bulk row fetch via scatter-gather — ``(flat, offsets)``.

        Scatters the batch's *distinct* keys to their owning shards,
        runs each shard's own vectorised batch kernel, then gathers the
        rows back into the caller's original order (see
        :func:`~repro.query.stores.dedup_batch`), so a hot row repeated
        across the batch is decoded exactly once.  Values and dtype are
        identical to per-row :meth:`neighbors` calls (and therefore to
        the monolithic store's batch path).
        """
        return dedup_batch(self, unodes, self._decode_distinct)

    def _decode_distinct(self, uniq: np.ndarray):
        """One group per shard owning some of the sorted distinct ids."""
        sid = self.partitioner.shard_of_array(uniq)
        for s in np.unique(sid):
            pos = np.flatnonzero(sid == s)
            flat_s, offs_s = _store_batch(self.shards[int(s)], uniq[pos])
            self._scatters[int(s)] += 1
            yield pos, flat_s, offs_s

    def _take_shard_pages(self) -> int:
        """Drain every shard's distinct-page counter (summed)."""
        return sum(int(s.take_page_touches()) for s in self.shards)

    # -- observability and accounting -----------------------------------
    def scatter_counts(self) -> np.ndarray:
        """Batch fan-out so far: per-shard count of scatter calls."""
        return self._scatters.copy()

    def memory_bytes(self) -> int:
        """Shard payloads plus the partitioner's routing metadata."""
        return int(sum(int(s.memory_bytes()) for s in self.shards)) + int(
            self.partitioner.nbytes()
        )

    def __repr__(self) -> str:
        return (
            f"ShardedStore(shards={self.num_shards}, "
            f"partitioner={self.partitioner.kind}, "
            f"inner={type(self.shards[0]).__name__}, n={self.num_nodes}, "
            f"m={self.num_edges}, mem={human_bytes(self.memory_bytes())})"
        )

    # -- persistence -----------------------------------------------------
    def npz_payload(self, prefix: str = "") -> dict:
        """The routing state under ``partitioner_*`` keys; each shard's
        own payload goes through :mod:`repro.stores` under ``shard{i}_``."""
        payload: dict = {f"{prefix}num_shards": self.num_shards}
        for key, value in self.partitioner.state().items():
            payload[f"{prefix}partitioner_{key}"] = value
        for s, shard in enumerate(self.shards):
            payload.update(_write_payload(shard, f"{prefix}shard{s}_"))
        return payload

    @classmethod
    def from_npz_payload(cls, data, prefix: str = "") -> "ShardedStore":
        """Rebuild from the key/value payload of :meth:`npz_payload`."""
        head = f"{prefix}partitioner_"
        state = {k[len(head):]: data[k] for k in data.files if k.startswith(head)}
        shards = [
            _read_payload(data, f"{prefix}shard{s}_")
            for s in range(int(data[f"{prefix}num_shards"]))
        ]
        return cls(partitioner_from_state(state), shards)

    def save(self, path) -> None:
        """Persist to ``.npz`` via :func:`repro.stores.save_store`."""
        save_store(self, path)

    @classmethod
    def load(cls, path) -> "ShardedStore":
        """Rebuild a sharded store saved by :meth:`save`."""
        return load_store(path, expect=cls)
