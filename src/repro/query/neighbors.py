"""Algorithm 6 — batched neighbourhood queries.

An array of node ids is split into ``p`` chunks; each processor fetches
its whole chunk through the store's bulk row extraction (one packed
gather per chunk for the bit-packed CSR instead of a Python-level
``GetRowFromCSR`` call per query) and deposits the rows into the shared
result vector at each query's position — "the result for every node
queried will be returned as an array of arrays".  Results and cost
charges are identical to the per-row scalar path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..parallel.chunking import chunk_bounds
from ..parallel.cost import Cost
from ..parallel.machine import Executor, SerialExecutor, TaskContext
from .stores import (
    GraphStore,
    capabilities,
    check_batch,
    neighbors_batch,
    row_decode_cost,
)

__all__ = ["batch_neighbors"]


def batch_neighbors(
    store: GraphStore,
    unodes: Sequence[int] | np.ndarray,
    executor: Executor | None = None,
) -> list[np.ndarray]:
    """Neighbour rows for every node in *unodes*, queried in parallel.

    Returns rows in query order (duplicated queries give duplicated
    rows).  Invalid node ids raise :class:`QueryError` before any
    parallel work starts, so a bad batch cannot partially execute.
    """
    executor = executor or SerialExecutor()
    caps = capabilities(store)
    queries = check_batch(unodes, store.num_nodes)

    results: list[np.ndarray | None] = [None] * queries.shape[0]
    bounds = chunk_bounds(queries.shape[0], executor.p)

    def run_chunk(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        decode_units = 0.0
        pages = 0.0
        if e > s:
            flat, offs = neighbors_batch(store, queries[s:e], caps)
            for i in range(s, e):
                results[i] = flat[offs[i - s] : offs[i - s + 1]]
            # degree-linear decode charge, so the chunk total equals the
            # per-row sum the scalar path would have charged
            decode_units = row_decode_cost(store, int(offs[-1]), caps)
            if caps.counts_page_touches:
                # out-of-core stores meter the distinct mapped pages the
                # fetch faulted in; billed on the dedicated channel so
                # every other charge matches the in-memory store exactly
                pages = float(store.take_page_touches())
        ctx.charge(
            Cost(reads=e - s, writes=e - s, bit_ops=decode_units, page_touches=pages)
        )

    executor.map_chunks(run_chunk, range(executor.p), label="query:neighbors")
    empty = np.zeros(0, dtype=caps.row_dtype)
    return [row if row is not None else empty for row in results]
