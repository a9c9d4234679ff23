"""Chunked parallel sample sort (BSP style).

The paper assumes its edge lists arrive sorted; when they don't, the
sort is the one stage of the pipeline its algorithms leave sequential.
This module closes that gap with the classic three-phase sample sort:

1. **Local sort** (parallel): each processor sorts its chunk.
2. **Splitter selection** (serial, O(p²)): regular samples from every
   chunk are sorted and ``p - 1`` splitters picked.
3. **Exchange + merge** (parallel): every processor gathers the keys
   that fall in its splitter bucket (binary searches into the sorted
   chunks, no rescan) and sorts its bucket; concatenating buckets in
   order yields the global sort.

Charged like every other kernel, so ``build_csr(..., sort=True)`` can
use it and the sort stage shows up in the simulated scaling instead of
as an Amdahl wall.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .chunking import chunk_bounds
from .cost import Cost
from .machine import Executor, SerialExecutor, TaskContext

__all__ = ["parallel_sort", "parallel_argsort"]


def parallel_sort(values: np.ndarray, executor: Executor | None = None) -> np.ndarray:
    """Sorted copy of *values* via chunked sample sort.

    Output equals ``np.sort(values)`` for every input and executor
    width (property-tested).
    """
    order = parallel_argsort(values, executor)
    return np.asarray(values)[order]


def parallel_argsort(
    values: np.ndarray, executor: Executor | None = None
) -> np.ndarray:
    """Indices that sort *values* (stable within buckets).

    The building block for sorting edge lists: argsort the combined
    (u, v) keys once, then apply the permutation to u, v, and weights.
    """
    executor = executor or SerialExecutor()
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError("parallel sort input must be 1-D")
    n = arr.shape[0]
    p = executor.p
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    bounds = chunk_bounds(n, p)

    # Phase 1 — local argsorts.
    def local_sort(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        if e <= s:
            return None
        local = np.argsort(arr[s:e], kind="stable") + s
        ctx.charge(
            Cost(
                reads=e - s,
                writes=e - s,
                flops=(e - s) * max(1, int(np.log2(max(2, e - s)))),
            )
        )
        return local

    locals_ = executor.map_chunks(local_sort, range(p), label="sort:local")
    locals_ = [loc for loc in locals_ if loc is not None]

    # Phase 2 — splitters from regular samples (serial, tiny).
    def pick_splitters(ctx: TaskContext):
        samples = []
        for loc in locals_:
            take = min(len(loc), p)
            if take:
                idx = (np.arange(take, dtype=np.int64) * len(loc)) // take
                samples.append(arr[loc[idx]])
        if not samples:
            return np.zeros(0, dtype=arr.dtype)
        pool = np.sort(np.concatenate(samples), kind="stable")
        ctx.charge(Cost(reads=pool.shape[0], flops=pool.shape[0]))
        if p == 1 or pool.shape[0] == 0:
            return pool[:0]
        cuts = (np.arange(1, p, dtype=np.int64) * pool.shape[0]) // p
        return pool[cuts]

    splitters = executor.serial(pick_splitters, label="sort:splitters")

    # Phase 3 — each processor gathers and merges its bucket.
    def merge_bucket(ctx: TaskContext, cid: int):
        lo = splitters[cid - 1] if cid > 0 else None
        hi = splitters[cid] if cid < len(splitters) else None
        pieces = []
        touched = 0
        for loc in locals_:
            keys = arr[loc]
            start = 0 if lo is None else int(np.searchsorted(keys, lo, side="left"))
            stop = keys.shape[0] if hi is None else int(
                np.searchsorted(keys, hi, side="left")
            )
            if stop > start:
                pieces.append(loc[start:stop])
                touched += stop - start
        if not pieces:
            return np.zeros(0, dtype=np.int64)
        bucket = np.concatenate(pieces)
        # stable order within the bucket: by key, ties by original index
        order = np.lexsort((bucket, arr[bucket]))
        ctx.charge(
            Cost(
                reads=2 * touched,
                writes=touched,
                flops=touched * max(1, int(np.log2(max(2, touched)))),
            )
        )
        return bucket[order]

    buckets = executor.map_chunks(merge_bucket, range(p), label="sort:merge")

    def concatenate(ctx: TaskContext):
        nonempty = [b for b in buckets if b is not None and b.size]
        if not nonempty:
            return np.zeros(0, dtype=np.int64)
        out = np.concatenate(nonempty)
        ctx.charge(Cost(copy_bytes=out.nbytes))
        return out

    return executor.serial(concatenate, label="sort:concat")
