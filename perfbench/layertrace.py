"""Wall-clock spans recorded around calls into each layer.

The program is not edited to trace it: :func:`patched` swaps each
public entry point listed by :func:`_targets` for a wrapper that records
one span per call, and puts the originals back on exit.  Spans live
in memory as flat lists ``[name, layer, start_ns, end_ns, parent,
batch, count, root]`` and are written out once, at the end of a run.

A span's *self time* is its duration minus the durations of its
direct children; the self times of every span under a root add up to
the root's duration, so a layer table built from them accounts for
the whole traced wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

NAME, LAYER, START, END, PARENT, BATCH, COUNT, ROOT = range(8)


class Spans:
    """An in-memory span log with a stack of the spans now open.

    ``batch`` is bumped each time a coalescer hands out a micro-batch,
    so every span opened while serving that batch carries its id.
    """

    def __init__(self):
        self.rows: list[list] = []
        self.stack: list[int] = []
        self.batch = 0

    def _open(self, name: str, layer: str, count: int) -> list:
        stack = self.stack
        idx = len(self.rows)
        parent = stack[-1] if stack else -1
        root = self.rows[stack[0]][ROOT] if stack else idx
        row = [name, layer, 0, 0, parent, self.batch, count, root]
        self.rows.append(row)
        stack.append(idx)
        row[START] = time.perf_counter_ns()
        return row

    def _close(self, row: list) -> None:
        row[END] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, layer: str, count: int = 0):
        row = self._open(name, layer, count)
        try:
            yield row
        finally:
            self._close(row)

    def wrap(self, fn, name: str, layer: str, counted: bool):
        """*fn* recording one span per call; ``counted`` spans store the
        length of the call's first argument after ``self`` (rows or
        pairs asked for)."""
        spans = self

        def traced(*args, **kwargs):
            row = spans._open(name, layer, len(args[1]) if counted else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                spans._close(row)

        return traced

    def count_batches(self, fn):
        """*fn* (a coalescer method) bumping the batch id per batch out."""
        spans = self

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out:
                spans.batch += 1
            return out

        return counted

    # -- analysis -------------------------------------------------------
    def self_ns(self) -> list[int]:
        """Self time of every span, index-aligned with :attr:`rows`."""
        out = [row[END] - row[START] for row in self.rows]
        for row in self.rows:
            if row[PARENT] >= 0:
                out[row[PARENT]] -= row[END] - row[START]
        return out

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "layer", "start_ns", "end_ns", "parent", "batch",
                "count", "root")
        with open(path, "w") as fh:
            for row in self.rows:
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")


class NoSpans:
    """Stand-in for :class:`Spans` in untraced runs: records nothing."""

    def span(self, name: str, layer: str, count: int = 0):
        return nullcontext()


NO_SPANS = NoSpans()


def _targets():
    """``(owner, attribute, span name, layer, counted)`` per traced call."""
    import repro.csr.builder as csr_builder
    import repro.disk.build as disk_build
    from repro import (
        BitPackedCSR,
        DiskStore,
        LsmStore,
        QueryEngine,
        ReorderedStore,
        ShardWorker,
    )
    from repro.query.rowcache import RowCache

    return [
        (QueryEngine, "neighbors", "query.neighbors", "query", True),
        (QueryEngine, "has_edges", "query.edges", "query", True),
        (RowCache, "neighbors_batch", "rowcache.lookup", "rowcache", True),
        (ReorderedStore, "neighbors_batch", "reorder.translate", "reorder",
         True),
        (LsmStore, "neighbors_batch", "lsm.merge", "lsm", True),
        (LsmStore, "insert_edge", "lsm.write", "lsm", False),
        (LsmStore, "delete_edge", "lsm.write", "lsm", False),
        (LsmStore, "compact", "lsm.compact", "lsm", False),
        (BitPackedCSR, "neighbors_batch", "store.decode", "store", True),
        (DiskStore, "neighbors_batch", "disk.decode", "store", True),
        # a worker is a whole query server: its self time is serve work
        (ShardWorker, "serve", "cluster.worker", "serve", False),
        (csr_builder, "build_csr", "csr.build", "csr", False),
        (csr_builder, "build_csr_serial", "csr.build", "csr", False),
        (BitPackedCSR, "from_csr", "bitpack.encode", "bitpack", False),
        (disk_build, "encode_row_segment", "bitpack.encode", "bitpack",
         False),
    ]


@contextmanager
def patched(spans: Spans):
    """Trace every call :func:`_targets` lists into *spans* while open."""
    from repro.serve import MicroBatchCoalescer

    saved = []
    try:
        for owner, attr, name, layer, counted in _targets():
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                new = classmethod(spans.wrap(raw.__func__, name, layer,
                                             counted))
            else:
                new = spans.wrap(raw, name, layer, counted)
            setattr(owner, attr, new)
        for attr in ("poll", "flush", "close_batch"):
            raw = MicroBatchCoalescer.__dict__[attr]
            saved.append((MicroBatchCoalescer, attr, raw))
            setattr(MicroBatchCoalescer, attr, spans.count_batches(raw))
        yield spans
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
