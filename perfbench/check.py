"""Reference answers for every reply, checked outside timed regions.

Read-only workloads are checked against a ``csr-serial`` store built
from the same edge arrays (the one-shot reference builder).  A
mutable workload is checked against a model of the edge set (the
deduplicated base graph plus a dict of every row a write touched)
that applies the writes in submission order.

A read sees exactly the writes applied before it was served.  Writes
apply inline at submit; a read is served when its batch closes, which
can be after writes submitted later than it.  So each read is checked
against the model state after every write whose submit stamp is at or
before the read's completion stamp, both taken on the server's clock.
"""

from __future__ import annotations

import numpy as np

from repro.serve import DONE, EdgeRequest, NeighborsRequest, WriteRequest
from repro.stores import open_store


class Checker:
    """Counts replies checked, failed (not DONE) and wrong.

    *as_set* folds duplicate input edges, as a store with set
    semantics (the LSM kind) does; the model then holds a sorted array
    for every row a write touched (arrays, not sets, so the garbage
    collector does not walk the model on every full collection).
    """

    def __init__(self, src, dst, n: int, *, as_set: bool = False):
        if as_set and src.size:
            keep = np.ones(src.shape[0], dtype=bool)
            keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            src, dst = src[keep], dst[keep]
        self.ref = open_store("csr-serial", src, dst, n)
        self.model: dict[int, np.ndarray] = {}
        self.checked = 0
        self.failed = 0
        self.wrong = 0

    @property
    def bad(self) -> int:
        """Replies that count as failed operations."""
        return self.failed + self.wrong

    def row(self, u: int) -> np.ndarray:
        """The expected neighbour row of *u* in the current model state."""
        row = self.model.get(u)
        return self.ref.neighbors(u) if row is None else row

    def _apply(self, req: WriteRequest, applied) -> bool:
        row = self.row(req.u)
        pos = int(np.searchsorted(row, req.v))
        present = pos < row.shape[0] and int(row[pos]) == req.v
        if req.op == "insert":
            expected = not present
            if expected:
                self.model[req.u] = np.insert(row, pos, req.v)
        else:
            expected = present
            if expected:
                self.model[req.u] = np.delete(row, pos)
        return bool(applied) == expected

    def _read_ok(self, req, value) -> bool:
        row = self.row(req.node if isinstance(req, NeighborsRequest)
                       else req.u)
        if isinstance(req, NeighborsRequest):
            return value.shape == row.shape and np.array_equal(value, row)
        pos = int(np.searchsorted(row, req.v))
        return bool(value) == (pos < row.shape[0] and int(row[pos]) == req.v)

    def check(self, slots) -> int:
        """Check one phase's reply slots (submission order); returns the
        number of bad replies among them."""
        before = self.bad
        writes, reads = [], []
        for slot in slots:
            self.checked += 1
            if slot.status != DONE:
                self.failed += 1
            elif isinstance(slot.request, WriteRequest):
                writes.append(slot)
            elif isinstance(slot.request, (NeighborsRequest, EdgeRequest)):
                reads.append(slot)
            else:
                self.wrong += 1
        reads.sort(key=lambda s: s.request.complete_ns)
        w = 0
        for slot in reads:
            done_ns = slot.request.complete_ns
            while w < len(writes) and writes[w].request.enqueue_ns <= done_ns:
                self.wrong += not self._apply(writes[w].request,
                                              writes[w].result())
                w += 1
            self.wrong += not self._read_ok(slot.request, slot.result())
        for slot in writes[w:]:
            self.wrong += not self._apply(slot.request, slot.result())
        return self.bad - before
