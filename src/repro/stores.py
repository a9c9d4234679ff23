"""The store registry and :func:`open_store` — one construction path.

Every queryable representation used to be built through its own
constructor shape (``build_csr(...)``, ``BitPackedCSR.from_csr(...)``,
``AdjacencyListStore(src, dst, n)``, ...), so the CLI, benchmarks, and
tests each hand-rolled five call conventions.  This registry (the
pattern of :mod:`repro.bitpack.registry` and
:mod:`repro.datasets.registry`) gives them one:

    store = repro.open_store("packed", src, dst, n, gap_encode=True)
    store = repro.open_store("sharded", src, dst, n, shards=4,
                             partitioner="hash", inner="packed")

Old constructors keep working — registered builders are thin adapters
over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ValidationError

__all__ = [
    "StoreSpec",
    "register_store",
    "get_store_spec",
    "available_stores",
    "inner_store_spec",
    "open_store",
    "save_store",
    "load_store",
]


@dataclass(frozen=True)
class StoreSpec:
    """One registered store kind.

    ``builder`` takes ``(sources, destinations, n, **opts)`` and
    returns a :class:`~repro.query.stores.GraphStore`.  Every builder
    accepts ``executor=`` (parallel kinds run their pipeline on it,
    array-backed baselines ignore it) so callers can pass one
    uniformly.
    """

    kind: str
    builder: Callable
    description: str


_REGISTRY: dict[str, StoreSpec] = {}


def register_store(
    kind: str, builder: Callable, description: str, *, replace: bool = False
) -> StoreSpec:
    """Add a store kind to the registry (idempotent with ``replace=True``)."""
    if kind in _REGISTRY and not replace:
        raise ValidationError(f"store kind '{kind}' already registered")
    spec = StoreSpec(kind, builder, description)
    _REGISTRY[kind] = spec
    return spec


def get_store_spec(kind: str) -> StoreSpec:
    """Look up a registered store kind by name."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ValidationError(
            f"unknown store kind '{kind}' (known: {known})"
        ) from None


def available_stores() -> list[str]:
    """Names of every registered store kind, sorted."""
    return sorted(_REGISTRY)


def inner_store_spec(inner: str, outer: str) -> StoreSpec:
    """Resolve the nested ``inner=`` kind of a composite store.

    Same lookup as :func:`get_store_spec`, but an unknown kind names
    the composite it was nested in — so ``open_store("sharded", ...,
    inner="btree")`` fails with one line saying *which* level was
    wrong, not just that some kind was unknown.
    """
    try:
        return get_store_spec(inner)
    except ValidationError:
        known = ", ".join(available_stores()) or "<none>"
        raise ValidationError(
            f"unknown inner store kind '{inner}' for {outer} store "
            f"(known: {known})"
        ) from None


def open_store(kind: str, sources, destinations, n: int, **opts):
    """Build a graph store of *kind* from an edge list.

    The single store-construction entry point used by the CLI and the
    benchmarks.  ``opts`` are kind-specific (see each kind's
    description via :func:`get_store_spec`); common ones are
    ``executor=`` and ``sort=``.
    """
    return get_store_spec(kind).builder(sources, destinations, n, **opts)


def save_store(store, path) -> None:
    """Persist *store* to one ``.npz`` file, behind every savable
    class's ``save``.

    The file is one flat key/value payload: the kind tag under
    ``{prefix}store_kind`` plus the keys of the class's
    ``npz_payload(prefix)``.  Composites write their own fields and hand
    each inner store back to :func:`_write_payload` under a longer
    prefix (``shard{i}_``, ``inner_``, ``segment{i}_``), so any nesting
    of packed, gap and compact leaves round-trips.  A store with no
    ``.npz`` form raises a one-line :class:`~repro.errors.ValidationError`.
    """
    import numpy as np

    np.savez_compressed(path, **_write_payload(store))


def load_store(path, *, expect=None):
    """Open a saved store: a disk-store directory or an ``.npz`` file.

    The load-side twin of :func:`open_store`, shared by the CLI and
    :class:`~repro.serve.config.ServerConfig`.  Directories open
    through :func:`~repro.disk.open_disk_store` (checksums verified,
    reordered stores re-wrapped); ``.npz`` files dispatch on their
    ``store_kind`` tag.  A file that is not a store, or names an
    unknown kind, raises a one-line :class:`~repro.errors.ReproError`
    naming the file.  With *expect* (a store class, as each savable
    class's ``load`` passes), a store of any other class raises
    :class:`~repro.errors.ValidationError`.
    """
    import zipfile
    from pathlib import Path

    import numpy as np

    from .errors import ReproError

    p = Path(path)
    if p.is_dir():
        from .disk import open_disk_store

        store = open_disk_store(p)
    else:
        try:
            data = np.load(p)
        except (ValueError, zipfile.BadZipFile) as exc:
            raise ReproError(
                f"{path}: not a loadable store file ({exc})"
            ) from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ReproError(f"{path}: not a loadable store file (a bare .npy array)")
        with data:
            try:
                store = _read_payload(data)
            except KeyError as exc:
                raise ValidationError(
                    f"{path}: not a recognized store file ({exc.args[0]})"
                ) from None
            except ValidationError as exc:
                raise ValidationError(f"{path}: {exc}") from None
    if expect is not None and type(store) is not expect:
        raise ValidationError(
            f"{path} holds a {type(store).__name__}, not a {expect.__name__}"
        )
    return store


def _payload_kinds() -> dict:
    """Kind tag -> class, for every store with an ``.npz`` payload
    (imported lazily: composites pull in their whole subpackage)."""
    from .csr.compact import CompactStore
    from .csr.packed import BitPackedCSR
    from .lsm import LsmStore
    from .reorder import ReorderedStore
    from .shard import ShardedStore

    return {
        "packed": BitPackedCSR,
        "compact": CompactStore,
        "sharded": ShardedStore,
        "reordered": ReorderedStore,
        "lsm": LsmStore,
    }


def _write_payload(store, prefix: str = "") -> dict:
    """*store*'s kind-tagged payload, every key under *prefix*."""
    for kind, cls in _payload_kinds().items():
        if type(store) is cls:
            return {f"{prefix}store_kind": kind, **store.npz_payload(prefix)}
    raise ValidationError(
        f"{type(store).__name__} has no .npz form (only packed or compact "
        "leaves save, alone or inside sharded, reordered and lsm stores)"
    )


def _read_payload(data, prefix: str = ""):
    """Rebuild the store whose payload sits under *prefix* in *data*.

    An untagged payload is packed: the first file format tagged only
    composites, and its reordered files tagged their child
    ``inner_kind``.
    """
    tag = f"{prefix}store_kind"
    if tag not in data and prefix == "inner_":
        tag = "inner_kind"
    kind = str(data[tag]) if tag in data else "packed"
    kinds = _payload_kinds()
    if kind not in kinds:
        raise ValidationError(
            f"unknown store kind '{kind}' (known kinds: {', '.join(sorted(kinds))})"
        )
    return kinds[kind].from_npz_payload(data, prefix)


# ----------------------------------------------------------------------
# Built-in kinds: thin adapters over the existing constructors.

def _build_csr(sources, destinations, n, *, executor=None, **opts):
    from .csr.builder import build_csr

    return build_csr(sources, destinations, n, executor, **opts)


def _build_csr_serial(sources, destinations, n, *, executor=None, **opts):
    from .csr.builder import build_csr_serial

    return build_csr_serial(sources, destinations, n, **opts)


def _build_packed(sources, destinations, n, *, executor=None, **opts):
    from .csr.packed import build_bitpacked_csr

    return build_bitpacked_csr(sources, destinations, n, executor, **opts)


def _build_gap(sources, destinations, n, *, executor=None, **opts):
    from .csr.packed import build_bitpacked_csr

    return build_bitpacked_csr(
        sources, destinations, n, executor, gap_encode=True, **opts
    )


def _ignores_executor(cls):
    """Adapter for array-backed baselines built inline from the edge
    list — they have no parallel pipeline, so ``executor``/``sort`` are
    accepted (for call-site uniformity) and ignored."""

    def build(sources, destinations, n, *, executor=None, sort=None, **opts):
        return cls(sources, destinations, n, **opts)

    return build


def _build_sharded(sources, destinations, n, **opts):
    from .shard.build import build_sharded_store

    return build_sharded_store(sources, destinations, n, **opts)


def _build_disk(
    sources,
    destinations,
    n,
    *,
    executor=None,
    path=None,
    segment_bytes=None,
    **opts,
):
    import tempfile

    from .csr.packed import build_bitpacked_csr
    from .disk.build import write_disk_store
    from .disk.format import DEFAULT_SEGMENT_BYTES

    packed = build_bitpacked_csr(sources, destinations, n, executor, **opts)
    tmpdir = None
    if path is None:
        # no directory requested: anchor the store in a temporary one
        # that lives exactly as long as the store object
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-disk-")
        path = tmpdir.name
    store = write_disk_store(
        packed,
        path,
        segment_bytes=int(segment_bytes or DEFAULT_SEGMENT_BYTES),
    )
    store._tmpdir = tmpdir
    return store


def _build_compact(sources, destinations, n, *, executor=None, **opts):
    from .csr.compact import build_compact_csr

    return build_compact_csr(sources, destinations, n, executor, **opts)


def _build_reordered(sources, destinations, n, *, executor=None, **opts):
    from .reorder.store import build_reordered_store

    return build_reordered_store(sources, destinations, n, executor=executor, **opts)


def _build_lsm(sources, destinations, n, **opts):
    from .lsm.build import build_lsm_store

    return build_lsm_store(sources, destinations, n, **opts)


def _register_builtins() -> None:
    from .baselines import (
        AdjacencyListStore,
        AdjacencyMatrixStore,
        BitMatrixStore,
        EdgeListStore,
        UnsortedEdgeListStore,
    )
    from .bitpack.k2tree import K2Tree

    builtins = [
        ("csr", _build_csr,
         "uncompressed CSR via the parallel builder "
         "(opts: executor, sort, weights, compact, validate)"),
        ("csr-serial", _build_csr_serial,
         "uncompressed CSR via the one-shot numpy reference builder "
         "(opts: sort)"),
        ("packed", _build_packed,
         "bit-packed CSR, Algorithm 4 "
         "(opts: executor, sort, weights, gap_encode)"),
        ("gap", _build_gap,
         "bit-packed CSR with per-row gap transform "
         "(opts: executor, sort, weights)"),
        ("disk", _build_disk,
         "memory-mapped on-disk packed CSR in a store directory "
         "(opts: path, segment_bytes, executor, sort, gap_encode)"),
        ("sharded", _build_sharded,
         "partitioned store of per-shard sub-stores "
         "(opts: shards, partitioner, inner, executor, sort, "
         "cache_elements, + inner kind opts)"),
        ("adjlist", _ignores_executor(AdjacencyListStore),
         "per-node sorted neighbour arrays"),
        ("edgelist", _ignores_executor(EdgeListStore),
         "sorted (u, v) arrays, binary-searched"),
        ("edgelist-unsorted", _ignores_executor(UnsortedEdgeListStore),
         "raw (u, v) arrays, linearly scanned"),
        ("adjmatrix", _ignores_executor(AdjacencyMatrixStore),
         "dense 0/1 matrix (small graphs; opts: node_cap)"),
        ("bitmatrix", _ignores_executor(BitMatrixStore),
         "bit-packed dense matrix (opts: node_cap)"),
        ("k2tree", _ignores_executor(K2Tree),
         "k^2-tree compressed adjacency"),
        ("compact", _build_compact,
         "bit-packed CSR with adaptive per-segment edge codecs "
         "(opts: executor, sort, codecs, segment_bytes)"),
        ("reordered", _build_reordered,
         "id-translating wrapper over a relabeled inner store "
         "(opts: order, inner, executor, + inner kind opts)"),
        ("lsm", _build_lsm,
         "log-structured mutable store: delta memtable over immutable "
         "segments (opts: inner, compact_watermark, executor, "
         "+ inner kind opts)"),
    ]
    for kind, builder, description in builtins:
        if kind not in _REGISTRY:
            register_store(kind, builder, description)


_register_builtins()
