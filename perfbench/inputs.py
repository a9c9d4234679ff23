"""Seeded benchmark inputs, generated once and cached on disk.

R-MAT generation of the livejournal stand-in takes seconds, so each
edge list is written to ``perfbench/_cache/<graph>-<scale>-<seed>.npz``
the first time it is asked for and loaded from there afterwards.
Generation runs in a child process: the edge arrays it allocates on
the way never count towards the benchmark process's peak memory, so
``rss_peak_mb`` reads the same whether or not the cache was warm.

Run directly to fill one cache entry::

    python3 perfbench/inputs.py --graph pokec --scale-div 32 --seed 1 --out x.npz
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CACHE_DIR = HERE / "_cache"


def cache_path(graph: str, scale_div: int, seed: int) -> Path:
    """Where the edge list keyed by (graph, scale, seed) is cached."""
    return CACHE_DIR / f"{graph}-1_{scale_div}-{seed}.npz"


def load_edges(graph: str, scale_div: int, seed: int):
    """``(src, dst, num_nodes)`` of the stand-in, generating it on a miss."""
    path = cache_path(graph, scale_div, seed)
    if not path.exists():
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--graph", graph,
             "--scale-div", str(scale_div), "--seed", str(seed),
             "--out", str(path)],
            check=True, timeout=600,
        )
    with np.load(path) as data:
        return data["src"], data["dst"], int(data["n"])


def _generate(graph: str, scale_div: int, seed: int, out: Path) -> None:
    from repro.datasets.registry import standin

    ds = standin(graph, scale=1.0 / scale_div, seed=seed)
    # write-then-rename: a concurrent or interrupted run never sees a
    # half-written cache entry
    tmp = out.with_name(f"{out.stem}.{os.getpid()}.tmp.npz")
    np.savez(tmp, src=ds.sources, dst=ds.destinations, n=ds.num_nodes)
    os.replace(tmp, out)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", required=True)
    parser.add_argument("--scale-div", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    _generate(args.graph, args.scale_div, args.seed, args.out)
