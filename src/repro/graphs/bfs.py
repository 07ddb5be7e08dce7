"""Level-synchronous BFS kernels.

Two implementations are provided:

* :func:`bfs_distances` — single-source frontier BFS using vectorised
  neighbour gathering (no per-vertex Python loop).
* :func:`distance_matrix` / :func:`distance_profile` — multi-source BFS as
  blocked sparse-matrix x dense-block products, the idiom that makes
  all-pairs statistics (diameter, average distance, Table I) feasible at the
  paper's 7K-vertex scale in pure Python.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph, sorted_unique

UNREACHED = np.iinfo(np.int32).max


def _gather_neighbors(g: CSRGraph, frontier: np.ndarray) -> np.ndarray:
    """Concatenate neighbour lists of all frontier vertices (vectorised)."""
    starts = g.indptr[frontier]
    counts = g.indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # positions = starts[i] + (0..counts[i]-1) for each frontier vertex i,
    # computed without a Python loop via the repeat/cumsum ramp idiom.
    cum_before = np.cumsum(counts) - counts
    positions = np.repeat(starts - cum_before, counts) + np.arange(total)
    return g.indices[positions].astype(np.int64)


def bfs_distances(g: CSRGraph, source: int) -> np.ndarray:
    """Hop distances from ``source``; unreachable vertices get ``UNREACHED``."""
    dist = np.full(g.n, UNREACHED, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        nbrs = _gather_neighbors(g, frontier)
        nbrs = nbrs[dist[nbrs] == UNREACHED]
        if len(nbrs) == 0:
            break
        frontier = sorted_unique(nbrs)
        dist[frontier] = level
    return dist


def distance_matrix(
    g: CSRGraph,
    sources: np.ndarray | None = None,
    batch: int = 512,
    dtype=np.int16,
) -> np.ndarray:
    """All-(or some-)pairs hop distances via blocked sparse matmul BFS.

    Returns an array of shape ``(len(sources), n)``; unreachable pairs hold
    ``-1``.  Memory is ``O(n * batch)`` per block plus the output.
    """
    if sources is None:
        sources = np.arange(g.n, dtype=np.int64)
    sources = np.asarray(sources, dtype=np.int64)
    adj = g.adjacency(dtype=np.float32)
    out = np.full((len(sources), g.n), -1, dtype=dtype)
    for lo in range(0, len(sources), batch):
        block = sources[lo : lo + batch]
        width = len(block)
        dist = np.full((g.n, width), -1, dtype=dtype)
        frontier = np.zeros((g.n, width), dtype=np.float32)
        frontier[block, np.arange(width)] = 1.0
        visited = frontier > 0
        dist[visited] = 0
        level = 0
        while True:
            level += 1
            frontier = adj @ frontier
            new = (frontier > 0) & ~visited
            if not new.any():
                break
            dist[new] = level
            visited |= new
            frontier = new.astype(np.float32)
        out[lo : lo + width] = dist.T
    return out


def distance_profile(
    g: CSRGraph, sources: np.ndarray | None = None, batch: int = 512
) -> tuple[np.ndarray, int, float]:
    """Return (histogram of pairwise distances, diameter, mean distance).

    Streams over source blocks without materialising the full matrix, so it
    works at any size the BFS itself can handle.  Pairs (u, u) are excluded
    from the mean; disconnected pairs raise.
    """
    if sources is None:
        sources = np.arange(g.n, dtype=np.int64)
    hist = np.zeros(1, dtype=np.int64)
    for lo in range(0, len(sources), batch):
        block = sources[lo : lo + batch]
        dmat = distance_matrix(g, block, batch=batch)
        if np.any(dmat < 0):
            raise ValueError("graph is disconnected; distances undefined")
        top = int(dmat.max())
        if top + 1 > len(hist):
            hist = np.concatenate([hist, np.zeros(top + 1 - len(hist), np.int64)])
        hist += np.bincount(dmat.ravel(), minlength=len(hist))[: len(hist)]
    hist0 = hist.copy()
    hist0[0] = 0  # drop the (u, u) self pairs
    total_pairs = int(hist0.sum())
    mean = float((np.arange(len(hist0)) * hist0).sum() / total_pairs)
    diam = int(np.max(np.nonzero(hist0)[0]))
    return hist0, diam, mean
