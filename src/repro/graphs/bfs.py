"""Level-synchronous BFS kernels.

Two implementations are provided:

* :func:`bfs_distances` — single-source frontier BFS using vectorised
  neighbour gathering (no per-vertex Python loop).
* :func:`distance_matrix` / :func:`distance_profile` — multi-source BFS
  over the CSR arrays with the sources packed 64 to a ``uint64`` word, so
  one gather and one OR-reduction advance up to 64 searches per word at
  once.  This is what makes all-pairs statistics (diameter, average
  distance, Table I) and the dense routing tables cheap at the paper's
  scale in pure numpy.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph, sorted_unique

UNREACHED = np.iinfo(np.int32).max
_WORD = np.dtype("<u8")  # one bit per BFS source, 64 sources to a word


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


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack an ``(n, width)`` bool array into ``(n, ceil(width / 64))`` words.

    Bit ``j`` of word ``k`` in row ``v`` is column ``64 k + j``; the words
    are little-endian on every host, so a ``uint8`` view of them is the
    ``bitorder="little"`` byte layout :func:`_unpack` reads.
    """
    n, width = bits.shape
    packed = np.zeros((n, -(-width // 64) * 8), dtype=np.uint8)
    packed[:, : -(-width // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(_WORD)


def _unpack(words: np.ndarray, width: int) -> np.ndarray:
    """The ``(n, width)`` bool array that :func:`_pack` packed into ``words``."""
    return np.unpackbits(
        words.view(np.uint8), axis=1, count=width, bitorder="little"
    ).view(bool)


def distance_matrix(
    g: CSRGraph,
    sources: np.ndarray | None = None,
    batch: int = 512,
    dtype=np.int16,
) -> np.ndarray:
    """All-(or some-)pairs hop distances by bit-parallel multi-source BFS.

    Sources run in blocks of ``batch``.  A block packs its sources 64 to a
    word, one bit per source in every vertex's row.  Each level gathers
    the frontier words over ``indices``, OR-reduces them per CSR row and
    masks off the words already seen; the new bits are the next frontier.
    A vertex's distance is the number of levels it was still unseen at.

    Returns an array of shape ``(len(sources), n)``; unreachable pairs hold
    ``-1``.  Memory per level is ``O(E * batch / 64)`` words for the
    gathered frontier, plus ``O(n * batch)`` for the block's distances, on
    top of the output.
    """
    if sources is None:
        sources = np.arange(g.n, dtype=np.int64)
    sources = np.asarray(sources, dtype=np.int64)
    out = np.empty((len(sources), g.n), dtype=dtype)
    # reduceat reads a row with no neighbours as the next row's first
    # entry (or past the end for trailing ones), so reduce only the rows
    # that have neighbours.
    rows = np.flatnonzero(np.diff(g.indptr))
    starts = g.indptr[rows]
    for lo in range(0, len(sources), batch):
        block = sources[lo : lo + batch]
        width = len(block)
        bits = np.zeros((g.n, width), dtype=bool)
        bits[block, np.arange(width)] = True
        frontier = _pack(bits)
        seen = frontier.copy()
        dist = np.zeros((g.n, width), dtype=dtype)
        while True:
            new = np.zeros_like(seen)
            new[rows] = np.bitwise_or.reduceat(
                frontier[g.indices], starts, axis=0
            )
            unseen = ~seen
            new &= unseen
            if not new.any():
                break
            dist += _unpack(unseen, width)
            seen |= new
            frontier = new
        unreached = _unpack(~seen, width)
        if unreached.any():
            dist[unreached] = -1
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
