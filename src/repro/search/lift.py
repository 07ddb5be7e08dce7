"""2-lifts with signing search, after Marcus–Spielman–Srivastava.

A 2-lift of a graph ``G = (V, E)`` doubles every vertex (``v`` becomes
``v`` and ``v' = v + n``) and replaces each edge ``(u, v)`` by a pair of
edges chosen by a sign ``s(u,v) in {+1, -1}``:

* ``+1`` (parallel):  ``(u, v)`` and ``(u', v')``
* ``-1`` (crossed):   ``(u, v')`` and ``(u', v)``

The lift is 2n-vertex and degree-preserving, and its adjacency spectrum
is exactly ``spec(A) ∪ spec(A_s)`` where ``A_s`` is the *signed*
adjacency matrix (``A`` with each edge entry multiplied by its sign) —
the "old" eigenvalues survive on symmetric vectors, the "new" ones live
on antisymmetric vectors.  MSS's interlacing-families theorem (PAPERS.md)
proves some signing keeps every new eigenvalue within the Ramanujan bound
``2 sqrt(k-1)``; this module *searches* for such signings by greedy
single-edge sign flips from randomized restarts, scoring the extremal
signed-adjacency eigenvalue.

The all-(+1) signing is the trivial lift — two disjoint copies of ``G``
(``A_s = A``, so the spectrum simply doubles); the property suite pins
this identity along with the spectrum-union decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ParameterError
from repro.graphs.csr import CSRGraph
from repro.spectral.eigen import _DENSE_THRESHOLD, _EIG_TOL
from repro.utils.rng import as_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    import scipy.sparse as sp


def _check_signs(graph: CSRGraph, signs: np.ndarray) -> np.ndarray:
    signs = np.asarray(signs)
    if signs.shape != (graph.num_edges,):
        raise ParameterError(
            f"need one sign per undirected edge: expected shape "
            f"({graph.num_edges},), got {signs.shape}"
        )
    if not np.all(np.abs(signs) == 1):
        raise ParameterError("signs must be +1 or -1")
    return signs.astype(np.int8)


def two_lift(graph: CSRGraph, signs: np.ndarray) -> CSRGraph:
    """The 2-lift of ``graph`` under ``signs`` (aligned with ``edge_array()``)."""
    signs = _check_signs(graph, signs)
    edges = graph.edge_array().astype(np.int64)
    n = graph.n
    u, v = edges[:, 0], edges[:, 1]
    plus = signs > 0
    top = np.stack([u, np.where(plus, v, v + n)], axis=1)
    bottom = np.stack([u + n, np.where(plus, v + n, v)], axis=1)
    return CSRGraph.from_edges(2 * n, np.concatenate([top, bottom]))


def signed_adjacency(graph: CSRGraph, signs: np.ndarray) -> sp.csr_matrix:
    """The signed adjacency matrix ``A_s`` as a sparse CSR matrix."""
    import scipy.sparse as sp

    signs = _check_signs(graph, signs)
    edges = graph.edge_array().astype(np.int64)
    u, v = edges[:, 0], edges[:, 1]
    data = np.concatenate([signs, signs]).astype(np.float64)
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    return sp.coo_matrix((data, (rows, cols)), shape=(graph.n, graph.n)).tocsr()


def signed_adjacency_extreme(graph: CSRGraph, signs: np.ndarray) -> float:
    """``max |eigenvalue|`` of the signed adjacency ``A_s``.

    This is exactly the largest magnitude among the "new" eigenvalues the
    2-lift introduces, i.e. the quantity a good signing minimises.  Dense
    below the spectral module's size threshold, Lanczos on both spectrum
    ends above it.
    """
    a_s = signed_adjacency(graph, signs)
    if graph.n <= _DENSE_THRESHOLD:
        vals = np.linalg.eigvalsh(a_s.toarray())
        return float(max(abs(vals[0]), abs(vals[-1])))
    import scipy.sparse.linalg as spla

    v0 = as_rng(0).standard_normal(graph.n)
    hi = spla.eigsh(a_s, k=1, which="LA", return_eigenvectors=False,
                    tol=_EIG_TOL, v0=v0)
    lo = spla.eigsh(a_s, k=1, which="SA", return_eigenvectors=False,
                    tol=_EIG_TOL, v0=v0)
    return float(max(abs(float(lo[0])), abs(float(hi[0]))))


@dataclass
class LiftResult:
    """Best signing found by :func:`search_signing` and its 2-lift."""

    graph: CSRGraph  # the lifted graph (2n vertices)
    signs: np.ndarray  # best signing, aligned with the base edge_array()
    score: float  # max |eigenvalue| of the signed adjacency
    base_n: int
    restarts: int
    passes: int
    seed: int
    restart_scores: np.ndarray  # best score reached by each restart


def search_signing(
    graph: CSRGraph,
    seed: int = 0,
    restarts: int = 3,
    passes: int = 2,
) -> LiftResult:
    """Greedy single-flip signing search with randomized restarts.

    Each restart draws a uniform random signing and then makes up to
    ``passes`` sweeps over the edges in a seeded random order, keeping any
    flip that strictly lowers the signed spectral radius; a sweep with no
    improving flip ends the restart early.  Deterministic for fixed
    ``(seed, restarts, passes)``.
    """
    if restarts < 1 or passes < 1:
        raise ParameterError("search_signing needs restarts >= 1 and passes >= 1")
    m = graph.num_edges
    if m == 0:
        raise ParameterError("cannot sign an empty edge set")
    rng = as_rng(seed)

    best_signs: np.ndarray | None = None
    best_score = np.inf
    restart_scores = np.empty(restarts, dtype=np.float64)

    for r in range(restarts):
        signs = np.where(rng.random(m) < 0.5, -1, 1).astype(np.int8)
        score = signed_adjacency_extreme(graph, signs)
        for _ in range(passes):
            improved = False
            for e in rng.permutation(m):
                signs[e] = -signs[e]
                trial = signed_adjacency_extreme(graph, signs)
                if trial < score:
                    score = trial
                    improved = True
                else:
                    signs[e] = -signs[e]
            if not improved:
                break
        restart_scores[r] = score
        if score < best_score:
            best_score = score
            best_signs = signs.copy()

    assert best_signs is not None
    return LiftResult(
        graph=two_lift(graph, best_signs),
        signs=best_signs,
        score=float(best_score),
        base_n=graph.n,
        restarts=restarts,
        passes=passes,
        seed=int(seed),
        restart_scores=restart_scores,
    )
