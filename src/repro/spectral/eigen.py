"""Extremal adjacency eigenvalues, lambda(G), the spectral gap, and mu1.

Definitions follow Section II of the paper:

* ``lambda(G)`` — largest-magnitude adjacency eigenvalue not equal to +-k
  (k = degree of the regular graph).
* spectral gap — ``k - lambda_2`` where lambda_2 is the second largest
  adjacency eigenvalue.
* ``mu1`` — the normalized Laplacian spectral gap ``(k - lambda_2) / k``
  (the paper's Table I column; equals the second-smallest normalized
  Laplacian eigenvalue for regular graphs).
* Ramanujan property — ``lambda(G) <= 2 sqrt(k - 1)``.

Small graphs use dense LAPACK; larger graphs use Lanczos on both spectrum
ends (``scipy.sparse.linalg.eigsh``), which is exact for the extremes we
need and is the only feasible route at the paper's 7K-vertex scale.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.graphs.metrics import is_bipartite
from repro.utils.rng import as_rng

_DENSE_THRESHOLD = 600
_EIG_TOL = 1e-8


def _lanczos_v0(n: int) -> np.ndarray:
    """Deterministic Lanczos start vector.

    ``eigsh`` otherwise seeds its iteration from numpy's *global* RNG,
    which makes every spectral quantity on graphs above the dense
    threshold depend on unrelated prior ``np.random`` calls.  A fixed
    start vector keeps ``lambda_g``/``spectral_gap`` bit-stable, which
    the search trajectory pins depend on.
    """
    return as_rng(0).standard_normal(n)


def adjacency_extremes(g: CSRGraph, k_each: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Return (lowest, highest) adjacency eigenvalues, ``k_each`` from each end.

    Both arrays are sorted ascending.  Dense solve below the size threshold;
    Lanczos otherwise.
    """
    n = g.n
    if n <= _DENSE_THRESHOLD:
        dense = g.adjacency().toarray()
        vals = np.linalg.eigvalsh(dense)
        k_each = min(k_each, n)
        return vals[:k_each], vals[-k_each:]
    import scipy.sparse.linalg as spla

    adj = g.adjacency()
    k_each = min(k_each, n - 2)
    v0 = _lanczos_v0(n)
    high = np.sort(spla.eigsh(adj, k=k_each, which="LA", return_eigenvectors=False,
                              tol=_EIG_TOL, v0=v0))
    low = np.sort(spla.eigsh(adj, k=k_each, which="SA", return_eigenvectors=False,
                             tol=_EIG_TOL, v0=v0))
    return low, high


def lambda_g(g: CSRGraph, bipartite: bool | None = None) -> float:
    """The paper's lambda(G): largest |eigenvalue| not equal to +-k.

    For a connected k-regular graph the largest eigenvalue is k (excluded);
    -k is an eigenvalue iff the graph is bipartite (excluded then too).
    """
    k = g.degree()
    low, high = adjacency_extremes(g)
    if bipartite is None:
        bipartite = is_bipartite(g)
    # Second largest: drop the single Perron eigenvalue k.
    lam2 = float(high[-2])
    lam_min = float(low[0])
    if bipartite:
        # -k has multiplicity = number of connected components (1 here).
        lam_min = float(low[1])
    return max(abs(lam2), abs(lam_min))


def spectral_gap(g: CSRGraph) -> float:
    """``k - lambda_2`` — the (adjacency) spectral gap of a regular graph."""
    k = g.degree()
    _, high = adjacency_extremes(g)
    return float(k - high[-2])


def mu1(g: CSRGraph) -> float:
    """The paper's Table I column: ``(k - lambda(G)) / k``.

    ``lambda(G)`` is the largest-*magnitude* eigenvalue not equal to +-k.
    (The paper describes mu1 as the normalized Laplacian gap; its reported
    numbers use the magnitude convention — e.g. SF(7) = 0.62 comes from the
    MMS eigenvalue -(1+sqrt(2q-1))/... side, not the positive (q-1)/2.  When
    the positive side dominates the two definitions coincide; see
    :func:`normalized_laplacian_gap` for the strict Laplacian quantity.)
    """
    return (g.degree() - lambda_g(g)) / g.degree()


def normalized_laplacian_gap(g: CSRGraph) -> float:
    """General (possibly irregular) normalized Laplacian second eigenvalue.

    Computes the spectrum of ``I - D^{-1/2} A D^{-1/2}``; for regular graphs
    this equals :func:`mu1`.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    deg = g.degrees().astype(np.float64)
    if np.any(deg == 0):
        raise ValueError("isolated vertex; normalized Laplacian undefined")
    dinv = sp.diags(1.0 / np.sqrt(deg))
    norm_adj = dinv @ g.adjacency() @ dinv
    if g.n <= _DENSE_THRESHOLD:
        vals = np.linalg.eigvalsh(norm_adj.toarray())
        return float(1.0 - vals[-2])
    high = np.sort(
        spla.eigsh(norm_adj, k=2, which="LA", return_eigenvectors=False,
                   tol=_EIG_TOL, v0=_lanczos_v0(g.n))
    )
    return float(1.0 - high[-2])


def is_ramanujan(g: CSRGraph, tol: float = 1e-6) -> bool:
    """True iff ``lambda(G) <= 2 sqrt(k - 1) + tol`` (Definition 1)."""
    k = g.degree()
    return lambda_g(g) <= 2.0 * np.sqrt(k - 1.0) + tol
