"""Generic Cayley-graph construction by orbit closure.

Given canonical-form generators and a vectorised multiply/canonicalise/encode
triple, the builder BFS-closes the subgroup generated by the generators
starting from the identity, then emits the edge list ``{v, v s}``.  This is
the "efficient algorithm by which topologies on tens of millions of vertices
may be easily generated" that the paper attributes to Elzinga [28]; here it
is vectorised over whole BFS frontiers.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConstructionError


def cayley_graph_closure(
    identity: np.ndarray,
    generators: np.ndarray,
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray],
    canonicalize: Callable[[np.ndarray], np.ndarray],
    encode: Callable[[np.ndarray], np.ndarray],
    max_vertices: int = 50_000_000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Close the subgroup generated by ``generators`` and build Cayley edges.

    Parameters
    ----------
    identity:
        Canonical representative of the group identity, shape ``(d,)``.
    generators:
        Canonical generator representatives, shape ``(s, d)``.  The set must
        be symmetric (closed under inverse) for the graph to be undirected;
        the caller is responsible for that (LPS generator sets are).
    multiply:
        ``multiply(elements (n, d), generator (d,)) -> (n, d)`` — right
        multiplication of a batch by one generator.
    canonicalize / encode:
        Map arbitrary representatives to canonical form / int64 keys.

    Returns
    -------
    (elements, keys, edges):
        ``elements``: canonical representatives, shape ``(n, d)``, index =
        vertex id (BFS discovery order; identity is vertex 0).
        ``keys``: int64 key per vertex.
        ``edges``: int64 array of shape ``(n * s, 2)`` listing the directed
        pairs ``(v, v s)`` for every vertex and generator (the caller
        symmetrises/dedupes when building the simple graph).
    """
    identity = canonicalize(np.asarray(identity)[None, :])[0]
    gens = canonicalize(np.asarray(generators))
    n_gens = len(gens)
    if n_gens == 0:
        raise ConstructionError("generator set is empty")

    # Keys seen so far, kept sorted: each level resolves its distinct
    # products with one searchsorted instead of a per-vertex dict.
    seen = encode(identity[None, :])
    elements_chunks: list[np.ndarray] = [identity[None, :]]

    frontier = identity[None, :]
    while len(frontier) > 0:
        # Multiply the whole frontier by every generator at once.
        products = np.concatenate([multiply(frontier, g) for g in gens], axis=0)
        canon = canonicalize(products)
        uniq_keys, first_pos = np.unique(encode(canon), return_index=True)
        pos = np.searchsorted(seen, uniq_keys)
        new = seen[np.minimum(pos, len(seen) - 1)] != uniq_keys
        if not new.any():
            break
        seen = np.insert(seen, pos[new], uniq_keys[new])
        if len(seen) > max_vertices:
            raise ConstructionError(
                f"group closure exceeded max_vertices={max_vertices}"
            )
        # New vertices take ids in ascending key order within the level.
        frontier = canon[first_pos[new]]
        elements_chunks.append(frontier)

    elements = np.concatenate(elements_chunks, axis=0)
    n_vertices = len(elements)
    all_keys = encode(elements)

    # Vectorised neighbour resolution: sort keys once, then searchsorted.
    order = np.argsort(all_keys)
    sorted_keys = all_keys[order]
    sources = np.arange(n_vertices, dtype=np.int64)
    edge_list = np.empty((n_vertices * n_gens, 2), dtype=np.int64)
    for gi, g in enumerate(gens):
        prod = canonicalize(multiply(elements, g))
        pk = encode(prod)
        pos = np.searchsorted(sorted_keys, pk)
        if np.any(pos >= n_vertices) or np.any(sorted_keys[pos] != pk):
            raise ConstructionError(
                "generator product left the closed vertex set; "
                "generators not closed under the group operation?"
            )
        targets = order[pos]
        edge_list[gi * n_vertices : (gi + 1) * n_vertices, 0] = sources
        edge_list[gi * n_vertices : (gi + 1) * n_vertices, 1] = targets
    return elements, all_keys, edge_list
