"""Generic Cayley-graph construction by orbit closure.

Given the identity's key and a vectorised right multiplication on element
keys, the closure BFS-closes the subgroup generated by the generators,
starting from the identity, and returns the right-multiplication
permutation of every generator, ``v -> v s``: the Cayley graph's edges.
This is the "efficient algorithm by which topologies on tens of millions of
vertices may be easily generated" that the paper attributes to Elzinga
[28]; here it is vectorised over whole BFS frontiers, and each
(vertex, generator) product is computed once and resolved to its vertex id
through a direct-address table of keys.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConstructionError
from repro.graphs.csr import sorted_unique


def cayley_graph_closure(
    identity_key: int,
    right_multiply: Callable[[np.ndarray], np.ndarray],
    n_keys: int,
    max_vertices: int = 50_000_000,
) -> tuple[np.ndarray, np.ndarray]:
    """BFS-close a group from its identity; return its Cayley edges.

    Group elements are named by integer keys: distinct per element, and
    dense in ``[0, n_keys)``, since a table of ``n_keys`` int32 maps each
    key to its vertex id (keep ``n_keys`` within a small multiple of the
    group order).

    Parameters
    ----------
    identity_key:
        Key of the group identity.
    right_multiply:
        ``right_multiply(keys (m,)) -> (s, m)``: row ``j`` holds the keys of
        ``x s_j`` for the elements ``x`` named by ``keys``.  The generator
        set must be symmetric (closed under inverse) for the graph to be
        undirected; the caller is responsible for that (LPS generator sets
        are).
    n_keys:
        Size of the key range.

    Returns
    -------
    (keys, perms):
        ``keys``: int64 key of every vertex.  Numbering: the identity is
        vertex 0 and each BFS level's new elements take the next ids in
        ascending key order (topology pickles and cached LPS permutations
        depend on exactly this).
        ``perms``: int32 array of shape ``(s, n)`` with ``perms[j, v]`` the
        vertex of ``v s_j``: the directed pairs ``(v, v s_j)`` for every
        vertex and generator.
    """
    if not 0 <= identity_key < n_keys:
        raise ConstructionError(f"identity key outside [0, {n_keys})")
    # key -> vertex id, -1 while unseen.
    vertex_of = np.full(n_keys, -1, dtype=np.int32)
    frontier = np.array([identity_key], dtype=np.int64)
    vertex_of[frontier] = 0
    level_keys = [frontier]
    perm_blocks: list[np.ndarray] = []
    n = 1
    while len(frontier):
        # Every product of the level, formed once, here.
        prods = np.asarray(right_multiply(frontier), dtype=np.int64)
        if len(prods) == 0:
            raise ConstructionError("generator set is empty")
        if int(prods.min()) < 0 or int(prods.max()) >= n_keys:
            raise ConstructionError(f"product key outside [0, {n_keys})")
        ids = vertex_of[prods]
        unseen = ids < 0
        new_keys = sorted_unique(prods[unseen])
        if n + len(new_keys) > max_vertices:
            raise ConstructionError(
                f"group closure exceeded max_vertices={max_vertices}"
            )
        # New vertices take ids in ascending key order within the level.
        vertex_of[new_keys] = np.arange(n, n + len(new_keys), dtype=np.int32)
        ids[unseen] = vertex_of[prods[unseen]]
        perm_blocks.append(ids)
        level_keys.append(new_keys)
        n += len(new_keys)
        frontier = new_keys
    return np.concatenate(level_keys), np.concatenate(perm_blocks, axis=1)
