"""The SpectralFly topology: Lubotzky--Phillips--Sarnak (LPS) graphs.

Implements Definition 3 of the paper.  For distinct odd primes ``p, q`` with
``q > 2 sqrt(p)``:

1. Enumerate the ``p + 1`` normalised four-square representations of ``p``
   (:func:`repro.nt.quaternions.lps_generators_alpha`).
2. Pick ``(x, y)`` with ``x^2 + y^2 + 1 = 0 (mod q)`` and map each solution
   ``(a0, a1, a2, a3)`` to the generator matrix
   ``[[a0 + a1 x + a3 y, -a1 y + a2 + a3 x],
      [-a1 y - a2 + a3 x, a0 - a1 x - a3 y]] (mod q)``.
3. Close the group generated by these matrices inside PGL(2, q) starting
   from the identity (vectorised orbit BFS — the Elzinga method [28]).  The
   closure is PSL(2, q) when the Legendre symbol (p/q) = 1 (non-bipartite
   graph on (q^3 - q)/2 vertices) and all of PGL(2, q) when (p/q) = -1
   (bipartite graph on q^3 - q vertices).

The result is a (p + 1)-regular Ramanujan graph; construction-time checks
assert the vertex count, simplicity and regularity (the closure from the
identity is connected by construction).

Paper: Section III, Definition 3 (the SpectralFly topology itself);
design-space and feasibility sweeps appear in Section IV / Fig. 4.
Constraints: ``p, q`` distinct odd primes with ``q > 2 sqrt(p)``; router
radix ``k = p + 1``; ``(q^3 - q)/2`` routers when ``(p/q) = 1`` (PSL,
non-bipartite) or ``q^3 - q`` when ``(p/q) = -1`` (PGL, bipartite).
"""

from __future__ import annotations

import math

import numpy as np

from repro.algebra.cayley import cayley_graph_closure
from repro.algebra.mat2 import (
    mat_canonicalize,
    mat_decode,
    mat_determinant,
    mat_encode,
    mat_identity,
    mat_product_keys,
    pgl2_order,
    psl2_order,
)
from repro.errors import ConstructionError, ParameterError
from repro.graphs.csr import CSRGraph
from repro.nt.modular import legendre_symbol, solve_sum_of_two_squares_plus_one
from repro.nt.primes import is_prime, primes_below
from repro.nt.quaternions import lps_generators_alpha
from repro.topology.base import Topology


def lps_feasible(p: int, q: int, require_ramanujan: bool = True) -> bool:
    """True iff (p, q) are valid LPS parameters.

    The construction needs distinct odd primes; the Ramanujan *guarantee*
    (Definition 3) additionally needs ``q > 2 sqrt(p)``.  The paper itself
    uses instances outside the guarantee (LPS(19,7) in Table II), so
    ``require_ramanujan=False`` admits them; construction-time validation
    still verifies the graph is simple and (p+1)-regular.
    """
    ok = p != q and p >= 3 and q >= 3 and is_prime(p) and is_prime(q)
    if require_ramanujan:
        ok = ok and q > 2.0 * math.sqrt(p)
    return ok


def lps_num_vertices(p: int, q: int) -> int:
    """Closed-form vertex count ``(3 - (p/q)) (q^3 - q) / 4``."""
    if not lps_feasible(p, q, require_ramanujan=False):
        raise ParameterError(f"LPS({p},{q}) is not feasible")
    if legendre_symbol(p, q) == 1:
        return psl2_order(q)
    return pgl2_order(q)


def lps_generator_matrices(p: int, q: int) -> np.ndarray:
    """The ``p + 1`` canonical generator matrices of LPS(p, q)."""
    x, y = solve_sum_of_two_squares_plus_one(q)
    mats = []
    for a0, a1, a2, a3 in lps_generators_alpha(p):
        mats.append(
            [
                (a0 + a1 * x + a3 * y) % q,
                (-a1 * y + a2 + a3 * x) % q,
                (-a1 * y - a2 + a3 * x) % q,
                (a0 - a1 * x - a3 * y) % q,
            ]
        )
    gens = np.array(mats, dtype=np.int64)
    dets = mat_determinant(gens, q)
    if np.any(dets == 0):
        raise ConstructionError("singular LPS generator; (x, y) solution bad?")
    return mat_canonicalize(gens, q)


def _lps_generator_permutations(p: int, q: int) -> np.ndarray:
    """Close LPS(p, q)'s group; return its ``(p+1, n)`` int32 permutations."""
    gens = lps_generator_matrices(p, q)

    def right_multiply(keys: np.ndarray) -> np.ndarray:
        mats = mat_decode(keys, q)
        return np.stack([mat_product_keys(mats, g, q) for g in gens])

    _, perms = cayley_graph_closure(
        int(mat_encode(mat_identity(q), q)[0]),
        right_multiply,
        n_keys=q**3 + q**2,  # mat_encode's key range
    )
    return perms


def build_lps(p: int, q: int, validate: bool = True) -> Topology:
    """Construct the SpectralFly topology LPS(p, q).

    The group closure yields each generator's right-multiplication
    permutation ``perms[j][v] = v s_j`` (kept as ``gen_perms`` for the
    routing oracles), and the CSR rows are each router's ``p + 1``
    generator images, sorted: the graph is ``(p+1)``-regular and simple
    whenever the generators are distinct non-identity elements of the group
    closed under inverse, which is checked on every build.  No edge list is
    formed.

    Parameters
    ----------
    p, q:
        Distinct odd primes with ``q > 2 sqrt(p)``.  The radix is ``p + 1``.
    validate:
        Also check the vertex count against the closed form.  (The closure
        is connected by construction, from the identity.)

    Returns
    -------
    Topology
        ``(p+1)``-regular Ramanujan graph on ``(3 - (p/q)) (q^3 - q)/4``
        routers.
    """
    if not lps_feasible(p, q, require_ramanujan=False):
        raise ParameterError(
            f"LPS({p},{q}) infeasible: p, q must be distinct odd primes"
        )
    gen_perms = _lps_generator_permutations(p, q)
    k, n = gen_perms.shape
    if validate and n != lps_num_vertices(p, q):
        raise ConstructionError(
            f"LPS({p},{q}): built {n} vertices, expected "
            f"{lps_num_vertices(p, q)}"
        )
    # v s_i == v s_j iff s_i == s_j, so the vertices of the generators
    # themselves (column 0) decide simplicity and symmetry for every row.
    gen_vertices = gen_perms[:, 0]
    degree = len(np.unique(gen_vertices[gen_vertices != 0]))
    if degree != k:
        raise ConstructionError(
            f"LPS({p},{q}): degree range [{degree}, {degree}], expected {k} "
            "(parallel generator edges indicate q too small)"
        )
    if not np.all((gen_perms[:, gen_vertices] == 0).any(axis=0)):
        raise ConstructionError(
            f"LPS({p},{q}): generator set not closed under inverse"
        )
    rows = np.ascontiguousarray(gen_perms.T)
    rows.sort(axis=1)
    graph = CSRGraph(
        n, np.arange(0, n * k + 1, k, dtype=np.int64), rows.reshape(-1)
    )
    return Topology(
        name=f"LPS({p},{q})",
        family="LPS",
        graph=graph,
        params={"p": p, "q": q, "legendre": legendre_symbol(p, q)},
        vertex_transitive=True,
        gen_perms=gen_perms,
    )


def lps_generator_permutations(p: int, q: int) -> np.ndarray:
    """Right-multiplication permutations of LPS(p, q), shape ``(p+1, n)``.

    Vertex ids match :func:`build_lps` exactly (the closure's BFS discovery
    order is deterministic), so this regenerates the ``gen_perms`` field
    for topologies restored from pickles that predate it.  Disk-cached —
    the closure is the expensive part at scale.
    """
    from repro.utils.diskcache import get_default_cache

    return get_default_cache().memoize(
        ("lps-gen-perms", p, q), lambda: _lps_generator_permutations(p, q)
    )


def lps_design_space(max_p: int = 300, max_q: int = 300) -> list[dict]:
    """Enumerate feasible LPS parameter combinations (Fig. 4 upper left).

    Returns rows with p, q, radix and the closed-form vertex count; no graphs
    are built, so scanning p, q < 300 is instant.
    """
    rows = []
    ps = primes_below(max_p)
    qs = primes_below(max_q)
    for p in ps:
        if p < 3:
            continue
        for q in qs:
            if q < 3 or not lps_feasible(int(p), int(q)):
                continue
            rows.append(
                {
                    "p": int(p),
                    "q": int(q),
                    "radix": int(p) + 1,
                    "vertices": lps_num_vertices(int(p), int(q)),
                }
            )
    return rows
