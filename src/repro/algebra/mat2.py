"""Vectorised 2x2 matrix arithmetic over prime fields F_q.

Matrices are stored row-major as integer arrays of shape ``(..., 4)``:
``[a, b, c, d]`` represents ``[[a, b], [c, d]]`` with entries in
``{0, ..., q-1}``.  Projective canonicalisation (dividing by the first
non-zero entry) gives a unique representative per PGL(2, q) coset, which is
how LPS vertices are identified during the Cayley-graph closure.
"""

from __future__ import annotations

import numpy as np

from repro.nt.modular import mod_inverse


def mat_identity(q: int) -> np.ndarray:
    """Return the identity matrix as a length-4 array mod q."""
    return np.array([1, 0, 0, 1], dtype=np.int64)


def mat_multiply(lhs: np.ndarray, rhs: np.ndarray, q: int) -> np.ndarray:
    """Multiply batches of 2x2 matrices modulo q.

    ``lhs`` and ``rhs`` broadcast against each other on their leading
    dimensions; the trailing dimension must be 4.
    """
    a1, b1, c1, d1 = (lhs[..., i] for i in range(4))
    a2, b2, c2, d2 = (rhs[..., i] for i in range(4))
    out = np.empty(np.broadcast(a1, a2).shape + (4,), dtype=np.int64)
    out[..., 0] = (a1 * a2 + b1 * c2) % q
    out[..., 1] = (a1 * b2 + b1 * d2) % q
    out[..., 2] = (c1 * a2 + d1 * c2) % q
    out[..., 3] = (c1 * b2 + d1 * d2) % q
    return out


def mat_determinant(mats: np.ndarray, q: int) -> np.ndarray:
    """Return determinants (mod q) of a batch of matrices."""
    return (mats[..., 0] * mats[..., 3] - mats[..., 1] * mats[..., 2]) % q


def _inverse_table(q: int) -> np.ndarray:
    """Table of multiplicative inverses mod prime q (index 0 unused)."""
    table = np.zeros(q, dtype=np.int64)
    for a in range(1, q):
        table[a] = mod_inverse(a, q)
    return table


_INV_CACHE: dict[int, np.ndarray] = {}


def mat_canonicalize(mats: np.ndarray, q: int) -> np.ndarray:
    """Return the canonical projective representative of each matrix.

    Scales each matrix so that its first non-zero entry (scanning
    ``a, b, c, d``) equals 1; two matrices represent the same PGL(2, q)
    element iff their canonical forms are equal.  Fully vectorised.
    """
    if q not in _INV_CACHE:
        _INV_CACHE[q] = _inverse_table(q)
    inv = _INV_CACHE[q]
    mats = np.atleast_2d(np.asarray(mats, dtype=np.int64) % q)
    nonzero = mats != 0
    # Index of the first non-zero entry per matrix.
    first = np.argmax(nonzero, axis=-1)
    lead = np.take_along_axis(mats, first[..., None], axis=-1)[..., 0]
    if np.any(lead == 0):
        raise ValueError("zero matrix cannot be canonicalised projectively")
    scale = inv[lead]
    return (mats * scale[..., None]) % q


def mat_encode(mats: np.ndarray, q: int) -> np.ndarray:
    """Perfect int64 key of the canonical invertible matrices.

    A canonical form's first non-zero entry is 1, so ``a`` is 0 or 1, and
    ``a = 0`` forces ``b = 1`` (the matrix is invertible): those forms take
    ``c*q + d`` in ``[0, q^2)`` and the ``a = 1`` forms
    ``q^2 + (b*q + c)*q + d``.  The keys are dense in ``[0, q^3 + q^2)``,
    which lets the Cayley closure resolve them through a flat table, and
    compare like the forms' base-q digits ``((a*q + b)*q + c)*q + d``, so
    sorting by key sorts by entries.
    """
    mats = np.atleast_2d(mats)
    a, b, c, d = (mats[..., i] for i in range(4))
    return a * (b + 1) * (q * q) + c * q + d


def mat_product_keys(mats: np.ndarray, g: np.ndarray, q: int) -> np.ndarray:
    """Keys of the canonical forms of ``mats @ g``, all invertible.

    Equals ``mat_encode(mat_canonicalize(mat_multiply(mats, g, q), q), q)``
    in one pass per entry: a product of invertible matrices is
    invertible, so its first non-zero entry is ``a``, or else ``b``.
    """
    if q not in _INV_CACHE:
        _INV_CACHE[q] = _inverse_table(q)
    g0, g1, g2, g3 = (int(x) for x in g)
    a1, b1, c1, d1 = (mats[:, i] for i in range(4))
    a = (a1 * g0 + b1 * g2) % q
    b = (a1 * g1 + b1 * g3) % q
    scale = _INV_CACHE[q][np.where(a != 0, a, b)]
    c = (c1 * g0 + d1 * g2) * scale % q
    d = (c1 * g1 + d1 * g3) * scale % q
    return np.where(a != 0, (b * scale % q + 1) * (q * q), 0) + c * q + d


def mat_decode(keys: np.ndarray, q: int) -> np.ndarray:
    """Inverse of :func:`mat_encode`: the canonical form of each key."""
    keys = np.asarray(keys, dtype=np.int64)
    hi = keys // (q * q)  # 0 when a = 0, else b + 1
    a = (hi > 0).astype(np.int64)
    b = np.where(hi > 0, hi - 1, 1)
    return np.stack([a, b, keys // q % q, keys % q], axis=-1)


def pgl2_order(q: int) -> int:
    """|PGL(2, q)| = q^3 - q."""
    return q**3 - q


def psl2_order(q: int) -> int:
    """|PSL(2, q)| = (q^3 - q) / gcd(2, q - 1)."""
    return (q**3 - q) // (2 if q % 2 == 1 else 1)


def pgl2_elements(q: int) -> np.ndarray:
    """Enumerate all canonical PGL(2, q) representatives (small q only).

    Intended for tests; O(q^4) work.
    """
    grid = np.stack(
        np.meshgrid(*(np.arange(q),) * 4, indexing="ij"), axis=-1
    ).reshape(-1, 4)
    dets = mat_determinant(grid, q)
    invertible = grid[dets != 0]
    canon = mat_canonicalize(invertible, q)
    keys = mat_encode(canon, q)
    uniq = np.unique(keys)
    return mat_decode(uniq, q)
