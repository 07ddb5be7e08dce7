"""Tests for repro.algebra.mat2 — projective 2x2 matrix arithmetic."""

import numpy as np
import pytest

from repro.algebra.mat2 import (
    mat_canonicalize,
    mat_decode,
    mat_determinant,
    mat_encode,
    mat_identity,
    mat_multiply,
    mat_product_keys,
    pgl2_elements,
    pgl2_order,
    psl2_order,
)


class TestMultiply:
    def test_identity(self):
        q = 7
        rng = np.random.default_rng(0)
        mats = rng.integers(0, q, size=(20, 4))
        ident = mat_identity(q)
        assert np.array_equal(mat_multiply(mats, ident[None, :], q), mats % q)

    def test_associative(self):
        q = 11
        rng = np.random.default_rng(1)
        a, b, c = rng.integers(0, q, size=(3, 4))
        lhs = mat_multiply(mat_multiply(a, b, q), c, q)
        rhs = mat_multiply(a, mat_multiply(b, c, q), q)
        assert np.array_equal(lhs, rhs)

    def test_matches_numpy_matmul(self):
        q = 13
        rng = np.random.default_rng(2)
        a = rng.integers(0, q, size=4)
        b = rng.integers(0, q, size=4)
        am = a.reshape(2, 2)
        bm = b.reshape(2, 2)
        expect = (am @ bm) % q
        got = mat_multiply(a, b, q).reshape(2, 2)
        assert np.array_equal(got, expect)

    def test_determinant_multiplicative(self):
        q = 17
        rng = np.random.default_rng(3)
        a = rng.integers(0, q, size=(50, 4))
        b = rng.integers(0, q, size=(50, 4))
        det_prod = mat_determinant(mat_multiply(a, b, q), q)
        prod_det = mat_determinant(a, q) * mat_determinant(b, q) % q
        assert np.array_equal(det_prod, prod_det)


class TestCanonicalize:
    def test_scalar_multiples_identified(self):
        q = 7
        m = np.array([1, 2, 3, 4])
        for s in range(1, q):
            scaled = (m * s) % q
            assert np.array_equal(
                mat_canonicalize(m, q)[0], mat_canonicalize(scaled, q)[0]
            )

    def test_leading_entry_is_one(self):
        q = 11
        rng = np.random.default_rng(4)
        mats = rng.integers(0, q, size=(100, 4))
        mats = mats[mat_determinant(mats, q) != 0]
        canon = mat_canonicalize(mats, q)
        lead = canon[np.arange(len(canon)), np.argmax(canon != 0, axis=1)]
        assert np.all(lead == 1)

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            mat_canonicalize(np.zeros(4, dtype=np.int64), 5)

    def test_idempotent(self):
        q = 13
        rng = np.random.default_rng(5)
        mats = rng.integers(0, q, size=(50, 4))
        mats = mats[mat_determinant(mats, q) != 0]
        once = mat_canonicalize(mats, q)
        assert np.array_equal(once, mat_canonicalize(once, q))


def _canonical_forms(q: int) -> np.ndarray:
    """Every canonical invertible matrix, enumerated from the definition.

    First non-zero entry 1: ``a = 1`` with any ``b, c, d``, or ``a = 0,
    b = 1`` with any ``c, d`` (``a = b = 0`` is singular); singular ones
    dropped.  Base-q digit order, independent of ``mat_encode``.
    """
    grid = np.stack(
        np.meshgrid(*(np.arange(q),) * 3, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    a1 = np.concatenate([np.ones((len(grid), 1), dtype=np.int64), grid], axis=1)
    cd = grid[grid[:, 0] == 0][:, 1:]  # one row per (c, d)
    a0 = np.concatenate(
        [np.zeros((len(cd), 1), dtype=np.int64),
         np.ones((len(cd), 1), dtype=np.int64), cd], axis=1)
    forms = np.concatenate([a0, a1])
    return forms[mat_determinant(forms, q) != 0]


class TestEncode:
    @pytest.mark.parametrize("q", [3, 5, 19])
    def test_roundtrip(self, q):
        # mat_encode is a key of canonical forms; every one decodes back.
        forms = _canonical_forms(q)
        assert len(forms) == pgl2_order(q)
        keys = mat_encode(forms, q)
        assert np.array_equal(mat_decode(keys, q), forms)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_injective(self, q):
        # Every invertible matrix canonicalises to one of |PGL(2, q)|
        # forms, and those take distinct keys, dense in [0, q^3 + q^2) and
        # ascending in the forms' base-q digit order.
        grid = np.stack(
            np.meshgrid(*(np.arange(q),) * 4, indexing="ij"), axis=-1
        ).reshape(-1, 4)
        grid = grid[mat_determinant(grid, q) != 0]
        keys = mat_encode(mat_canonicalize(grid, q), q)
        assert len(np.unique(keys)) == pgl2_order(q)
        form_keys = mat_encode(_canonical_forms(q), q)
        assert np.array_equal(np.unique(keys), form_keys)
        assert form_keys.min() >= 0 and form_keys.max() < q**3 + q**2

    @pytest.mark.parametrize("q", [5, 13])
    def test_product_keys_match_the_general_path(self, q):
        forms = _canonical_forms(q)
        rng = np.random.default_rng(q)
        for g in forms[rng.choice(len(forms), size=8, replace=False)]:
            expect = mat_encode(
                mat_canonicalize(mat_multiply(forms, g[None, :], q), q), q
            )
            assert np.array_equal(mat_product_keys(forms, g, q), expect)


class TestGroupOrders:
    def test_orders(self):
        assert pgl2_order(5) == 120
        assert psl2_order(5) == 60
        assert pgl2_order(7) == 336
        assert psl2_order(11) == 660

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_enumeration_matches_order(self, q):
        els = pgl2_elements(q)
        assert len(els) == pgl2_order(q)

    def test_pgl_elements_invertible_and_canonical(self):
        q = 5
        els = pgl2_elements(q)
        assert np.all(mat_determinant(els, q) != 0)
        assert np.array_equal(els, mat_canonicalize(els, q))
