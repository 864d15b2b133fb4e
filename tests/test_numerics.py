import numpy as np
import pytest

from signed_dpp import kernel, numerics
from signed_dpp.errors import DimensionError, SingularMatrixError


def det(a):
    """One matrix's determinant, as a one-matrix batched_det stack."""
    return numerics.batched_det(np.asarray(a, dtype=float)[None])[0]


def test_det_identity():
    assert det(np.eye(3)) == pytest.approx(1.0, abs=1e-14)


def test_det_2x2_expansion():
    assert det([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(-2.0, abs=1e-14)


def test_det_rank_one_is_zero():
    assert det([[1.0, 2.0], [2.0, 4.0]]) == pytest.approx(0.0, abs=1e-14)


def test_det_empty_matrix_is_one():
    assert det(np.zeros((0, 0))) == 1.0
    assert kernel.principal_minor(kernel.SignedKernel(np.eye(2)), ()) == 1.0


def test_det_rejects_nonsquare():
    with pytest.raises(DimensionError):
        numerics.batched_det(np.zeros((1, 2, 3)))


def test_det_rejects_nonfinite():
    with pytest.raises(DimensionError):
        kernel.principal_minor(kernel.SignedKernel([[1.0, np.nan], [0.0, 1.0]]), (1, 2))


def test_solve_identity_returns_rhs():
    b = np.array([3.0, -1.0, 2.5])
    assert np.allclose(numerics.solve_linear(np.eye(3), b), b, atol=0)


def test_solve_diagonal():
    x = numerics.solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_solve_residual_random_5x5():
    gen = np.random.default_rng(5)
    a = gen.uniform(-1, 1, (5, 5)) + 5 * np.eye(5)
    b = gen.uniform(-1, 1, 5)
    x = numerics.solve_linear(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        numerics.solve_linear([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0])


def test_det_product_property():
    gen = np.random.default_rng(17)
    for _ in range(20):
        a = gen.uniform(-1, 1, (6, 6))
        b = gen.uniform(-1, 1, (6, 6))
        lhs = det(a @ b)
        rhs = det(a) * det(b)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_det_transpose_property():
    gen = np.random.default_rng(23)
    for _ in range(20):
        a = gen.uniform(-1, 1, (6, 6))
        d = det(a)
        assert abs(det(a.T) - d) <= 1e-10 * max(1.0, abs(d))


def test_batched_det_matches_scalar():
    gen = np.random.default_rng(41)
    stack = gen.uniform(-1, 1, (40, 5, 5))
    dets = numerics.batched_det(stack)
    for t in range(40):
        assert dets[t] == pytest.approx(np.linalg.det(stack[t]), rel=1e-12, abs=1e-12)


def test_batched_det_complex_stack():
    gen = np.random.default_rng(43)
    stack = gen.uniform(-1, 1, (6, 4, 4)) + 1j * gen.uniform(-1, 1, (6, 4, 4))
    dets = numerics.batched_det(stack)
    assert dets.dtype == np.complex128
    np.testing.assert_allclose(dets, [np.linalg.det(m) for m in stack], rtol=1e-12)
    assert numerics.batched_det(np.zeros((2, 0, 0), dtype=complex)).tolist() == [1, 1]
