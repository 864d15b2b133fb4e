import itertools
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from helpers import lex_combinations
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


def _expansion(a):
    """det(a) as an exact rational, and the sum of the absolute values of
    the terms of its permutation expansion (the scale of its rounding)."""
    n, det, scale = len(a), Fraction(0), 0.0
    for p in itertools.permutations(range(n)):
        inversions = sum(p[x] > p[y] for x, y in itertools.combinations(range(n), 2))
        term = Fraction((-1) ** inversions)
        for r in range(n):
            term *= Fraction(float(a[r, p[r]]))
        det, scale = det + term, scale + abs(float(term))
    return det, scale


def _closed_form_cases():
    gen = np.random.default_rng(73)
    hilbert = 1.0 / (np.arange(1, 9)[:, None] + np.arange(8))
    repeated = gen.normal(size=(8, 8))
    repeated[5] = repeated[1]                   # minors holding items 2 and 6 are 0
    negative = gen.normal(size=(8, 8))
    negative[np.arange(8), np.arange(8)] = -np.abs(negative.diagonal()) - 1.0
    return [gen.normal(size=(8, 8)), gen.uniform(-1e3, 1e3, (8, 8)), hilbert, repeated,
            negative, np.asarray(kernel.generate_admissible(8, 0.3, 5).mat)]


def test_closed_form_minors_are_within_a_few_ulps_of_exact_determinants():
    # LAPACK's own error reaches 13 ulps of the scale on the wide uniform case
    eps = np.finfo(float).eps
    for mat in _closed_form_cases():
        for t in range(5):
            subsets = lex_combinations(8, t) + 1
            got = kernel.principal_minors(mat, subsets)
            for j, value in zip(subsets, got):
                sub = mat[np.ix_(j - 1, j - 1)]
                exact, scale = _expansion(sub)
                assert abs(Fraction(float(value)) - exact) <= 4 * eps * scale, (t, j)
                assert abs(value - (np.linalg.det(sub) if t else 1.0)) <= 16 * eps * scale, (t, j)


def test_closed_form_minors_edge_cases():
    mat = _closed_form_cases()[3]
    pairs = lex_combinations(8, 4) + 1
    both = pairs[np.isin(pairs, 2).any(axis=1) & np.isin(pairs, 6).any(axis=1)]
    assert np.abs(kernel.principal_minors(mat, both)).max() <= 1e-12
    # order 1 is the diagonal itself, bit for bit, and order 0 is all ones
    single = kernel.principal_minors(mat, np.arange(1, 9)[:, None])
    assert single.tobytes() == mat.diagonal().copy().tobytes()
    assert kernel.principal_minors(mat, np.zeros((3, 0), dtype=int)).tolist() == [1.0] * 3
    assert kernel.principal_minors(mat, np.zeros((0, 4), dtype=int)).shape == (0,)


def _first_row_expansion(mat, subsets):
    """Order-3 minors as the cofactor expansion along the first row, each
    2 x 2 minor written ad - bc: the formula order 3 has always taken."""
    c = (np.asarray(subsets, dtype=np.intp) - 1).T
    e = mat[c[:, None], c]

    def minor(r, s, p, q):
        return e[r, p] * e[s, q] - e[r, q] * e[s, p]

    return e[0, 0] * minor(1, 2, 1, 2) - e[0, 1] * minor(1, 2, 0, 2) + e[0, 2] * minor(1, 2, 0, 1)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 24, 40])
def test_whole_order_minors_equal_the_minors_row_by_row(n, monkeypatch):
    # from N = 17 on, the 4-sets of the top items past the first 16 are bordered one item at a time
    gen = np.random.default_rng(n)
    mats = [kernel.generate_admissible(n, 0.3, n).mat, gen.normal(size=(n, n))]
    mats += _closed_form_cases() if n == 8 else []
    for mat in mats:
        whole = dict(zip((3, 4), kernel.colex_minors(mat)))
        for t, values in whole.items():
            table = kernel.colex_table(n, t)
            assert values.tobytes() == kernel.principal_minors(mat, table).tobytes(), t
            rows = gen.permutation(len(table))[:len(table) // 3 + 1]     # shuffled and partial
            assert kernel.principal_minors(mat, table[rows]).tobytes() == values[rows].tobytes(), t
        assert whole[3].tobytes() == _first_row_expansion(mat, kernel.colex_table(n, 3)).tobytes()
        monkeypatch.setattr(numerics, "DET_CHUNK", 7)
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(kernel.colex_minors(mat), whole.values()))
        monkeypatch.undo()


def test_minors_above_order_four_stay_lapack_determinants():
    mat = _closed_form_cases()[0]
    for t in (5, 6, 8):
        subsets = lex_combinations(8, t) + 1
        want = numerics.batched_det(mat[(subsets - 1)[:, :, None], (subsets - 1)[:, None, :]])
        assert kernel.principal_minors(mat, subsets).tobytes() == want.tobytes()


def _scipy_loaded_after(code):
    out = subprocess.run([sys.executable, "-c", f"import sys, signed_dpp as sd; {code}; "
                          "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return out.stdout.strip()


def test_importing_the_package_leaves_scipy_unloaded():
    assert _scipy_loaded_after("pass") == "False"


def test_solving_pma_leaves_scipy_unloaded():
    # the solve picks its joins with numpy alone: loading scipy would add
    # its import time to the first solve
    assert _scipy_loaded_after("sd.solve_pma(sd.exact_minors(sd.generate_admissible(8, 0.3, 1), 4))") \
        == "False"
