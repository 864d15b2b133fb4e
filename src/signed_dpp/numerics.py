"""Dense linear algebra shared by every other module.

Determinants up to order 4 are closed forms (``closed_det``); larger
ones and solves are LU with partial pivoting, delegated to LAPACK
(``getrf``) through numpy and scipy, imported on the first solve.  This
module adds the package's input validation and the scale-invariant
singularity threshold.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DimensionError, SingularMatrixError

# A pivot counts as zero when it is this small relative to the largest
# row norm of the input.  Conservative at desk sizes (N <= 20).
PIVOT_RTOL = 1e-12
# Matrices per batched_det or closed_det call where a caller chunks its work;
# at 1 << 14 the exact round trip at N = 32 took 1.4x as long (larger temporaries).
DET_CHUNK = 1 << 12


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Validate and return ``a`` as a float64 2-d array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise DimensionError("matrix entries must be finite (no NaN/Inf)")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def batched_det(stack: np.ndarray) -> np.ndarray:
    """Determinants of a (k, n, n) real or complex stack, in one
    np.linalg.det call; callers pass at most DET_CHUNK matrices at once."""
    stack = np.asarray(stack)
    stack = stack.astype(np.result_type(stack.dtype, float), copy=False)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionError(f"expected a (k, n, n) stack, got shape {stack.shape}")
    return np.linalg.det(stack)   # 0 x 0 matrices have determinant 1


def closed_det(e: np.ndarray) -> np.ndarray:
    """Determinants of m matrices of order t <= 4 from their (t, t, m)
    entries: ones, the entry, ad - bc, the cofactor expansion along the
    first row, and the Laplace expansion along the first two rows (six
    products of complementary 2 x 2 minors)."""
    def minor(r, s, p, q):   # rows r, s and columns p, q
        return e[r, p] * e[s, q] - e[r, q] * e[s, p]

    t = len(e)
    if t < 2:
        return np.ones(e.shape[2]) if t == 0 else e[0, 0]
    if t == 2:
        return minor(0, 1, 0, 1)
    if t == 3:
        return (e[0, 0] * minor(1, 2, 1, 2) - e[0, 1] * minor(1, 2, 0, 2)
                + e[0, 2] * minor(1, 2, 0, 1))
    return (minor(0, 1, 0, 1) * minor(2, 3, 2, 3) - minor(0, 1, 0, 2) * minor(2, 3, 1, 3)
            + minor(0, 1, 0, 3) * minor(2, 3, 1, 2) + minor(0, 1, 1, 2) * minor(2, 3, 0, 3)
            - minor(0, 1, 1, 3) * minor(2, 3, 0, 2) + minor(0, 1, 2, 3) * minor(2, 3, 0, 1))


def solve_linear(a, b) -> np.ndarray:
    """Solve a x = b, raising SingularMatrixError on a sub-threshold pivot."""
    m = as_matrix(a, square=True)
    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != m.shape[0]:
        raise DimensionError(
            f"right-hand side has {rhs.shape[0]} rows, matrix has {m.shape[0]}")
    if m.shape[0] == 0:
        return rhs.copy()
    import scipy.linalg
    scale = np.max(np.sum(np.abs(m), axis=1))
    with warnings.catch_warnings():
        # lu_factor warns on exact zero pivots; the explicit threshold
        # check below turns those into errors.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m)
    pivots = np.abs(np.diag(lu))
    if np.min(pivots) <= PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"pivot {np.min(pivots):.3e} below threshold {PIVOT_RTOL * scale:.3e}")
    return scipy.linalg.lu_solve((lu, piv), rhs)
