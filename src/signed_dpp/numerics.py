"""Dense linear algebra shared by every other module.

Determinants and solves are LU-with-partial-pivoting, delegated to
LAPACK (``getrf``) through numpy/scipy; this module adds the package's
input validation, the scale-invariant singularity threshold, and the
0x0-determinant convention.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import DimensionError, SingularMatrixError

# A pivot counts as zero when it is this small relative to the largest
# row norm of the input.  Conservative at desk sizes (N <= 20).
PIVOT_RTOL = 1e-12
DET_CHUNK = 1 << 14   # matrices per batched_det call, where a caller chunks its stack


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
    if stack.shape[1] == 0:
        return np.ones(stack.shape[0], dtype=stack.dtype)
    return np.linalg.det(stack)


def solve_linear(a, b) -> np.ndarray:
    """Solve a x = b, raising SingularMatrixError on a sub-threshold pivot."""
    m = as_matrix(a, square=True)
    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != m.shape[0]:
        raise DimensionError(
            f"right-hand side has {rhs.shape[0]} rows, matrix has {m.shape[0]}")
    if m.shape[0] == 0:
        return rhs.copy()
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
