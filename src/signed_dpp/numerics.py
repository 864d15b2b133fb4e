"""Dense real linear algebra shared by every other module.

Determinants and solves are LU-with-partial-pivoting, delegated to
LAPACK (``getrf``) through numpy/scipy; this module adds the package's
input validation, the scale-invariant singularity threshold, and the
0x0-determinant convention.  Polynomials are plain coefficient arrays,
``coeffs[k]`` multiplying ``x**k``.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import DimensionError, SingularMatrixError

# A pivot counts as zero when it is this small relative to the largest
# row norm of the input.  Conservative at desk sizes (N <= 20).
PIVOT_RTOL = 1e-12


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


def det(a) -> float:
    """Determinant by LU with partial pivoting; the 0x0 matrix has det 1."""
    m = as_matrix(a, square=True)
    if m.shape[0] == 0:
        return 1.0
    return float(np.linalg.det(m))


def batched_det(stack: np.ndarray) -> np.ndarray:
    """Determinants of a (k, n, n) stack, in chunks of 2^14 to bound peak memory."""
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionError(f"expected a (k, n, n) stack, got shape {stack.shape}")
    if stack.shape[1] == 0:
        return np.ones(stack.shape[0])
    out, chunk = np.empty(stack.shape[0]), 1 << 14
    for lo in range(0, stack.shape[0], chunk):
        out[lo:lo + chunk] = np.linalg.det(stack[lo:lo + chunk])
    return out


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


def interpolate(points: Sequence[tuple[float, float]]) -> np.ndarray:
    """Coefficients of the unique polynomial through the given points.

    Newton's divided differences, expanded to the monomial basis.  The
    abscissae must be pairwise distinct; n points give degree <= n-1.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise DimensionError("points must be a nonempty sequence of (x, y) pairs")
    xs, ys = pts[:, 0], pts[:, 1]
    if not np.all(np.isfinite(pts)):
        raise ValueError("interpolation points must be finite")
    n = len(xs)
    if len(np.unique(xs)) != n:
        raise ValueError("duplicate abscissae in interpolation points")

    # Divided-difference table, column by column in place.
    dd = ys.copy()
    for k in range(1, n):
        dd[k:] = (dd[k:] - dd[k - 1:-1]) / (xs[k:] - xs[:-k])

    # Horner expansion of the Newton form into monomial coefficients.
    coeffs = np.zeros(n)
    coeffs[0] = dd[n - 1]
    deg = 0
    for i in range(n - 2, -1, -1):
        coeffs[1:deg + 2] = coeffs[:deg + 1].copy()
        coeffs[0] = 0.0
        coeffs[:deg + 1] -= xs[i] * coeffs[1:deg + 2]
        coeffs[0] += dd[i]
        deg += 1
    return coeffs
