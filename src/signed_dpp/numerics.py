"""Dense linear algebra shared by every other module.

Determinants up to order 4 are closed forms (``closed_det``); order 4
borders the adjugate of its leading 3 x 3 block (``bordered_det``), which
a caller holding that adjugate pays twelve products for.  Larger ones and
solves are LU with partial pivoting, delegated to LAPACK (``getrf``)
through numpy and scipy, imported on the first solve.  This module adds
the package's input validation and the scale-invariant singularity
threshold.
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


# Entry (i, j) of a 3 x 3 adjugate is the cofactor of entry (j, i): the 2 x 2
# minor e_rp e_sq - e_rq e_sp on the rows r < s other than j and the columns
# p < q other than i, negated where i + j is odd.
_OTHER = ((1, 2), (0, 2), (0, 1))
_ADJUGATE = [[_OTHER[j] + _OTHER[i] + ((i + j) % 2,) for j in range(3)] for i in range(3)]


def adjugate(e: np.ndarray, j: int | None = None) -> np.ndarray:
    """The adjugates of m 3 x 3 matrices from their (3, 3, m) entries (or
    the leading 3 x 3 blocks of larger ones), as (3, 3, m); only column j,
    as (3, m), when j is given."""
    cells = [row[j] for row in _ADJUGATE] if j is not None else sum(_ADJUGATE, [])
    out, tmp = np.empty((len(cells),) + e.shape[2:]), np.empty(e.shape[2:])
    for cell, (r, s, p, q, odd) in zip(out, cells):
        np.multiply(e[r, p], e[s, q], out=cell)
        cell -= np.multiply(e[r, q], e[s, p], out=tmp)
        if odd:
            np.negative(cell, out=cell)
    return out if j is not None else out.reshape((3, 3) + out.shape[1:])


def cofactor_det(e: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Determinants of the leading 3 x 3 blocks of (t, t, m) entries from
    the first column of their adjugates, (3, m): the expansion along the
    first row."""
    return e[0, 0] * first[0] + e[0, 1] * first[1] + e[0, 2] * first[2]


def bordered_det(det3: np.ndarray, adj: np.ndarray, u: np.ndarray, v: np.ndarray,
                 corner) -> np.ndarray:
    """det [[A, u], [v, corner]] = corner det A - v adj(A) u for m 3 x 3
    matrices A, from det A, the (3, 3, m) adjugates and the (3, m) borders:
    twelve products, each sum taken left to right."""
    w = adj[:, 0] * u[0]
    w += adj[:, 1] * u[1]
    w += adj[:, 2] * u[2]
    w *= v
    return corner * det3 - (w[0] + w[1] + w[2])


def closed_det(e: np.ndarray) -> np.ndarray:
    """Determinants of m matrices of order t <= 4 from their (t, t, m)
    entries: ones, the entry, ad - bc, the cofactor expansion along the
    first row, and the leading 3 x 3 block bordered by the last row and
    column (``bordered_det``)."""
    t = len(e)
    if t < 2:
        return np.ones(e.shape[2]) if t == 0 else e[0, 0]
    if t == 2:
        return e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
    if t == 3:
        return cofactor_det(e, adjugate(e, 0))
    adj = adjugate(e)
    return bordered_det(cofactor_det(e, adj[:, 0]), adj, e[:3, 3], e[3, :3], e[3, 3])


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
