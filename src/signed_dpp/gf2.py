"""Linear algebra over the two-element field.

Sign systems (products of +-1 unknowns equal to prescribed +-1 values)
are solved here as XOR systems, with bit 1 for the sign -1.  There is
one solver, ``solve_groups``: rows come in as index arrays, a span
filter drops rows already implied by earlier ones, Gauss-Jordan
elimination of the rest on bit-packed rows (the right-hand side carried
as one more column) reads off the solution, and every row is checked
against it.  Solutions hold their vectors as ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError

# Rows of index arrays are filtered in chunks of this many at a time
# against the span of the basis so far.
SPAN_CHUNK = 4096


def bits_of(mask: int, n_vars: int) -> tuple[int, ...]:
    """Expand a bitset into an explicit 0/1 tuple of length n_vars."""
    return tuple((mask >> i) & 1 for i in range(n_vars))


@dataclass(frozen=True)
class GF2Solution:
    """Particular solution plus a basis of the homogeneous solution space.

    Basis vector t has a lone 1 among the free columns, at free_cols[t];
    its remaining bits sit on pivot columns.
    """

    n_vars: int
    particular: int
    null_basis: tuple[int, ...]
    free_cols: tuple[int, ...]
    rank: int

    @property
    def nullity(self) -> int:
        return len(self.null_basis)

    def members(self):
        """Iterate the full solution coset (2^nullity assignments): member
        c is the particular solution XOR every null_basis[t] with bit t of
        c set."""
        for combo in range(1 << self.nullity):
            vec = self.particular
            for t, v in enumerate(self.null_basis):
                if (combo >> t) & 1:
                    vec ^= v
            yield vec

    def contains(self, assignment: int) -> bool:
        """Coset membership by eliminating assignment - particular."""
        diff = assignment ^ self.particular
        for f, vec in zip(self.free_cols, self.null_basis):
            if (diff >> f) & 1:
                diff ^= vec
        return diff == 0


def _null_space(n_vars: int, cols: np.ndarray, reduced: np.ndarray):
    """Free columns and (n_vars, nullity) null basis of packed reduced
    rows: vector t is free column t plus every pivot whose row has it set."""
    bits = np.unpackbits(reduced, axis=1, count=n_vars, bitorder="little").astype(bool)
    free = np.setdiff1d(np.arange(n_vars), cols)
    null = np.zeros((n_vars, free.size), dtype=bool)
    null[free, np.arange(free.size)] = True
    null[cols] = bits[:, free]
    return free, null


def parities(supports: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """XOR of ``assignment`` over each row of an (m, w) array of distinct
    variable indices.  A 0/1 vector gives (m,) parities; an (n_vars, d)
    matrix gives the (m, d) parities against each of its d columns."""
    out = np.zeros((len(supports),) + assignment.shape[1:], dtype=bool)
    for col in np.asarray(supports).T:
        out ^= assignment[col]
    return out


def _eliminate(work: np.ndarray, n_vars: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan on the first n_vars columns of (m, bytes) uint8 rows,
    in place; column c is bit c & 7 of byte c >> 3, and later columns (a
    right-hand side) ride along.  Returns the pivot rows and columns: the
    pivot rows end in reduced row echelon form, the rest end zero."""
    unused = np.ones(len(work), dtype=bool)
    chosen, cols = [], []
    for col in range(n_vars):
        hit = (work[:, col >> 3] >> (col & 7)) & 1 == 1
        candidates = np.flatnonzero(hit & unused)
        if candidates.size == 0:
            continue
        p = candidates[0]
        unused[p] = hit[p] = False
        work[hit] ^= work[p]
        chosen.append(p)
        cols.append(col)
    return np.array(chosen, dtype=np.intp), np.array(cols, dtype=np.intp)


def _span_basis(groups: list[tuple[np.ndarray, np.ndarray]], n_vars: int):
    """Pivot columns, packed reduced rows (right-hand side at column
    n_vars), free columns and null basis (see ``_null_space``) of a basis
    of the row space of all (supports, rhs) groups, found in chunks.

    A row whose parity against every vector of the current null space is
    0 already lies in the span and is dropped without elimination.  The
    rest wait until there are at least as many as the nullity, and are
    then eliminated together with the reduced rows so far; whatever waits
    at the end is eliminated last.  A row space has one reduced row
    echelon form, so the result does not depend on the chunking.
    """
    free, null = np.arange(n_vars), np.eye(n_vars, dtype=bool)
    cols = np.zeros(0, dtype=np.intp)
    reduced = pending = np.zeros((0, n_vars // 8 + 1), dtype=np.uint8)
    chunks = [(supports[lo:lo + SPAN_CHUNK], bits[lo:lo + SPAN_CHUNK])
              for supports, bits in groups for lo in range(0, len(supports), SPAN_CHUNK)]
    for t, (chunk, bits) in enumerate(chunks):
        fresh = np.flatnonzero(parities(chunk, null).any(axis=1))
        new = np.zeros((fresh.size, n_vars + 1), dtype=bool)
        new[np.arange(fresh.size)[:, None], chunk[fresh]] = True
        new[:, n_vars] = bits[fresh]
        pending = np.concatenate([pending, np.packbits(new, axis=1, bitorder="little")])
        if len(pending) and (len(pending) >= null.shape[1] or t == len(chunks) - 1):
            work = np.concatenate([reduced, pending])
            chosen, cols = _eliminate(work, n_vars)
            reduced, pending = work[chosen], pending[:0]
            free, null = _null_space(n_vars, cols, reduced)
    return cols, reduced, free, null


def _checked(supports, bits, n_vars: int) -> tuple[np.ndarray, np.ndarray]:
    """One group as (m, w) indices and (m,) bools, or DimensionError."""
    supports, bits = np.asarray(supports), np.asarray(bits)
    if supports.ndim != 2 or bits.shape != (len(supports),):
        raise DimensionError(f"expected (m, w) rows with m right-hand sides, got "
                             f"shapes {supports.shape} and {bits.shape}")
    if supports.size and (supports.dtype.kind not in "iu"
                          or not 0 <= supports.min() <= supports.max() < n_vars):
        raise DimensionError(f"variable indices must be integers in 0..{n_vars - 1}")
    if np.any(np.diff(np.sort(supports, axis=1), axis=1) == 0):
        raise DimensionError("a row repeats a variable index")
    if not np.all((bits == 0) | (bits == 1)):
        raise DimensionError("right-hand sides must be 0 or 1")
    return supports.astype(np.intp, copy=False), bits.astype(bool, copy=False)


def solve_groups(groups: Sequence[np.ndarray], rhs: Sequence[np.ndarray],
                 n_vars: int) -> GF2Solution | None:
    """Solve XOR rows given as groups of (m, w) arrays of distinct
    variable indices in 0..n_vars-1, with 0/1 right-hand sides ``rhs``
    (one (m,) array per group); None when some row contradicts the rest.

    The particular solution has every free variable zero.  It and the
    null-space basis are read off the reduced row echelon form, which is
    unique for the row space, so they do not depend on row order.
    """
    if len(groups) != len(rhs):
        raise DimensionError(f"{len(groups)} groups but {len(rhs)} right-hand sides")
    checked = [_checked(s, b, n_vars) for s, b in zip(groups, rhs)]
    cols, reduced, free, null = _span_basis(checked, n_vars)
    x = np.zeros(n_vars, dtype=bool)
    x[cols] = (reduced[:, n_vars >> 3] >> (n_vars & 7)) & 1
    if any(np.any(parities(s, x) != b) for s, b in checked):
        return None
    ints = [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(np.vstack([x, null.T]), axis=1, bitorder="little")]
    return GF2Solution(n_vars=n_vars, particular=ints[0], null_basis=tuple(ints[1:]),
                       free_cols=tuple(free.tolist()), rank=len(cols))
