"""Linear algebra over the two-element field.

Sign systems (products of +-1 unknowns equal to prescribed +-1 values)
become linear systems here through the sign/bit dictionary +1 <-> 0,
-1 <-> 1, under which sign products turn into XOR sums.  There is one
elimination, on bit-packed rows that carry the right-hand side as one
more column; ``solve_groups`` (rows as index arrays, span-filtered) and
``gf2_solve`` (rows as Python ints, bit i = variable i) read the
solution off its reduced rows.  Solutions hold their vectors as ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError

# Rows of index arrays are eliminated in chunks of this many at a time,
# each chunk first filtered against the span of the basis so far.
SPAN_CHUNK = 4096


def sign_to_bit(s: int) -> int:
    if s == 1:
        return 0
    if s == -1:
        return 1
    raise DimensionError(f"expected a sign in {{-1, +1}}, got {s}")


def bit_to_sign(b: int) -> int:
    if b == 0:
        return 1
    if b == 1:
        return -1
    raise DimensionError(f"expected a bit in {{0, 1}}, got {b}")


def bits_of(mask: int, n_vars: int) -> tuple[int, ...]:
    """Expand a bitset into an explicit 0/1 tuple of length n_vars."""
    return tuple((mask >> i) & 1 for i in range(n_vars))


def coset(base: int, basis: Sequence[int]):
    """Iterate base XOR every combination of basis vectors; member c
    includes basis[t] exactly when bit t of c is set."""
    for combo in range(1 << len(basis)):
        vec = base
        for t, v in enumerate(basis):
            if (combo >> t) & 1:
                vec ^= v
        yield vec


@dataclass
class GF2System:
    """XOR-sum constraints: for each row, XOR of the support bits = rhs."""

    n_vars: int
    rows: list[tuple[int, int]] = field(default_factory=list)

    def add_row(self, support: Iterable[int], rhs: int) -> None:
        """Add the constraint xor(x_i for i in support) = rhs (0-based vars)."""
        if rhs not in (0, 1):
            raise DimensionError(f"rhs must be 0 or 1, got {rhs}")
        mask = 0
        for i in support:
            if not 0 <= int(i) < self.n_vars:
                raise DimensionError(f"variable {i} out of range 0..{self.n_vars - 1}")
            mask ^= 1 << int(i)
        self.rows.append((mask, rhs))

    def satisfied_by(self, assignment: int) -> bool:
        """Check an assignment bitset against every row."""
        return all(bin(mask & assignment).count("1") % 2 == rhs
                   for mask, rhs in self.rows)


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
        """Iterate the full solution coset (2^nullity assignments)."""
        return coset(self.particular, self.null_basis)

    def contains(self, assignment: int) -> bool:
        """Coset membership by eliminating assignment - particular."""
        diff = assignment ^ self.particular
        for f, vec in zip(self.free_cols, self.null_basis):
            if (diff >> f) & 1:
                diff ^= vec
        return diff == 0


def gf2_solve(system: GF2System) -> GF2Solution | None:
    """Reduced row echelon solve; None when a row without a pivot keeps
    a right-hand side (the system is inconsistent).  The form is unique
    for the row space, so the particular solution (free variables zero)
    and the basis are canonical."""
    m = system.n_vars
    width = m // 8 + 1
    data = b"".join(((mask & ((1 << m) - 1)) | (rhs & 1) << m).to_bytes(width, "little")
                    for mask, rhs in system.rows)
    work = np.frombuffer(data, dtype=np.uint8).reshape(len(system.rows), width).copy()
    chosen, cols = _eliminate(work, m)
    rest = np.delete(work[:, m >> 3], chosen)
    if np.any((rest >> (m & 7)) & 1):
        return None
    return _solution(m, cols, work[chosen])


def _null_space(n_vars: int, cols: np.ndarray, reduced: np.ndarray):
    """Free columns and (n_vars, nullity) null basis of packed reduced
    rows: vector t is free column t plus every pivot whose row has it set."""
    bits = np.unpackbits(reduced, axis=1, count=n_vars, bitorder="little").astype(bool)
    free = np.setdiff1d(np.arange(n_vars), cols)
    null = np.zeros((n_vars, free.size), dtype=bool)
    null[free, np.arange(free.size)] = True
    null[cols] = bits[:, free]
    return free, null


def _solution(n_vars: int, cols: np.ndarray, reduced: np.ndarray) -> GF2Solution:
    """Solution of packed reduced pivot rows whose right-hand side is
    column n_vars: each pivot variable takes its row's right-hand side."""
    free, null = _null_space(n_vars, cols, reduced)
    vectors = np.zeros((1 + free.size, n_vars), dtype=bool)   # particular, then the basis
    vectors[0, cols] = (reduced[:, n_vars >> 3] >> (n_vars & 7)) & 1
    vectors[1:] = null.T
    ints = [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(vectors, axis=1, bitorder="little")]
    return GF2Solution(n_vars=n_vars, particular=ints[0], null_basis=tuple(ints[1:]),
                       free_cols=tuple(free.tolist()), rank=len(cols))


# ---------------------------------------------------------------------------
# rows as index arrays: span filtering and parity checks

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


def _span_basis(groups: Sequence[np.ndarray], rhs: Sequence[np.ndarray], n_vars: int):
    """Basis of the row space of all groups, found in order, in chunks.

    Each group is an (m, w) array of distinct variable indices, one XOR
    row per line, with right-hand sides ``rhs``.  A row whose parity
    against every vector of the current null space is 0 already lies in
    the span and is dropped without elimination; the rest are eliminated
    together with the basis so far.  Returns the (group, row) of each
    basis row, the pivot columns and the packed reduced rows.
    """
    basis = np.zeros((0, n_vars + 1), dtype=bool)   # original rows, rhs last
    owner = np.zeros((0, 2), dtype=np.intp)          # (group, row) of each basis row
    null = np.eye(n_vars, dtype=bool)                # column s is null vector s
    cols = np.zeros(0, dtype=np.intp)
    reduced = np.zeros((0, n_vars // 8 + 1), dtype=np.uint8)
    for g, (supports, bits) in enumerate(zip(groups, rhs)):
        for lo in range(0, len(supports), SPAN_CHUNK):
            chunk = np.asarray(supports[lo:lo + SPAN_CHUNK], dtype=np.intp)
            fresh = np.flatnonzero(parities(chunk, null).any(axis=1))
            if fresh.size == 0:
                continue
            new = np.zeros((fresh.size, n_vars + 1), dtype=bool)
            for col in chunk[fresh].T:
                new[np.arange(fresh.size), col] = True
            new[:, n_vars] = np.asarray(bits[lo:lo + SPAN_CHUNK], dtype=bool)[fresh]
            rows = np.concatenate([basis, new])
            owner = np.concatenate([owner, np.stack([np.full(fresh.size, g), lo + fresh], axis=1)])
            work = np.packbits(rows, axis=1, bitorder="little")
            chosen, cols = _eliminate(work, n_vars)
            basis, owner, reduced = rows[chosen], owner[chosen], work[chosen]
            _, null = _null_space(n_vars, cols, reduced)
    return owner, cols, reduced


def spanning_rows(groups: Sequence[np.ndarray], n_vars: int) -> list[np.ndarray]:
    """Indices, per group, of rows that together form a basis of the row
    space of all groups (see ``_span_basis``)."""
    owner, _, _ = _span_basis(groups, [np.zeros(len(g), dtype=bool) for g in groups], n_vars)
    return [np.sort(owner[owner[:, 0] == g, 1]) for g in range(len(groups))]


def solve_groups(groups: Sequence[np.ndarray], rhs: Sequence[np.ndarray],
                 n_vars: int) -> GF2Solution:
    """Solution of the rows ``spanning_rows`` keeps, with right-hand sides
    ``rhs`` (a bool array per group) carried through the same elimination.
    Dropped rows are not checked: check every row with ``parities``."""
    _, cols, reduced = _span_basis(groups, rhs, n_vars)
    return _solution(n_vars, cols, reduced)
