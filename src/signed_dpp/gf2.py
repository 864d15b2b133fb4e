"""Linear algebra over the two-element field, on int bitsets.

Sign systems (products of +-1 unknowns equal to prescribed +-1 values)
become linear systems here through the sign/bit dictionary +1 <-> 0,
-1 <-> 1, under which sign products turn into XOR sums.  Rows are stored
as arbitrary-width Python ints, bit i = variable i.
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
    """Reduced row echelon solve; None when the system is inconsistent.

    Each row is reduced against the rows kept so far, which are keyed by
    their lowest set bit; a row that reduces to zero is redundant and
    only its right-hand side is checked.  Back-substitution from the
    highest pivot down then gives the reduced row echelon form, which is
    unique for the row space: the particular solution (free variables
    zero) and the basis are canonical.  Basis vectors are emitted in
    free-column order, each with a single 1 among the free columns.
    """
    m = system.n_vars
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in system.rows:
        mask &= (1 << m) - 1
        while mask:
            col = (mask & -mask).bit_length() - 1
            if col not in pivots:
                pivots[col] = (mask, rhs)
                break
            pivot_mask, pivot_rhs = pivots[col]
            mask ^= pivot_mask
            rhs ^= pivot_rhs
        else:
            if rhs:
                return None
    pivot_bits = sum(1 << col for col in pivots)
    for col in sorted(pivots, reverse=True):
        mask, rhs = pivots[col]
        above = mask & pivot_bits & ~(1 << col)
        while above:
            low = above & -above
            other_mask, other_rhs = pivots[low.bit_length() - 1]
            mask ^= other_mask
            rhs ^= other_rhs
            above ^= low
        pivots[col] = (mask, rhs)

    particular = 0
    for col, (_, rhs) in pivots.items():
        if rhs:
            particular |= 1 << col

    free_cols = [c for c in range(m) if c not in pivots]
    basis = []
    for f in free_cols:
        vec = 1 << f
        for col, (mask, _) in pivots.items():
            if (mask >> f) & 1:
                vec ^= 1 << col
        basis.append(vec)
    return GF2Solution(n_vars=m, particular=particular,
                       null_basis=tuple(basis), free_cols=tuple(free_cols),
                       rank=len(pivots))


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


def _eliminate(rows: np.ndarray):
    """Column-by-column reduction of (m, n_vars) bool rows, bit-packed.

    Returns the indices of the rows chosen as pivots (a basis of the row
    space), their pivot columns, and the reduced pivot rows (the RREF).
    """
    n_vars = rows.shape[1]
    work = np.packbits(rows, axis=1, bitorder="little")
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
    reduced = np.unpackbits(work[chosen], axis=1, count=n_vars, bitorder="little")
    return np.array(chosen, dtype=np.intp), np.array(cols, dtype=np.intp), reduced.astype(bool)


def spanning_rows(groups: Sequence[np.ndarray], n_vars: int) -> list[np.ndarray]:
    """Indices, per group, of rows that together form a basis of the row
    space of all groups.

    Each group is an (m, w) array of distinct variable indices, one XOR
    row per line.  Rows are taken in order, in chunks: a row whose parity
    against every vector of the current null space is 0 already lies in
    the span and is dropped without elimination; the rest are eliminated
    together with the basis so far.
    """
    basis = np.zeros((0, n_vars), dtype=bool)
    owner = np.zeros((0, 2), dtype=np.intp)  # (group, row) of each basis row
    null = np.eye(n_vars, dtype=bool)        # column s is null vector s
    for g, supports in enumerate(groups):
        for lo in range(0, len(supports), SPAN_CHUNK):
            chunk = np.asarray(supports[lo:lo + SPAN_CHUNK], dtype=np.intp)
            fresh = np.flatnonzero(parities(chunk, null).any(axis=1))
            if fresh.size == 0:
                continue
            new = np.zeros((fresh.size, n_vars), dtype=bool)
            for col in chunk[fresh].T:
                new[np.arange(fresh.size), col] = True
            rows = np.concatenate([basis, new])
            owner = np.concatenate([owner, np.stack([np.full(fresh.size, g), lo + fresh], axis=1)])
            chosen, cols, reduced = _eliminate(rows)
            basis, owner = rows[chosen], owner[chosen]
            free = np.setdiff1d(np.arange(n_vars), cols)
            null = np.zeros((n_vars, free.size), dtype=bool)
            null[free, np.arange(free.size)] = True
            null[cols] = reduced[:, free]
    return [np.sort(owner[owner[:, 0] == g, 1]) for g in range(len(groups))]
