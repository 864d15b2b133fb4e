"""Linear algebra over the two-element field.

Sign systems (products of +-1 unknowns equal to prescribed +-1 values)
are solved here as XOR systems, with bit 1 for the sign -1, on rows held
as index arrays of distinct variables.  A ``SpanBasis`` holds the
solutions of its rows as one affine form per variable over free
parameters, in packed 64-bit words: rows are eliminated over the
parameters and substituted into every form, and ``solution`` reads the
reduced row echelon form off the forms.  Cycle rows over the pairs of a
vertex set, triangles and 4-cycles alike, are solved on a parity forest
per top vertex (``SpanBasis._of_cycles``): the forms of all vertices are
evaluated together, one dependency level at a time, and the rows off the
forest go through the same step at once; this is the solver's one
entry.  Solutions hold their vectors as ints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .kernel import pair_index

def bits_of(mask: int, n_vars: int) -> tuple[int, ...]:
    """Expand a bitset into an explicit 0/1 tuple of length n_vars: bits
    0..n_vars-1, unpacked from the int's little-endian bytes."""
    raw = (mask & ((1 << n_vars) - 1)).to_bytes(-(-n_vars // 8), "little")
    return tuple(np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n_vars,
                               bitorder="little").tolist())


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


def _pack(bits: np.ndarray) -> np.ndarray:
    """(m, k) bools as (m, ceil(k / 64)) little-endian uint64 words: bit
    c of a row is bit c & 63 of word c >> 6."""
    out = np.zeros((len(bits), -(-bits.shape[1] // 64) * 8), dtype=np.uint8)
    out[:, :-(-bits.shape[1] // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8")


def _column(words: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Bits ``cols`` of packed rows, as an (m, len(cols)) bool array."""
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, cols] == 1


def parities(supports: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """XOR of ``assignment`` over the last axis of an (..., w) array of
    distinct variable indices.  A 0/1 vector gives (...) parities; an
    (n_vars, d) matrix gives the (..., d) parities against each of its d
    columns, and an (n_vars, d) matrix of packed words the (..., d) words
    of the parities against each of their bits."""
    supports = np.asarray(supports)
    out = np.zeros(supports.shape[:-1] + assignment.shape[1:], dtype=assignment.dtype)
    for t in range(supports.shape[-1]):
        out ^= np.take(assignment, supports[..., t], axis=0)
    return out


_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)    # odd, so each step is one-to-one


@functools.lru_cache(maxsize=64)
def _pair_table(n: int) -> np.ndarray:
    """Read-only (n + 1, n + 1) table of the variable of the pair {a, b},
    in either order, and of n_vars, a form kept zero, for b = -1."""
    table = np.full((n + 1, n + 1), n * (n - 1) // 2)
    table[:n, :n] = pair_index(n, *np.sort(np.indices((n, n)), axis=0))
    table.flags.writeable = False
    return table


def _eliminate(work: np.ndarray, n_vars: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan on the first n_vars columns of packed (m, words) rows
    (see ``_pack``), in place; later columns (a right-hand side) ride
    along.  Returns the pivot rows and columns: the pivot rows end in
    reduced row echelon form, the rest end zero.

    Columns are taken in increasing order.  Past a column without a
    pivot the loop jumps to the next column of the same 64-bit word at
    which a row not yet chosen has a bit, read off the OR of that word
    over those rows.
    """
    unused = np.ones(len(work), dtype=bool)
    chosen, cols = [], []
    col = 0
    while col < n_vars:
        hit = (work[:, col >> 6] & _BITS[col & 63]) != 0
        candidates = np.flatnonzero(hit & unused)
        if candidates.size == 0:
            rest = int(np.bitwise_or.reduce(work[unused, col >> 6])) >> (col & 63)
            col = col + (rest & -rest).bit_length() - 1 if rest else (col | 63) + 1
            continue
        p = candidates[0]
        unused[p] = hit[p] = False
        work[hit] ^= work[p]
        chosen.append(p)
        cols.append(col)
        col += 1
    return np.array(chosen, dtype=np.intp), np.array(cols, dtype=np.intp)


class SpanBasis:
    """The solutions of the XOR rows added so far, every variable held as
    an affine form over ``nullity`` free parameters: (n_vars, words + 1)
    packed words (see ``_pack``), bit t for parameter t and the constant
    as bit 0 of the last word.  A fresh basis is the identity.

    Rows are (supports, rhs) groups: (m, w) arrays of distinct variable
    indices in 0..n_vars-1 and (m,) 0/1 right-hand sides.  A row's
    parities against the forms are the row over the parameters, and
    ``_impose`` eliminates such rows, checks those that reduce to a bare
    constant and substitutes each pivot into every form; ``_of_cycles``
    then renumbers the parameters some form still uses.  ``solution``
    reads the reduced row echelon form off the forms.  A row space has one
    reduced row echelon form, so the result does not depend on how rows
    were grouped or on which ones the forest took.
    """

    def __init__(self, n_vars: int):
        self.n_vars, self.nullity, self._consistent = n_vars, n_vars, True
        cols = np.arange(n_vars)
        self._expr = np.zeros((n_vars, -(-n_vars // 64) + 1), dtype=np.uint64)
        self._expr[cols, cols >> 6] = _BITS[cols & 63]

    @classmethod
    def _of_cycles(cls, n: int, cycles, rhs) -> "SpanBasis":
        """The basis of the rows of an (m, 4) array of cycles (p, q, v, r)
        of 0-based vertices, p < q < v and r < v, over the pairs in
        ``kernel.pair_index`` order: the triangle x_pv ^ x_qv ^ x_pq = rhs
        for r = -1, else the 4-cycle x_pv ^ x_qv ^ x_pr ^ x_qr = rhs.

        Each row ties its pairs (p, v) and (q, v) at its top vertex v
        through its earlier pairs, in a parity forest per v: every q with
        such a row hangs off the smallest such p, and a p with none off its
        smallest q, unless that row already hangs q off p.  A pair that
        hangs off nothing is a fresh parameter, and a hung pair's form is
        its parent pair's XOR its earlier pairs' and the right-hand side,
        evaluated one dependency level at a time.  The other rows reduce
        to rows over the parameters, which one ``_impose`` takes."""
        cyc = np.asarray(cycles)
        if cyc.ndim != 2 or cyc.shape[1] != 4:
            raise DimensionError(f"expected (m, 4) cycle rows (p, q, v, r), got shape {cyc.shape}")
        top, bits = _checked(cyc[:, :3], rhs, max(n, 1))
        (p, q, v), r = top.T, cyc[:, 3].astype(np.intp)
        if not np.all((p < q) & (q < v) & (-1 <= r) & (r < v) & (r != p) & (r != q)):
            raise DimensionError("a cycle row (p, q, v, r) needs p < q < v, and r = -1 or r < v not p or q")
        n_vars, m = n * (n - 1) // 2, len(cyc)
        if not m:
            return cls(n_vars)
        bits = bits.astype(np.uint64)
        # the earlier pairs: (p, q) and none, or (p, r) and (q, r)
        pair = _pair_table(n)
        at_p, at_q = pair[p, v], pair[q, v]
        earlier, second = pair[p, np.where(r < 0, q, r)], pair[q, r]
        # the rows with the smallest p at each (q, v) and the smallest q at each (p, v)
        below, above = np.full(n_vars, n * m), np.full(n_vars, n * m)
        np.minimum.at(below, at_q, p * m + np.arange(m))
        np.minimum.at(above, at_p, q * m + np.arange(m))
        row = np.where(below < n * m, below % m, -1)   # the row a pair hangs off, or -1
        up = np.flatnonzero((row < 0) & (above < n * m))
        first = above[up] % m
        keep = p[row[at_q[first]]] != p[first]
        row[up[keep]] = first[keep]
        roots = np.flatnonzero(row < 0)
        expr = np.zeros((n_vars + 1, -(-len(roots) // 64) + 1), dtype=np.uint64)
        expr[roots, np.arange(len(roots)) >> 6] = _BITS[np.arange(len(roots)) & 63]
        # the forms, one dependency level at a time: a pair whose parent
        # pair and earlier pairs have their forms takes theirs
        hung = np.flatnonzero(row >= 0)
        tree = row[hung]
        parent = np.where(at_p[tree] == hung, at_q[tree], at_p[tree])
        done = np.append(row < 0, True)
        while len(hung):
            ready = done[parent] & done[earlier[tree]] & done[second[tree]]
            pairs, via = hung[ready], tree[ready]
            expr[pairs] = (np.take(expr, parent[ready], axis=0) ^ np.take(expr, earlier[via], axis=0)
                           ^ np.take(expr, second[via], axis=0))
            expr[pairs, -1] ^= bits[via]
            done[pairs] = True
            hung, tree, parent = hung[~ready], tree[~ready], parent[~ready]
        rest = np.ones(m, dtype=bool)
        rest[row[row >= 0]] = False
        basis = cls(0)
        basis.n_vars, basis.nullity, basis._expr = n_vars, len(roots), expr
        basis._impose(basis._rows(np.column_stack([at_p, at_q, earlier, second])[rest], bits[rest]))
        params = _column(basis._expr[:n_vars, :-1], np.arange(64 * (basis._expr.shape[1] - 1)))
        params = params[:, params.any(axis=0)]       # renumber the parameters still used
        basis._expr = np.concatenate([_pack(params), basis._expr[:n_vars, -1:]], axis=1)
        basis.nullity = params.shape[1]
        return basis

    def _impose(self, work: np.ndarray) -> None:
        """Impose nonzero packed rows over the parameters, their right-hand
        sides as bit 0 of the last word: eliminate them, check that none
        reduces to the bare constant 1, and substitute each pivot into
        every form."""
        if not len(work):
            return
        chosen, pivots = _eliminate(work, 64 * (self._expr.shape[1] - 1))
        self._consistent &= not np.delete(work, chosen, axis=0)[:, -1].any()
        for q, row in zip(pivots, work[chosen]):
            self._expr[(self._expr[:, q >> 6] & _BITS[q & 63]) != 0] ^= row

    def _rows(self, supports: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """One checked group's rows over the parameters (see ``_checked``),
        each distinct nonzero row once, in the order of its first copy.  A
        repeated row adds nothing: the rows are sorted by a 64-bit mix of
        their words (its high bits, then the row number, in one word), and
        a row equal to the one before it is dropped.  Distinct rows whose
        mixes share those high bits can leave a repeat, which ``_impose``
        reduces to zero."""
        work = parities(supports, self._expr)
        work[:, -1] ^= bits
        mix = np.zeros(len(work), dtype=np.uint64)
        for word in work.T:
            mix = (mix ^ word) * _MIX
            mix ^= mix >> np.uint64(29)
        low = np.uint64((1 << len(work).bit_length()) - 1)
        order = (np.sort(mix & ~low | np.arange(len(work), dtype=np.uint64)) & low).astype(np.intp)
        repeat = np.arange(len(work)) > 0
        for word in work.T:
            word = word[order]
            repeat[1:] &= word[1:] == word[:-1]
        work = work[np.sort(order[~repeat])]
        return work[work.any(axis=1)]               # a zero row is a check that holds

    def solution(self) -> GF2Solution | None:
        """The solution of every row added, or None when some row
        contradicts the rest.

        The particular solution has every free variable zero.  It and
        the null-space basis are those of the reduced row echelon form,
        which is unique for the row space, so they do not depend on row
        order.
        """
        if not self._consistent:
            return None
        params = _column(self._expr[:, :-1], np.arange(64 * (self._expr.shape[1] - 1)))
        free, null, x = _reduced(params, self._expr[:, -1] == 1)
        ints = [int.from_bytes(row.tobytes(), "little") for row in _pack(np.vstack([x, null.T]))]
        return GF2Solution(n_vars=self.n_vars, particular=ints[0], null_basis=tuple(ints[1:]),
                           free_cols=tuple(free.tolist()), rank=self.n_vars - len(free))


def _reduced(null: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Free columns, null bits and particular solution of the reduced row
    echelon form whose solutions are x plus the span of the columns of the
    (n_vars, d) bools ``null``.  The free columns are the highest bits of
    the null vectors eliminated over the columns in decreasing order; a
    vector of one bit is already reduced, and its bit is cleared from the
    others."""
    n_vars = len(null)
    lone = null.sum(axis=0) == 1
    cols = np.nonzero(null[:, lone].T)[1]
    rest = null[:, ~lone]
    rest[cols] = False
    packed = _pack(rest.T[:, ::-1])
    chosen, pivots = _eliminate(packed, n_vars)
    free = np.concatenate([cols, n_vars - 1 - pivots])
    null = np.concatenate([np.arange(n_vars)[:, None] == cols,
                           _column(packed[chosen], np.arange(n_vars)[::-1]).T], axis=1)
    order = np.argsort(free)
    return free[order], null[:, order], x ^ np.logical_xor.reduce(null[:, x[free]], axis=1)


def _checked(supports, bits, n_vars: int) -> tuple[np.ndarray, np.ndarray]:
    """One group as (m, w) indices and (m,) bools, or DimensionError."""
    supports, bits = np.asarray(supports), np.asarray(bits)
    if supports.ndim != 2 or bits.shape != (len(supports),):
        raise DimensionError(f"expected (m, w) rows with m right-hand sides, got "
                             f"shapes {supports.shape} and {bits.shape}")
    if supports.size and (supports.dtype.kind not in "iu"
                          or not 0 <= supports.min() <= supports.max() < n_vars):
        raise DimensionError(f"variable indices must be integers in 0..{n_vars - 1}")
    if (not np.all(supports[:, :-1] < supports[:, 1:])        # increasing rows repeat none
            and np.any(np.diff(np.sort(supports, axis=1), axis=1) == 0)):
        raise DimensionError("a row repeats a variable index")
    if not np.all((bits == 0) | (bits == 1)):
        raise DimensionError("right-hand sides must be 0 or 1")
    return supports.astype(np.intp, copy=False), bits.astype(bool, copy=False)

