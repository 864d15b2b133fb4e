"""Linear algebra over the two-element field.

Sign systems (products of +-1 unknowns equal to prescribed +-1 values)
are solved here as XOR systems, with bit 1 for the sign -1.  A
``SpanBasis`` holds the solutions as one affine form per variable over
free parameters.  Its one entry, ``SpanBasis._of_cycles``, solves
triangle and 4-cycle rows on a parity forest per top vertex, one
dependency level at a time, on rows of 64-bit words per variable; it
then transposes the forms once into one int per parameter and imposes
the rows off the forest on those ints, and ``solution`` reduces them to
the reduced row echelon form.
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


@functools.lru_cache(maxsize=64)
def _pair_table(n: int) -> np.ndarray:
    """Read-only (n + 1, n + 1) table of the variable of the pair {a, b},
    in either order, and of n_vars, a form kept zero, for b = -1."""
    table = np.full((n + 1, n + 1), n * (n - 1) // 2)
    table[:n, :n] = pair_index(n, *np.sort(np.indices((n, n)), axis=0))
    table.flags.writeable = False
    return table


_HALVES = [(j, np.bitwise_or.reduce(_BITS[np.arange(64) & j == 0])) for j in (32, 16, 8, 4, 2, 1)]


def _columns(words: np.ndarray) -> np.ndarray:
    """The bit columns of packed (m, words) rows, as (64 * words,
    ceil(m / 64)) packed rows: each 64 x 64 block of bits is transposed
    by swapping its off-diagonal halves, then quarters, down to bits."""
    width, rows = words.shape[1], -(-len(words) // 64)
    blocks = np.zeros((width, 64 * rows), dtype=np.uint64)
    blocks[:, :len(words)] = words.T
    for j, mask in _HALVES:
        low, high = blocks.reshape(-1, 2, j).transpose(1, 0, 2)
        swap = ((low >> j) ^ high) & mask
        low ^= swap << j
        high ^= swap
    return blocks.reshape(width, rows, 64).transpose(0, 2, 1).reshape(64 * width, rows)


def _ints(words: np.ndarray) -> list[int]:
    """Each row of (m, words) little-endian words as one int."""
    rows = np.ascontiguousarray(words).view(f"V{8 * words.shape[1]}").ravel().tolist()
    return [int.from_bytes(row, "little") for row in rows]


class SpanBasis:
    """The solutions of the XOR rows added so far, every variable held as
    an affine form over free parameters, parameter-major: ``_params[t]``
    is an int with bit v set when variable v's form uses parameter t, and
    ``_const`` has bit v set when its constant is 1.  A fresh basis is the
    identity, and a parameter that imposed rows eliminate keeps a zero
    int.

    ``_impose`` takes rows over the parameters (a row's parities against
    the forms, see ``_rows``), eliminates them, checks those that reduce
    to a bare constant and substitutes each pivot into the forms.
    ``solution`` reads the reduced row echelon form off the parameters'
    ints.  A row space has one reduced row echelon form, so the result
    does not depend on how rows were grouped or on which ones the forest
    took.
    """

    def __init__(self, n_vars: int):
        self.n_vars, self.nullity, self._consistent = n_vars, n_vars, True
        self._params, self._const = [1 << v for v in range(n_vars)], 0

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
        evaluated one dependency level at a time on (pairs, words) uint64
        words.  The other rows reduce to rows over the parameters, which
        one ``_impose`` takes after the words are transposed once into the
        parameters' ints."""
        cyc, bits = np.asarray(cycles), np.asarray(rhs)
        if cyc.ndim != 2 or cyc.shape[1] != 4 or bits.shape != (len(cyc),):
            raise DimensionError(f"expected (m, 4) cycle rows (p, q, v, r) with m right-hand "
                                 f"sides, got shapes {cyc.shape} and {bits.shape}")
        if cyc.size and cyc.dtype.kind not in "iu":
            raise DimensionError("cycle vertices must be integers")
        p, q, v, r = np.ascontiguousarray(cyc.T, dtype=np.intp)
        if not np.all((0 <= p) & (p < q) & (q < v) & (v < n) & (-1 <= r) & (r < v)
                      & (r != p) & (r != q) & ((bits == 0) | (bits == 1))):
            raise DimensionError(f"a cycle row (p, q, v, r) needs 0 <= p < q < v < {n}, r = -1 "
                                 f"or r < v not p or q, and a right-hand side of 0 or 1")
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
        work = _rows(expr, np.column_stack([at_p, at_q, earlier, second])[rest], bits[rest])
        ints = _ints(_columns(expr[:n_vars]))
        basis = cls(0)
        basis.n_vars, basis.nullity = n_vars, len(roots)
        basis._params, basis._const = ints[:len(roots)], ints[-64]
        basis._impose(work)
        return basis

    def _impose(self, work: np.ndarray) -> None:
        """Impose nonzero packed rows over the parameters, their right-hand
        sides as bit 0 of the last word: reduce them as ints, keeping the
        pivot rows (each keyed by its lowest bit) free of each other's
        pivots, and check that none reduces to the bare constant 1.  Pivot
        j's row sets parameter j to the XOR of its other parameters and its
        constant, so j's int is XORed into theirs, and into the constants
        when the row's constant is 1, and cleared.  No pivot row holds
        another's pivot, so the substitutions do not touch each other."""
        step = 8 * work.shape[1]
        constant, lows, pivots, data = 1 << 8 * step - 64, 0, {}, work.tobytes()
        for at in range(0, len(data), step):
            row = int.from_bytes(data[at:at + step], "little")
            while hit := row & lows:
                row ^= pivots[hit & -hit]
            if row & (constant - 1):
                low = row & -row
                for key, pivot in pivots.items():
                    if pivot & low:
                        pivots[key] = pivot ^ row
                pivots[low], lows = row, lows | low
            elif row:
                self._consistent = False
        params = self._params
        for low, row in pivots.items():
            j = low.bit_length() - 1
            col, params[j] = params[j], 0
            if row & constant:
                self._const ^= col
            row &= constant - 1 - low
            while row:
                t = row.bit_length() - 1
                params[t] ^= col
                row ^= 1 << t
        self.nullity -= len(pivots)

    def solution(self) -> GF2Solution | None:
        """The solution of every row added, or None when some row
        contradicts the rest: the particular solution with every free
        variable zero and the null basis of the reduced row echelon form,
        unique for the row space.  The parameters' ints span the null
        space.  Each is reduced by the null vectors so far until its
        highest bit is none of theirs, and kept under that bit; then, from
        the lowest bit up, each null vector is cleared of the lower ones'
        highest bits, and last the constants of all of them.  Those bits
        are the free columns, and the cleared constants the particular
        solution."""
        if not self._consistent:
            return None
        null = {}
        for vec in self._params:
            while (top := vec.bit_length() - 1) in null:
                vec ^= null[top]
            if vec:
                null[top] = vec
        free, tops = sorted(null), 0
        for f in free:
            vec = null[f]
            while hit := vec & tops:        # a lower vector holds its own highest bit alone
                vec ^= null[(hit & -hit).bit_length() - 1]
            null[f], tops = vec, tops | 1 << f
        x = self._const
        while hit := x & tops:
            x ^= null[(hit & -hit).bit_length() - 1]
        return GF2Solution(n_vars=self.n_vars, particular=x, null_basis=tuple(null[f] for f in free),
                           free_cols=tuple(free), rank=self.n_vars - len(free))


def _rows(expr: np.ndarray, supports: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The nonzero XOR rows of (m, w) variable indices and (m,) 0/1
    right-hand sides over the parameters of the forms ``expr`` ((n_vars,
    words + 1) uint64, the constant as bit 0 of the last word), packed."""
    work = parities(supports, expr)
    work[:, -1] ^= bits
    return work[work.any(axis=1)]               # a zero row is a check that holds
