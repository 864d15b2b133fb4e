"""Linear algebra over the two-element field.

Sign systems (products of +-1 unknowns equal to prescribed +-1 values)
are solved here as XOR systems, with bit 1 for the sign -1.
``solve_cycles`` solves cycle rows over the pairs on the hub gauge, by a
parity union-find (the balance test of a signed graph); the solutions
are then one affine form per variable over the vertex switches and one
flip per component, which ``_impose`` constrains by the rows left and
``_reduced`` brings to the reduced row echelon form.
"""

from __future__ import annotations

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


def _masks(owner: np.ndarray, bits: np.ndarray, count: int) -> list[int]:
    """``count`` ints, int t with the ``bits`` whose ``owner`` (sorted) is t
    set: rows of bytes, about 2^22 bytes at a time."""
    width = int(bits.max(initial=0)) // 8 + 1
    step = max((1 << 22) // width, 1)
    cuts, out = np.searchsorted(owner, np.arange(0, count + step, step)), []
    for lo, first, last in zip(range(0, count, step), cuts, cuts[1:]):
        b, data = bits[first:last], np.zeros(min(step, count - lo) * width, dtype=np.uint8)
        np.add.at(data, (owner[first:last] - lo) * width + (b >> 3), (1 << (b & 7)).astype(np.uint8))
        out += [int.from_bytes(row.tobytes(), "little") for row in data.reshape(-1, width)]
    return out


def _switches(n: int) -> list[int]:
    """The switches of vertices 0..n - 2 as ints over the pairs: s has (s, s + 1)..(s, n - 1)
    and each (u, s), u < s, at base_u + s - 1, the bits base_u, u < s, shifted by s - 1."""
    base = [u * (2 * n - u - 3) // 2 for u in range(n - 1)]
    column = np.packbits(np.bincount(base, minlength=base[-1] + 1) > 0, bitorder="little")
    column, out = int.from_bytes(column.tobytes(), "little"), [0] * (n - 1)
    for s in range(n - 2, -1, -1):
        column ^= 1 << base[s]
        out[s] = (column << s - 1 if s else 0) | ((1 << n - 1 - s) - 1) << base[s] + s
    return out


def _over(up: np.ndarray, odd: np.ndarray, ends: np.ndarray, rhs: np.ndarray):
    """The (4, m) nodes of m rows and their right-hand sides over the roots
    ``up``: each root that occurs an odd number of times in a row, once, and
    zeros for the rest, and the right-hand side XOR the parities ``odd``."""
    tops = up[ends]
    e01, e02, e03, e12, e13, e23 = tops[[0, 0, 0, 1, 1, 2]] == tops[[1, 2, 3, 2, 3, 3]]
    tops *= [~(e01 ^ e02 ^ e03), ~(e01 | e12 ^ e13), ~(e02 | e12 | e23), ~(e03 | e13 | e23)]
    return tops, rhs ^ np.logical_xor.reduce(odd[ends], axis=0)


def _hook(up: np.ndarray, odd: np.ndarray, a: np.ndarray, b: np.ndarray, bits: np.ndarray) -> bool:
    """Join a parity union-find by the edges x_a ^ x_b = bits: each round
    hangs every root with an edge to a smaller root off the least one, then
    points every node at its root by pointer jumping, carrying its parity
    ``odd``.  An edge within a root is a check; returns whether one fails."""
    failed = False
    while True:
        ra, rb, w = up[a], up[b], bits ^ odd[a] ^ odd[b]
        failed |= (w > (apart := ra != rb)).any()
        if not apart.any():
            return failed
        a, b, bits, ra, rb, w = a[apart], b[apart], bits[apart], ra[apart], rb[apart], w[apart]
        high, key, best = np.maximum(ra, rb), 2 * np.minimum(ra, rb) + w, np.full(len(up), 2 * len(up))
        np.minimum.at(best, high, key)
        up[high], odd[high] = (got := best[high]) >> 1, got & 1
        while (up != (jump := up[up])).any():
            odd ^= odd[up]
            up[:] = jump
        if (taken := got == key).all():
            return failed
        a, b, bits = a[~taken], b[~taken], bits[~taken]


def solve_cycles(n: int, cycles, rhs) -> GF2Solution | None:
    """The solution of the rows of an (m, 4) array of cycles (p, q, v, r)
    of 0-based vertices, p < q < v and r < v, over the pairs in
    ``kernel.pair_index`` order: the triangle x_pv ^ x_qv ^ x_pq = rhs
    for r = -1, else the 4-cycle x_pv ^ x_qv ^ x_pr ^ x_qr = rhs; None
    when some row contradicts the rest.

    A vertex switch keeps every cycle's parity, so the solutions are
    those with each hub pair (0, y) zero, the gauge, switched by
    vertices 0..n - 2.  Under the gauge a row of one other pair fixes
    it and a row of two is an edge of a parity union-find (``_hook``);
    a row of three or four roots is read again (``_over``) until none
    has one or two.  Each root is a flip parameter, and ``_impose``
    takes the rows left and a failed check, as the bare constant 1."""
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
    if not m:       # as at n <= 1, which _switches does not take
        return _reduced([1 << v for v in range(n_vars)], 0, n_vars)
    # each row's pairs (p, v), (q, v), (p, q) or (p, r), and none or (q, r):
    # pair t is node t, but a hub pair, t < n - 1, or none is node 0
    w = np.where(r < 0, q, r)
    ends = pair_index(n, np.array([p, q, np.minimum(p, w), np.minimum(q, r)]),
                      np.array([v, v, np.maximum(p, w), np.maximum(q, r)]))
    ends[ends < n - 1] = 0
    up, odd = np.arange(n_vars), np.zeros(n_vars, dtype=bool)
    up[:n - 1] = 0
    # a row of one pair fixes it; then the rows of one or two roots join,
    # and those of more are read again
    top, bits = ends.max(axis=0), bits == 1
    one = ends.sum(axis=0) == top
    fixed, rows = top[one], np.flatnonzero(~one)
    up[fixed], odd[fixed] = 0, bits[one]
    failed = (odd[fixed] != bits[one]).any()
    nodes = np.take(ends, rows, axis=1)         # each pair not fixed is its own root
    tops, rest = up[nodes], bits[rows] ^ np.logical_xor.reduce(odd[nodes], axis=0)
    while len(edge := np.flatnonzero((count := np.count_nonzero(tops, axis=0)) < 3)):
        pair = np.take(tops, edge, axis=1)      # a check of no roots joins 0 to 0
        high = pair.max(axis=0)
        failed |= _hook(up, odd, high, pair.sum(axis=0) - high, rest[edge])
        if not (more := count > 2).any():
            tops, rest = tops[:, more], rest[more]
            break
        rows = rows[more]
        tops, rest = _over(up, odd, np.take(ends, rows, axis=1), bits[rows])
    # one flip per root but node 0, those of the roots left in rows first
    roots, used = np.flatnonzero(up[1:] == np.arange(1, n_vars)) + 1, np.zeros(n_vars, dtype=bool)
    used[tops] = True
    flips, slot = roots[np.argsort(~used[roots], kind="stable")], np.zeros(n_vars, dtype=np.intp)
    slot[flips] = np.arange(len(flips))
    work = np.zeros((len(rest) + failed, -(-used[roots].sum() // 64) + 1), dtype=np.uint64)
    row, t = np.nonzero(tops.T)[0], slot[tops.T[tops.T > 0]]
    np.bitwise_xor.at(work, (row, t >> 6), np.uint64(1) << (t & 63).astype(np.uint64))
    work[:, -1] = np.append(rest, True)[:len(work)]     # a failed check is the bare 1
    member = (nonzero := np.flatnonzero(up))[np.argsort(slot[up[nonzero]], kind="stable")]
    params = _masks(slot[up[member]], member, len(flips)) + _switches(n)
    const = int.from_bytes(np.packbits(odd, bitorder="little").tobytes(), "little")
    const = _impose(params, const, work)
    return None if const is None else _reduced(params, const, n_vars)


def _impose(params: list[int], const: int, work: np.ndarray) -> int | None:
    """Impose nonzero packed rows on affine forms over free parameters,
    parameter-major (``params[t]`` has bit v set when variable v's form
    uses parameter t, ``const`` bit v when its constant is 1): the rows'
    right-hand sides are bit 0 of the last word.  Reduce the rows as ints
    by the pivot rows so far (each keyed by its lowest bit); a row that
    reduces to the bare constant 1 leaves no solution, and returns None.
    Then clear each pivot row of the higher pivots, the highest first, so
    none holds another's pivot.  Pivot j's row sets parameter j to the XOR
    of its other parameters and its constant, so j's int is XORed into
    theirs, and into the constants when the row's constant is 1, and
    cleared.  No pivot row holds another's pivot, so the substitutions do
    not touch each other.  Returns the constants; ``params`` is updated in
    place, and a parameter the rows eliminate keeps a zero int."""
    step = 8 * work.shape[1]
    constant, lows, pivots, data = 1 << 8 * step - 64, 0, {}, work.tobytes()
    for at in range(0, len(data), step):
        row = int.from_bytes(data[at:at + step], "little")
        while hit := row & lows:
            row ^= pivots[hit & -hit]
        if row & (constant - 1):
            pivots[row & -row], lows = row, lows | row & -row
        elif row:
            return None
    for low in sorted(pivots, reverse=True):
        while hit := pivots[low] & lows ^ low:
            pivots[low] ^= pivots[hit & -hit]
    for low, row in pivots.items():
        j = low.bit_length() - 1
        col, params[j] = params[j], 0
        if row & constant:
            const ^= col
        row &= constant - 1 - low
        while row:
            t = row.bit_length() - 1
            params[t] ^= col
            row ^= 1 << t
    return const


def _reduced(params: list[int], const: int, n_vars: int) -> GF2Solution:
    """The solution of the forms ``params`` and ``const`` (as ``_impose``
    leaves them) over n_vars variables: the particular solution with
    every free variable zero and the null basis of the reduced row
    echelon form, unique for the row space, so it does not depend on how
    rows were grouped or on which parameters span the solutions.  The
    parameters' ints span the null space.  Each is reduced by the null
    vectors so far until its highest bit is none of theirs, and kept
    under that bit; then, from the lowest bit up, each null vector is
    cleared of the lower ones' highest bits, and last the constants of
    all of them.  Those bits are the free columns, and the cleared
    constants the particular solution."""
    null = {}
    for vec in params:
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
    x = const
    while hit := x & tops:
        x ^= null[(hit & -hit).bit_length() - 1]
    return GF2Solution(n_vars=n_vars, particular=x, null_basis=tuple(null[f] for f in free),
                       free_cols=tuple(free), rank=n_vars - len(free))
