"""Shared fixture builders for the test suite."""

import itertools
import json
import math

import numpy as np

from signed_dpp import gf2, kernel, moments, pma, rng
from signed_dpp.errors import DimensionError, FormatError


def lex_combinations(n, t):
    """(C(n, t), t) intp array of the t-subsets of {0..n-1}, in
    lexicographic order: one row (0, t) for t = 0, none for t > n."""
    rows = list(itertools.combinations(range(n), t))
    return np.array(rows, dtype=np.intp).reshape(math.comb(n, t), t)


def solve_groups(groups, rhs, n_vars):
    """The dense oracle of the GF(2) solver: solve XOR rows given as groups
    of (m, w) arrays of distinct variable indices in 0..n_vars-1, with 0/1
    right-hand sides ``rhs`` (one (m,) array per group), by imposing every
    checked row at once with ``gf2._impose`` on identity parameters, with
    no union-find, and reducing them with ``gf2._reduced``; None when some
    row contradicts the rest."""
    if len(groups) != len(rhs):
        raise DimensionError(f"{len(groups)} groups but {len(rhs)} right-hand sides")
    eye, params = identity_forms(n_vars), [1 << v for v in range(n_vars)]
    const = gf2._impose(params, 0, np.concatenate([eye[:0], *(
        packed_rows(eye, *checked_group(g, r, n_vars)) for g, r in zip(groups, rhs))]))
    return None if const is None else gf2._reduced(params, const, n_vars)


def parities(supports, assignment):
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


def packed_rows(expr, supports, bits):
    """The nonzero XOR rows of (m, w) variable indices and (m,) 0/1
    right-hand sides over the parameters of the forms ``expr`` ((n_vars,
    words + 1) uint64, the constant as bit 0 of the last word), packed as
    ``gf2._impose`` takes them."""
    work = parities(supports, expr)
    work[:, -1] ^= bits
    return work[work.any(axis=1)]               # a zero row is a check that holds


def identity_forms(n_vars):
    """The identity forms as (n_vars, words + 1) uint64 words: variable v
    is parameter v, with constant 0."""
    cols = np.arange(n_vars)
    eye = np.zeros((n_vars, -(-n_vars // 64) + 1), dtype=np.uint64)
    eye[cols, cols >> 6] = np.uint64(1) << (cols & 63).astype(np.uint64)
    return eye


def checked_group(supports, bits, n_vars):
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


def mask_groups(rows, n_vars):
    """XOR rows held as (mask, rhs) ints, as ``solve_groups``
    arguments: one index-array group per row width, and their rhs."""
    nbytes = n_vars // 8 + 1
    data = b"".join((mask & ((1 << n_vars) - 1)).to_bytes(nbytes, "little") for mask, _ in rows)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8).reshape(len(rows), nbytes),
                         axis=1, count=n_vars, bitorder="little")
    rhs, sizes = np.array([r for _, r in rows], dtype=bool), bits.sum(axis=1)
    widths = [(w, sizes == w) for w in np.unique(sizes)]
    return ([np.nonzero(bits[sel])[1].reshape(-1, w) if w else np.zeros((sel.sum(), 0), int)
             for w, sel in widths], [rhs[sel] for _, sel in widths])


def satisfies(rows, assignment):
    """Whether an assignment bitset meets every (mask, rhs) row."""
    return all(bin(mask & assignment).count("1") % 2 == rhs for mask, rhs in rows)


def signed_matrix(diag, upper, eps):
    """Assemble a signed kernel from diagonal, upper entries and relating
    signs, both keyed by (i, j) pairs with i < j (1-based)."""
    n = len(diag)
    mat = np.diag(np.asarray(diag, dtype=float))
    for (i, j), v in upper.items():
        mat[i - 1, j - 1] = v
        mat[j - 1, i - 1] = eps[(i, j)] * v
    return kernel.SignedKernel(mat)


def random_signed(n, seed, diag=(0.3, 0.7), mags=(0.05, 0.1)):
    """Random signed-class matrix (not necessarily admissible)."""
    gen = rng.stream(seed)
    mat = np.diag(gen.uniform(*diag, n))
    for i in range(n):
        for j in range(i + 1, n):
            v = gen.uniform(*mags) * (1 if gen.random() < 0.5 else -1)
            e = 1 if gen.random() < 0.5 else -1
            mat[i, j] = v
            mat[j, i] = e * v
    return kernel.SignedKernel(mat)


def antisymmetric(n, seed, mags=(0.05, 0.1)):
    """Dense kernel with every relating sign -1 (K_ji = -K_ij).  Every
    triangle is negative and every 4-cycle positive, so no triangle row
    exists, and the 4-cycles alone join the pairs (u, v) at each vertex
    v: ``solve_pma`` reads at most C(N - 1, 2) - 1 4-sets, one per join.
    K + K^T and (I - K) + (I - K)^T are positive diagonal matrices, so
    the kernel is admissible."""
    gen = rng.stream(seed)
    mat = np.diag(gen.uniform(0.4, 0.6, n))
    iu, ju = np.triu_indices(n, 1)
    mat[iu, ju] = gen.uniform(*mags, len(iu)) * np.where(gen.random(len(iu)) < 0.5, -1.0, 1.0)
    mat[ju, iu] = -mat[iu, ju]
    return kernel.SignedKernel(mat)


def two_clusters(n, seed):
    """Dense kernel whose negative hub pairs form two cliques: the relating
    sign is -1 between items i, j >= 2 of equal parity and +1 otherwise
    (1-based), so relative to the hub 1 the pairs of even items and the
    pairs of odd items are negative.  Diagonal U[0.3, 0.7], magnitudes
    0.27/(N - 1) U[0.2, 1] as in ``generate_admissible``, and uniform entry
    signs, from ``np.random.default_rng(seed)``."""
    gen = np.random.default_rng(seed)
    mat = np.diag(gen.uniform(0.3, 0.7, n))
    iu, ju = np.triu_indices(n, 1)
    mat[iu, ju] = (0.27 / (n - 1) * gen.uniform(0.2, 1, len(iu))
                   * np.where(gen.random(len(iu)) < 0.5, -1.0, 1.0))
    mat[ju, iu] = np.where((iu >= 1) & (iu % 2 == ju % 2), -1.0, 1.0) * mat[iu, ju]
    return kernel.SignedKernel(mat)


def partly_spanned(inner):
    """An N = 5 kernel whose 4-set (1, 2, 3, 4) has upper entries
    ``inner`` and every relating sign -1, so its triangles are negative
    and its three cycles positive.  Item 5 relates to items 1 and 3 with
    sign +1 and to items 2 and 4 with sign -1: the triangles (a, b, 5)
    along the cycle 1-2-3-4 are positive, and their rows span that
    cycle's row but not the rows of the other two cycles."""
    eps = {p: -1 for p in itertools.combinations(range(1, 5), 2)}
    eps.update({(1, 5): 1, (2, 5): -1, (3, 5): 1, (4, 5): -1})
    upper = {**inner, (1, 5): 0.07, (2, 5): -0.09, (3, 5): 0.11, (4, 5): 0.13}
    return signed_matrix([0.5, 0.45, 0.55, 0.6, 0.5], upper, eps)


# The Hamiltonian cycles of a sorted 4-set (i, j, k, l), as closed walks
# over its positions, in the column order of ``pma.match_four_cycles``:
# i-j-l-k, i-j-k-l, i-k-j-l.
FOUR_CYCLE_WALKS = ((0, 1, 3, 2), (0, 1, 2, 3), (0, 2, 1, 3))


def walk_cycle(skel, walk):
    """Reference description of the closed walk v0 -> v1 -> ... -> v0 over
    0-based vertices: the product of the relating signs along it, its XOR
    row's support (the ``pma`` pair indices of its arcs' sorted pairs,
    sorted) and its right-hand-side flip, the XOR of (eps = -1) over each
    arc a -> b with a > b, which reads sign(K_ab) as eps_ab sign(K_ba).
    The row of a walk whose entry product has sign bit ``negative`` is
    (support, negative ^ flip)."""
    index = {p: t for t, p in enumerate(itertools.combinations(range(skel.n), 2))}
    arcs = list(zip(walk, walk[1:] + walk[:1]))
    sign = int(np.prod([skel.epsilon[a, b] for a, b in arcs]))
    support = sorted(index[min(a, b), max(a, b)] for a, b in arcs)
    flip = sum(skel.epsilon[a, b] == -1 for a, b in arcs if a > b) % 2 == 1
    return sign, support, flip


def walk_rows(skel, walks, negative):
    """Reference XOR rows (supports, rhs) of the closed walks in the rows
    of an (m, w) array, whose entry products have sign bits ``negative``."""
    walks = np.asarray(walks)
    cycles = [walk_cycle(skel, tuple(walk.tolist())) for walk in walks]
    supports = np.array([c[1] for c in cycles], dtype=np.intp).reshape(walks.shape)
    return supports, np.array([c[2] ^ bool(neg) for c, neg in zip(cycles, negative)], dtype=bool)


def four_cycle_walks(quad, cycle):
    """(m, 4) array: row t walks cycle column ``cycle[t]`` of the 0-based
    4-set ``quad[t]``."""
    return np.take_along_axis(quad, np.array(FOUR_CYCLE_WALKS)[cycle], axis=1)


def full_sign_system(minors, sign_tol=0.0):
    """Every decided triangle row and every decided 4-cycle row of a
    minor list, read over every 4-set from the public stage functions
    and built by ``walk_rows``, as ``solve_groups`` arguments
    (groups, rhs)."""
    n = minors.n
    skel = pma.recover_skeleton(minors)
    tri, quad = lex_combinations(n, 3), lex_combinations(n, 4)
    pi3, pi4 = pma.traveling_sums(minors, skel, tri), pma.traveling_sums(minors, skel, quad)
    i, j, k = tri.T
    mag, eps = skel.magnitude, skel.epsilon
    tri_tol = np.maximum(sign_tol, pma._bound(skel, tri, (mag[i, j] * mag[j, k] * mag[i, k])[:, None]))
    used = (eps[i, j] * eps[j, k] * eps[i, k] == 1) & (np.abs(pi3) > tri_tol)
    cycles, negative, best, second, tol = pma.match_four_cycles(skel, quad, pi4, sign_tol)
    assert np.all(best <= tol)
    cycles[second - best <= tol] = False
    rows, cycle = np.nonzero(cycles)
    groups = [walk_rows(skel, tri[used], ~(pi3[used] > 0)),
              walk_rows(skel, four_cycle_walks(quad[rows], cycle), negative[rows, cycle])]
    return [g for g, _ in groups], [b for _, b in groups]


def read_four_sets(minors):
    """The 4-sets a minor list has been read at, as 1-based tuples."""
    return {j for j in minors.queried if len(j) == 4}


def conjugation_distance(h, k):
    """min over +-1 diagonals D of max |H - D K D| and max |H - D K^T D|,
    with D fitted from the first row."""
    out = np.inf
    for mat in (k.mat, k.mat.T):
        d = np.sign(h.mat[0] * mat[0])
        d[0] = 1.0
        out = min(out, float(np.max(np.abs(h.mat - d[:, None] * mat * d[None, :]))))
    return out


def strong_admissible(seed, n=6, mag_lo=0.14, mag_hi=0.18,
                      require_triangle_rank=True, max_attempts=400):
    """Dense admissible signed kernel with large off-diagonal entries.

    Rejection-samples until the draw is admissible, magnitude-generic,
    and (optionally) its positive triangles alone pin the entry signs as
    tightly as the full cycle system, so that sub-threshold 4-cycle
    decisions can be skipped without losing sign information.
    """
    gen = rng.stream(seed)
    for _ in range(max_attempts):
        mat = np.diag(gen.uniform(0.45, 0.55, n))
        for i in range(n):
            for j in range(i + 1, n):
                v = gen.uniform(mag_lo, mag_hi) * (1 if gen.random() < 0.5 else -1)
                e = 1 if gen.random() < 0.5 else -1
                mat[i, j] = v
                mat[j, i] = e * v
        k = kernel.SignedKernel(mat)
        if not _genericity_loop(np.abs(mat), 1e-4):
            continue
        if not kernel.is_admissible(k):
            continue
        if require_triangle_rank and not _triangles_pin_signs(k):
            continue
        return k
    raise RuntimeError(f"no strong admissible kernel found for seed {seed}")


def _genericity_loop(m, rtol):
    """No {-1,0,1}-combination of a 4-set's three 4-cycle magnitude
    products is within rtol of the largest; fixture filter only."""
    combos = [c for c in itertools.product((-1, 0, 1), repeat=3) if any(c)]
    for i, j, k, l in itertools.combinations(range(m.shape[0]), 4):
        p1 = m[i, j] * m[j, k] * m[k, l] * m[l, i]
        p2 = m[i, j] * m[j, l] * m[l, k] * m[k, i]
        p3 = m[i, k] * m[k, j] * m[j, l] * m[l, i]
        tol = rtol * max(p1, p2, p3)
        if any(abs(e1 * p1 + e2 * p2 + e3 * p3) <= tol for e1, e2, e3 in combos):
            return False
    return True


def in_coset(sol, mat):
    """The upper-triangle sign pattern of ``mat`` or of its transpose lies
    in the solution coset of ``sol`` (sign_pattern + span of free_switches)."""
    pivots = {}
    for vec in sol.free_switches:
        while vec and (vec & -vec) in pivots:
            vec ^= pivots[vec & -vec]
        if vec:
            pivots[vec & -vec] = vec
    base = sol.sign_pattern()
    for ref in (mat, mat.T):
        diff = base
        for t, (i, j) in enumerate(sol.pairs):
            if ref[i - 1, j - 1] < 0:
                diff ^= 1 << t
        while diff and (diff & -diff) in pivots:
            diff ^= pivots[diff & -diff]
        if diff == 0:
            return True
    return False


def _triangles_pin_signs(k):
    """The positive triangles' rows span every decided 4-cycle row."""
    minors = moments.exact_minors(k, 4)
    skel = pma.recover_skeleton(minors)
    tri, quad = lex_combinations(k.n, 3), lex_combinations(k.n, 4)
    pi3, pi4 = pma.traveling_sums(minors, skel, tri), pma.traveling_sums(minors, skel, quad)
    eps = skel.epsilon
    positive = eps[tri[:, 0], tri[:, 1]] * eps[tri[:, 1], tri[:, 2]] * eps[tri[:, 0], tri[:, 2]] == 1
    cycles, negative, _, _, _ = pma.match_four_cycles(skel, quad, pi4, 0.0)
    rows, cycle = np.nonzero(cycles)
    tri_rows, _ = walk_rows(skel, tri[positive], pi3[positive] < 0)
    quad_rows, _ = walk_rows(skel, four_cycle_walks(quad[rows], cycle), negative[rows, cycle])
    n_vars = k.n * (k.n - 1) // 2

    def rank_of(*groups):
        return solve_groups(groups, [np.zeros(len(g), dtype=bool) for g in groups],
                                n_vars).rank

    return rank_of(tri_rows) == rank_of(tri_rows, quad_rows)


# ---------------------------------------------------------------------------
# independent references for the cycle structure, on the kernel matrix

def positive_triangles(skel):
    """1-based triangles whose relating signs in a ``pma.Skeleton`` multiply to +1."""
    e = skel.epsilon
    return [tuple(v + 1 for v in t) for t in itertools.combinations(range(skel.n), 3)
            if e[t[0], t[1]] * e[t[1], t[2]] * e[t[0], t[2]] == 1]


def cyclic_sum(k, vertices):
    """Sum over the cyclic orders of a vertex set (1-based), each starting
    at its smallest vertex, of the product of K along the order.  On 3 or
    more vertices this is the traveling sum pi; a missing edge makes its
    product 0."""
    head, *rest = sorted(vertices)
    total = 0.0
    for perm in itertools.permutations(rest):
        order = (head, *perm)
        prod = 1.0
        for a, b in zip(order, order[1:] + order[:1]):
            prod *= k.mat[a - 1, b - 1]
        total += prod
    return total


def set_partitions(items):
    """Yield all partitions of ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for t in range(len(part)):
            yield part[:t] + [[head] + part[t]] + part[t + 1:]
        yield [[head]] + part


def det_from_cycle_data(k, j):
    """det(K_J) grouped by the supports of the permutations' cyclic
    factors: a block B of a set partition contributes K_aa (a singleton),
    -eps_ab |K_ab|^2 = -K_ab K_ba (a pair) or (-1)^(|B|-1) pi(B)."""
    total = 0.0
    for part in set_partitions(sorted(j)):
        term = 1.0
        for block in part:
            term *= (-1.0) ** (len(block) - 1) * cyclic_sum(k, block)
        total += term
    return total


def _close(a, b, tol=1e-9):
    """``pma.verify``'s test: relative where |b| > tol, absolute elsewhere."""
    err = np.abs(a - b)
    return np.all(np.where(np.abs(b) > tol, err <= tol * np.abs(b), err <= tol))


def pma_equivalent_structural(h, k):
    """Minor equality through its structural characterization: equal
    diagonals and off-diagonal magnitudes, the same signed graph (zero
    pattern and relating signs), and equal traveling sums on every vertex
    set of 3 or more."""
    h.require_signed()
    k.require_signed()
    iu, ju = np.triu_indices(k.n, 1)
    if not (_close(np.diag(h.mat), np.diag(k.mat)) and _close(np.abs(h.mat), np.abs(k.mat))
            and np.array_equal(np.sign(h.mat[iu, ju] * h.mat[ju, iu]),
                               np.sign(k.mat[iu, ju] * k.mat[ju, iu]))):
        return False
    return all(_close(cyclic_sum(h, vs), cyclic_sum(k, vs))
               for m in range(3, k.n + 1) for vs in itertools.combinations(range(1, k.n + 1), m))


def lexsort_colex_order(tables):
    """The colex order of the concatenated rows of (m, t) arrays of
    1-based subsets, by a lexsort of their reversed rows, zero-padded to
    the widest: the sort that ``moments._colex_order``'s closed form
    replaced, kept as its reference."""
    if not tables:
        return np.empty(0, dtype=np.intp)
    width = max(idx.shape[1] for idx in tables)
    flipped = np.concatenate([np.pad(idx[:, ::-1], ((0, 0), (0, width - idx.shape[1])))
                              for idx in tables])
    return np.lexsort(flipped.T[::-1])


def per_key_minors_from_json(text):
    """The per-key minors reader that ``moments.minors_from_json`` replaced:
    every key is split and parsed on its own, in file order, and its row
    and value are appended to its order's lists.  Kept as the reference for
    what the array reader accepts and how it reports a defect."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid minors JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "minors" not in obj:
        raise FormatError('minors JSON must be {"n": ..., "minors": ...}')
    n, entries = obj["n"], obj["minors"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FormatError(f"minors JSON: n must be a positive integer, got {n!r}")
    if not isinstance(entries, dict):
        raise FormatError("minors JSON: minors must be an object")
    by_order = {}
    for key, value in entries.items():
        try:
            subset = [int(tok) for tok in key.split(",")]
        except ValueError as exc:
            raise FormatError(f"minors JSON: bad subset key {key!r}") from exc
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(f"minors JSON: value for {key!r} is not a number")
        rows, values = by_order.setdefault(len(subset), ([], []))
        rows.append(subset)
        try:
            values.append(float(value))
        except OverflowError as exc:
            raise FormatError(f"minors JSON: value for {key!r} is beyond the float range") from exc
    out = moments.MinorList(n)
    try:
        for rows, values in by_order.values():
            out._write(rows, values)
    except DimensionError as exc:
        raise FormatError(f"minors JSON: {exc}") from exc
    if len(out) != len(entries):
        raise FormatError(f"minors JSON: {len(entries) - len(out)} of {len(entries)} keys "
                          "repeat a subset that an earlier key names")
    return out
