"""Shared fixture builders for the test suite."""

import itertools

import numpy as np

from signed_dpp import gf2, kernel, moments, pma, rng


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
    tri, pi3, quad, pi4 = pma.traveling_sums(minors, skel)
    eps = skel.epsilon
    positive = eps[tri[:, 0], tri[:, 1]] * eps[tri[:, 1], tri[:, 2]] * eps[tri[:, 0], tri[:, 2]] == 1
    cycles, negative, _, _, _ = pma.match_four_cycles(skel, quad, pi4, pma.SIGN_TOL)
    rows, cycle = np.nonzero(cycles)
    tri_rows, _ = pma._triangle_rows(skel, tri[positive], pi3[positive] < 0)
    quad_rows, _ = pma._four_cycle_rows(skel, quad[rows], cycle, negative[rows, cycle])
    n_vars = k.n * (k.n - 1) // 2

    def rank_of(*groups):
        return sum(map(len, gf2.spanning_rows(groups, n_vars)))

    return rank_of(tri_rows) == rank_of(tri_rows, quad_rows)
