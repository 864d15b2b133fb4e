"""The signed graph of a kernel, its cycles and traveling sums, as the
array stages of ``pma`` hold them, checked against the matrix-level
references of ``helpers``."""

import itertools

import numpy as np
import pytest

from helpers import (
    FOUR_CYCLE_WALKS,
    cyclic_sum,
    det_from_cycle_data,
    lex_combinations,
    pma_equivalent_structural,
    positive_triangles,
    random_signed,
    signed_matrix,
    walk_cycle,
)
from signed_dpp import kernel, moments, pma
from signed_dpp.errors import DimensionError, NotDenseError, SignedClassError

QUAD = np.array([[0, 1, 2, 3]])


def figure_kernel(seed=7):
    """Complete signed 4-kernel with eps_12 = -1 and all other eps = +1."""
    gen = np.random.default_rng(seed)
    eps = {(1, 2): -1, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1, (3, 4): 1}
    upper = {p: gen.uniform(0.2, 0.5) * gen.choice([-1.0, 1.0]) for p in eps}
    return signed_matrix(gen.uniform(0.3, 0.7, 4), upper, eps)


def uniform_kernel(n, eps):
    """Dense n-kernel with every relating sign equal to ``eps``."""
    pairs = itertools.combinations(range(1, n + 1), 2)
    upper = {p: 0.1 + 0.01 * t for t, p in enumerate(pairs)}
    return signed_matrix([0.5] * n, upper, {p: eps for p in upper})


def skeleton(k):
    return pma.recover_skeleton(moments.exact_minors(k, 2))


# ---------------------------------------------------------------------------
# the signed graph: the skeleton's relating signs

def test_adjacency_dense_kernel_is_complete():
    eps = skeleton(kernel.generate_admissible(5, 0.3, 1)).epsilon
    assert np.count_nonzero(np.triu(eps, 1)) == 10


def test_adjacency_skew_pair_sign():
    k = signed_matrix([0.5, 0.5], {(1, 2): 0.3}, {(1, 2): -1})
    assert skeleton(k).epsilon[0, 1] == -1


def test_adjacency_requires_signed_class():
    mat = np.array([[0.5, 0.3], [0.2, 0.5]])
    with pytest.raises(SignedClassError):
        kernel.SignedKernel(mat).epsilon(1, 2)


# ---------------------------------------------------------------------------
# cycle signs

def test_epsilon_of_cycle():
    skel = skeleton(figure_kernel())
    e = skel.epsilon
    assert e[0, 2] * e[2, 3] * e[0, 3] == 1
    assert e[0, 1] * e[1, 2] * e[0, 2] == -1
    # the cycle 1-2-3-4 is column 1 of match_four_cycles; it runs through eps_12 = -1
    assert FOUR_CYCLE_WALKS[1] == (0, 1, 2, 3)
    assert walk_cycle(skel, FOUR_CYCLE_WALKS[1])[0] == -1


# ---------------------------------------------------------------------------
# traveling sums

def test_induced_cycle_has_two_travelings():
    # a plain 4-cycle with no chords: only its two orientations survive
    upper = {(1, 2): 0.2, (2, 3): 0.3, (3, 4): 0.25, (1, 4): 0.15}
    k = signed_matrix([0.5] * 4, upper, {p: 1 for p in upper})
    m = k.mat
    want = m[0, 1] * m[1, 2] * m[2, 3] * m[3, 0] + m[0, 3] * m[3, 2] * m[2, 1] * m[1, 0]
    assert cyclic_sum(k, (1, 2, 3, 4)) == want


def test_pi_negative_induced_cycle_cancels():
    g_edges = {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 4): -1}
    upper = {(1, 2): 0.2, (2, 3): 0.3, (3, 4): 0.25, (1, 4): 0.15}
    k = signed_matrix([0.5] * 4, upper, g_edges)
    assert cyclic_sum(k, (1, 2, 3, 4)) == pytest.approx(0.0, abs=1e-15)


def test_pi_positive_triangle_doubles_product():
    k = figure_kernel()
    minors = moments.exact_minors(k, 3)
    pi3 = pma.traveling_sums(minors, pma.recover_skeleton(minors), np.array([[0, 2, 3]]))
    want = 2 * k.entry(1, 3) * k.entry(3, 4) * k.entry(4, 1)
    assert pi3[0] == pytest.approx(want, rel=1e-12)
    assert cyclic_sum(k, (1, 3, 4)) == pytest.approx(want, rel=1e-12)


def test_pi_figure_four_set():
    k = figure_kernel()
    minors = moments.exact_minors(k, 4)
    pi4 = pma.traveling_sums(minors, pma.recover_skeleton(minors), QUAD)
    want = 2 * k.entry(1, 3) * k.entry(3, 2) * k.entry(2, 4) * k.entry(4, 1)
    assert pi4[0] == pytest.approx(want, rel=1e-10)
    assert cyclic_sum(k, (1, 2, 3, 4)) == pytest.approx(want, rel=1e-12)


def test_pi_orientation_and_transpose_invariance():
    k = random_signed(5, 21)
    kt = kernel.SignedKernel(k.mat.T.copy())
    for m in (3, 4, 5):
        for vs in itertools.combinations(range(1, 6), m):
            assert cyclic_sum(kt, vs) == pytest.approx(cyclic_sum(k, vs), abs=1e-14)
    for t in (3, 4):
        subsets = lex_combinations(5, t)
        got = [pma.traveling_sums(minors, pma.recover_skeleton(minors), subsets)
               for minors in (moments.exact_minors(k, 4), moments.exact_minors(kt, 4))]
        np.testing.assert_allclose(got[1], got[0], rtol=0, atol=1e-14)


def test_pi_equals_positive_cycle_sum():
    # pi(J) = 2 sum over the positive Hamiltonian cycles of J of the
    # oriented product; each cycle is listed once, from its smallest vertex
    k = kernel.generate_admissible(6, 0.3, 31)
    minors = moments.exact_minors(k, 4)
    skel = pma.recover_skeleton(minors)
    eps, m = skel.epsilon, k.mat
    for size in (3, 4, 5):
        subsets = lex_combinations(6, size)
        stage = pma.traveling_sums(minors, skel, subsets) if size < 5 else None
        for t, vs in enumerate(subsets.tolist()):
            total = 0.0
            for perm in itertools.permutations(vs[1:]):
                order = (vs[0], *perm)
                if perm[0] > perm[-1]:
                    continue
                arcs = list(zip(order, order[1:] + order[:1]))
                if np.prod([eps[a, b] for a, b in arcs]) == 1:
                    total += 2 * np.prod([m[a, b] for a, b in arcs])
            pi = cyclic_sum(k, [v + 1 for v in vs])
            assert pi == pytest.approx(total, rel=1e-9, abs=1e-12)
            if stage is not None:
                assert stage[t] == pytest.approx(total, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# positive triangles and 4-cycles

def test_positive_triangles_all_positive_graph():
    assert positive_triangles(skeleton(uniform_kernel(4, 1))) == [
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_positive_triangles_figure_assignment():
    assert positive_triangles(skeleton(figure_kernel())) == [(1, 3, 4), (2, 3, 4)]


def test_all_negative_triangle_excluded():
    assert positive_triangles(skeleton(uniform_kernel(3, -1))) == []


def test_positive_four_cycles():
    def positive(k):
        minors = moments.exact_minors(k, 4)
        skel = pma.recover_skeleton(minors)
        return pma.match_four_cycles(skel, QUAD, pma.traveling_sums(minors, skel, QUAD),
                                     0.0)[0][0].tolist()

    assert positive(uniform_kernel(4, 1)) == [True, True, True]
    # only the pairing through chords 1-3 and 2-4 (i-k-j-l) avoids the negative edge
    assert positive(figure_kernel()) == [False, False, True]
    sparse = signed_matrix([0.5] * 4, {(1, 2): 0.2, (2, 3): 0.2}, {(1, 2): 1, (2, 3): 1})
    with pytest.raises(NotDenseError):
        skeleton(sparse)


# ---------------------------------------------------------------------------
# grouped determinant expansion (the cycle-data oracle)

def test_det_from_cycle_data_matches_determinant():
    for seed in (1, 2, 3):
        k = random_signed(6, seed)
        for m in range(1, 7):
            j = tuple(range(1, m + 1))
            want = kernel.principal_minor(k, j)
            assert det_from_cycle_data(k, j) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_det_from_cycle_data_sparse_kernel():
    # zero entries remove cycles; the grouping must still match
    upper = {(1, 2): 0.2, (2, 3): 0.15, (1, 3): 0.0, (3, 4): 0.3, (1, 4): 0.0,
             (2, 4): 0.0}
    eps = {p: -1 if p == (1, 2) else 1 for p in upper}
    k = signed_matrix([0.4, 0.5, 0.6, 0.45], upper, eps)
    j = (1, 2, 3, 4)
    assert det_from_cycle_data(k, j) == pytest.approx(kernel.principal_minor(k, j), abs=1e-12)


# ---------------------------------------------------------------------------
# minor-list equivalence

def test_pma_equivalent_reflexive_and_conjugation():
    k = random_signed(6, 41)
    assert pma.pma_equivalent(k, k)
    d = np.diag([1, -1, -1, 1, -1, 1.0])
    assert pma.pma_equivalent(kernel.SignedKernel(d @ k.mat @ d), k)


def test_pma_equivalent_detects_sign_flip():
    k = kernel.generate_admissible(6, 0.3, 8)
    i, j, _ = positive_triangles(skeleton(k))[0]
    mat = np.array(k.mat)
    mat[i - 1, j - 1] *= -1
    mat[j - 1, i - 1] *= -1
    flipped = kernel.SignedKernel(mat)
    assert not pma.pma_equivalent(flipped, k)
    assert not pma_equivalent_structural(flipped, k)


def test_pma_equivalent_dimension_mismatch():
    with pytest.raises(DimensionError):
        pma.pma_equivalent(random_signed(3, 1), random_signed(4, 1))


def test_is_conjugate_matches_switches_and_the_transpose_only():
    k = kernel.generate_admissible(40, 0.3, 5)
    d = np.diag(np.where(np.random.default_rng(5).random(40) < 0.5, -1.0, 1.0))
    for mat in (k.mat, d @ k.mat @ d, d @ k.mat.T @ d):
        assert pma.is_conjugate(kernel.SignedKernel(mat), k)
        assert pma.pma_equivalent(kernel.SignedKernel(mat), k)     # no N = 16 cap on a match
    flipped = np.array(k.mat)
    flipped[[2, 3], [3, 2]] *= -1
    assert not pma.is_conjugate(kernel.SignedKernel(flipped), k)
    near = k.mat + 1e-10
    assert pma.is_conjugate(kernel.SignedKernel(near), k)
    assert not pma.is_conjugate(kernel.SignedKernel(k.mat + 1e-8), k)
    with pytest.raises(DimensionError):
        pma.is_conjugate(k, kernel.generate_admissible(4, 0.3, 5))


def test_is_conjugate_scales_with_the_kernel_as_verify_does():
    # entries near 1e-4: an error of 5e-10 is 1e-5 of an order-1 minor,
    # which verify fails, and so must the O(N^2) check
    k = kernel.SignedKernel(1e-4 * random_signed(6, 7).mat)
    d = np.diag([1, -1, 1, 1, -1, -1.0])
    for mat, same in ((d @ k.mat @ d, True), (k.mat + 5e-10, False)):
        h = kernel.SignedKernel(mat)
        assert pma.is_conjugate(h, k) == same
        assert pma.pma_equivalent(h, k) == pma.verify(h, moments.exact_minors(k, "all")).passed == same


def test_pma_equivalent_implementations_agree():
    gen = np.random.default_rng(3)
    for trial in range(200):
        n = int(gen.integers(3, 8))
        k = random_signed(n, trial)
        kind = trial % 4
        if kind == 0:
            h = kernel.SignedKernel(k.mat.copy())
        elif kind == 1:
            d = np.diag(gen.choice([-1.0, 1.0], n))
            h = kernel.SignedKernel(d @ k.mat @ d)
        elif kind == 2:
            h = kernel.SignedKernel(k.mat.T.copy())
        else:
            mat = np.array(k.mat)
            i, j = sorted(gen.choice(n, 2, replace=False) + 1)
            mat[i - 1, j - 1] *= -1
            mat[j - 1, i - 1] *= -1
            h = kernel.SignedKernel(mat)
        assert pma.pma_equivalent(h, k) == pma_equivalent_structural(h, k)
