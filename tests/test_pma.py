import dataclasses
import hashlib
import itertools
import ast
import math
import re
import warnings

import numpy as np
import pytest

from helpers import (
    FOUR_CYCLE_WALKS,
    antisymmetric,
    conjugation_distance,
    cyclic_sum,
    four_cycle_walks,
    full_sign_system,
    in_coset,
    lex_combinations,
    parities,
    partly_spanned,
    positive_triangles,
    random_signed,
    read_four_sets,
    signed_matrix,
    solve_groups,
    strong_admissible,
    two_clusters,
    walk_cycle,
    walk_rows,
)
from signed_dpp import gf2, kernel, moments, pma, sampler
from signed_dpp.errors import (
    AmbiguousSignWarning,
    CapabilityError,
    DimensionError,
    InconsistentMinorsError,
    MissingMinorError,
    NotDenseError,
)


def oriented_sign(k, cycle):
    """Sign of the entry product along either orientation of a positive cycle."""
    adj = {}
    for a, b in cycle:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = min(adj)
    order = [start, min(adj[start])]
    while len(order) < len(adj):
        order.append([v for v in adj[order[-1]] if v != order[-2]][0])
    prod = 1.0
    for t in range(len(order)):
        prod *= k.entry(order[t], order[(t + 1) % len(order)])
    return 1 if prod > 0 else -1


# ---------------------------------------------------------------------------
# skeleton recovery

def test_recover_skeleton_pair_example():
    # a_i = a_j = 0.5, a_ij = 0.29 inverts to eps = -1, |H_ij| = 0.2
    ml = moments.MinorList(2, {(1,): 0.5, (2,): 0.5, (1, 2): 0.29})
    skel = pma.recover_skeleton(ml)
    assert skel.epsilon[0, 1] == -1
    assert skel.magnitude[0, 1] == pytest.approx(0.2, abs=1e-12)


def test_recover_skeleton_density_error():
    ml = moments.MinorList(2, {(1,): 0.5, (2,): 0.5, (1, 2): 0.25})
    with pytest.raises(NotDenseError):
        pma.recover_skeleton(ml)


def test_recover_skeleton_names_the_lexicographically_first_flat_pair():
    # pairs (3, 4) and (2, 5) vanish; (3, 4) comes first in colex order
    mat = kernel.generate_admissible(6, 0.3, 3).mat.copy()
    for i, j in ((2, 3), (1, 4)):
        mat[i, j] = mat[j, i] = 0.0
    minors = moments.exact_minors(kernel.SignedKernel(mat), 2)
    with pytest.raises(NotDenseError, match=r"^pair \(2,5\): a_i a_j - a_ij = 0\.000e\+00 is below"):
        pma.recover_skeleton(minors)
    assert minors.queried == set(minors.subsets())


def test_recover_skeleton_round_trip():
    k = kernel.generate_admissible(6, 0.3, 17)
    skel = pma.recover_skeleton(moments.exact_minors(k, 2))
    np.testing.assert_allclose(skel.diagonal, np.diag(k.mat), rtol=0, atol=1e-10)
    off = ~np.eye(6, dtype=bool)
    np.testing.assert_allclose(skel.magnitude[off], np.abs(k.mat)[off], rtol=0, atol=1e-10)
    assert np.all(np.diag(skel.magnitude) == 0) and np.all(np.diag(skel.epsilon) == 0)
    for i in range(1, 7):
        for j in range(i + 1, 7):
            assert skel.epsilon[i - 1, j - 1] == skel.epsilon[j - 1, i - 1] == k.epsilon(i, j)


def test_recover_skeleton_requires_pairs():
    ml = moments.MinorList(2, {(1,): 0.5, (2,): 0.5})
    with pytest.raises(MissingMinorError):
        pma.recover_skeleton(ml)


# ---------------------------------------------------------------------------
# traveling-sum extraction

def test_traveling_sums_negative_triangle_vanishes():
    upper = {(1, 2): 0.2, (1, 3): 0.25, (2, 3): 0.3}
    eps = {(1, 2): -1, (1, 3): 1, (2, 3): 1}
    k = signed_matrix([0.5, 0.4, 0.6], upper, eps)
    minors = moments.exact_minors(k, 3)
    skel = pma.recover_skeleton(minors)
    tri, quad = lex_combinations(3, 3), lex_combinations(3, 4)
    pi3, pi4 = pma.traveling_sums(minors, skel, tri), pma.traveling_sums(minors, skel, quad)
    assert tri.tolist() == [[0, 1, 2]] and quad.shape == (0, 4) and pi4.shape == (0,)
    assert pi3[0] == pytest.approx(0.0, abs=1e-12)
    assert cyclic_sum(k, (1, 2, 3)) == pytest.approx(0.0, abs=1e-15)


def test_traveling_sums_positive_triangle_product():
    upper = {(1, 2): 0.2, (1, 3): 0.25, (2, 3): 0.3}
    eps = {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    k = signed_matrix([0.5, 0.4, 0.6], upper, eps)
    minors = moments.exact_minors(k, 3)
    pi3 = pma.traveling_sums(minors, pma.recover_skeleton(minors), np.array([[0, 1, 2]]))
    want = 2 * k.entry(1, 2) * k.entry(2, 3) * k.entry(3, 1)
    assert pi3[0] == pytest.approx(want, rel=1e-12)


def test_traveling_sums_figure_four_set():
    gen = np.random.default_rng(2)
    eps = {(1, 2): -1, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1, (3, 4): 1}
    upper = {p: gen.uniform(0.1, 0.3) * gen.choice([-1.0, 1.0]) for p in eps}
    k = signed_matrix([0.5, 0.45, 0.55, 0.6], upper, eps)
    minors = moments.exact_minors(k, 4)
    quad = lex_combinations(4, 4)
    pi4 = pma.traveling_sums(minors, pma.recover_skeleton(minors), quad)
    assert quad.tolist() == [[0, 1, 2, 3]]
    want = 2 * k.entry(1, 3) * k.entry(3, 2) * k.entry(2, 4) * k.entry(4, 1)
    assert pi4[0] == pytest.approx(want, rel=1e-10)


def test_extract_pi_matches_direct_sums():
    # every 3- and 4-set's traveling sum equals the sum over its positive cycles
    k = kernel.generate_admissible(6, 0.3, 23)
    minors = moments.exact_minors(k, 4)
    skel = pma.recover_skeleton(minors)
    tri, quad = lex_combinations(6, 3), lex_combinations(6, 4)
    pi3, pi4 = pma.traveling_sums(minors, skel, tri), pma.traveling_sums(minors, skel, quad)
    for subsets, got in ((tri, pi3), (quad, pi4)):
        for s, value in zip(subsets, got):
            want = cyclic_sum(k, tuple(s + 1))
            assert value == pytest.approx(want, abs=1e-12)


def test_batched_traveling_sums_match_direct_sums():
    for n, seed in ((6, 201), (7, 202), (8, 203)):
        k = kernel.generate_admissible(n, 0.3, seed)
        minors = moments.exact_minors(k, 4)
        skel = pma.recover_skeleton(minors)
        tri, quad = lex_combinations(n, 3), lex_combinations(n, 4)
        pi3, pi4 = pma.traveling_sums(minors, skel, tri), pma.traveling_sums(minors, skel, quad)
        for subsets, got in ((tri, pi3), (quad, pi4)):
            want = [cyclic_sum(k, s + 1) for s in subsets]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        # the batched faces equal computing each face's pi3 alone, and
        # each 4-set's pi4 does not depend on the others given with it
        faces = np.array([pma.traveling_sums(minors, skel, q[pma._FACES]) for q in quad])
        fixed = pma._fixed(skel.diagonal, skel.pair_terms, quad, faces)
        assert (fixed - minors.get_many(quad + 1)).tolist() == pi4.tolist()
        assert [pma.traveling_sums(minors, skel, q[None])[0] for q in quad] == pi4.tolist()


# ---------------------------------------------------------------------------
# 4-cycle disambiguation

def test_four_clique_positive_cycle_parity():
    # each edge lies on two of the three pairings, so the number of
    # negative 4-cycles is even: T+ has 1 or 3 members, never 0
    for bits in range(1 << 6):
        eps = {}
        for t, p in enumerate(itertools.combinations(range(1, 5), 2)):
            eps[p] = -1 if (bits >> t) & 1 else 1
        mags = np.zeros((4, 4))
        em = np.zeros((4, 4), dtype=int)
        for (i, j), e in eps.items():
            mags[i - 1, j - 1] = mags[j - 1, i - 1] = 0.1
            em[i - 1, j - 1] = em[j - 1, i - 1] = e
        skel = pma.Skeleton(4, np.full(4, 0.5), mags, em)
        signs = [walk_cycle(skel, walk)[0] for walk in FOUR_CYCLE_WALKS]
        assert signs.count(1) in (1, 3)


def cycle_edges(quad_row, c):
    """1-based sorted edges of cycle column ``c`` of a 0-based 4-set."""
    walk = [int(quad_row[a]) + 1 for a in FOUR_CYCLE_WALKS[c]]
    return sorted(tuple(sorted(arc)) for arc in zip(walk, walk[1:] + walk[:1]))


def four_cycle_decisions(k, minors=None):
    minors = moments.exact_minors(k, 4) if minors is None else minors
    skel = pma.recover_skeleton(minors)
    tri, quad = lex_combinations(k.n, 3), lex_combinations(k.n, 4)
    pi3, pi4 = pma.traveling_sums(minors, skel, tri), pma.traveling_sums(minors, skel, quad)
    return skel, tri, pi3, quad, pi4, pma.match_four_cycles(skel, quad, pi4, 0.0)


def test_disambiguate_single_positive_cycle():
    gen = np.random.default_rng(5)
    # eps_12 = -1 leaves exactly one positive pairing (through 1-3, 2-4)
    eps = {(1, 2): -1, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1, (3, 4): 1}
    upper = {p: gen.uniform(0.1, 0.3) * gen.choice([-1.0, 1.0]) for p in eps}
    k = signed_matrix([0.5, 0.45, 0.55, 0.6], upper, eps)
    *_, quad, pi4, (positive, negative, best, second, tol) = four_cycle_decisions(k)
    assert positive.tolist() == [[False, False, True]]
    assert cycle_edges(quad[0], 2) == [(1, 3), (1, 4), (2, 3), (2, 4)]
    assert best[0] <= tol[0] < second[0] - best[0]
    sigma = -1 if negative[0, 2] else 1
    assert sigma == (1 if pi4[0] > 0 else -1)
    assert sigma == oriented_sign(k, cycle_edges(quad[0], 2))


def test_single_positive_cycle_in_each_column():
    # one negative edge makes the two cycles through it negative; the
    # positive cycle avoids it and its chord partner, in column 0, 1 or 2
    gen = np.random.default_rng(11)
    for c, negative_edge in enumerate([(1, 4), (1, 3), (1, 2)]):
        eps = {p: -1 if p == negative_edge else 1 for p in itertools.combinations(range(1, 5), 2)}
        signs = set()
        for _ in range(6):
            upper = {p: gen.uniform(0.1, 0.3) * gen.choice([-1.0, 1.0]) for p in eps}
            k = signed_matrix([0.5, 0.45, 0.55, 0.6], upper, eps)
            *_, quad, pi4, (positive, negative, best, second, tol) = four_cycle_decisions(k)
            assert positive[0].tolist() == [t == c for t in range(3)]
            assert best[0] <= tol[0] < second[0] - best[0]
            sigma = oriented_sign(k, cycle_edges(quad[0], c))
            assert negative[0].tolist() == [t == c and sigma == -1 for t in range(3)]
            signs.add(sigma)
        assert signs == {-1, 1}


def test_cycle_table_matches_the_walk_reference():
    # signs, supports and right-hand-side flips of pma's one cycle table
    # against walk_cycle, on every relating-sign pattern of one 4-set and
    # on every triangle of a random kernel; the magnitude products keep
    # the order of the sorted edges (i-j, j-k, i-k for a triangle)
    mags = np.zeros((4, 4))
    for t, (i, j) in enumerate(itertools.combinations(range(4), 2)):
        mags[i, j] = mags[j, i] = 0.1 + 0.01 * t
    quad = np.array([[0, 1, 2, 3]])
    for bits in range(1 << 6):
        em = np.zeros((4, 4), dtype=int)
        for t, (i, j) in enumerate(itertools.combinations(range(4), 2)):
            em[i, j] = em[j, i] = -1 if (bits >> t) & 1 else 1
        skel = pma.Skeleton(4, np.full(4, 0.5), mags, em)
        sign, product, flip = pma._cycles(skel, quad, pma._FOUR_CYCLES)
        edges = quad[:, pma._FOUR_CYCLES[0]]
        support = kernel.pair_index(4, edges[..., 0], edges[..., 1])
        for c, walk in enumerate(FOUR_CYCLE_WALKS):
            want_sign, want_support, want_flip = walk_cycle(skel, walk)
            assert (sign[0, c], sorted(support[0, c].tolist()), flip[0, c]) == \
                (want_sign, want_support, want_flip)
            edges = sorted(tuple(sorted(arc)) for arc in zip(walk, walk[1:] + walk[:1]))
            (a0, b0), (a1, b1), (a2, b2), (a3, b3) = edges
            assert product[0, c] == mags[a0, b0] * mags[a1, b1] * mags[a2, b2] * mags[a3, b3]
    k = random_signed(7, 5)
    skel = pma.recover_skeleton(moments.exact_minors(k, 2))
    tri = lex_combinations(7, 3)
    sign, product, flip = pma._cycles(skel, tri, pma._TRIANGLE)
    edges = tri[:, pma._TRIANGLE[0]]
    support = kernel.pair_index(7, edges[..., 0], edges[..., 1])
    m = skel.magnitude
    for t, (i, j, kk) in enumerate(tri.tolist()):
        want_sign, want_support, want_flip = walk_cycle(skel, (i, j, kk))
        assert (sign[t, 0], sorted(support[t, 0].tolist()), flip[t, 0]) == \
            (want_sign, want_support, want_flip)
        assert product[t, 0] == m[i, j] * m[j, kk] * m[i, kk]


def test_disambiguate_recovers_ground_truth_signs():
    for seed in range(4):
        k = kernel.generate_admissible(5, 0.3, 40 + seed)
        *_, quad, _, (positive, negative, best, second, tol) = four_cycle_decisions(k)
        assert np.all(best <= tol) and np.all(second - best > tol)
        for t, c in zip(*np.nonzero(positive)):
            assert (-1 if negative[t, c] else 1) == oriented_sign(k, cycle_edges(quad[t], c))


def test_disambiguate_rejects_unmatchable_sum():
    # every relating sign is -1: no triangle is positive, so the 4-set's
    # three positive cycles are outside the (empty) span and it is read
    k = antisymmetric(4, 3)
    minors = moments.exact_minors(k, 4)
    skel, *_, quad, pi4, _ = four_cycle_decisions(k, minors)
    _, _, best, _, tol = pma.match_four_cycles(skel, quad, np.array([0.5]), 0.0)
    assert best[0] > tol[0]
    # pi4 = fixed - a_S, so this moves the 4-set's traveling sum to 0.5
    spoiled = moments.MinorList(4, dict(minors.items()))
    spoiled.put((1, 2, 3, 4), minors.get((1, 2, 3, 4)) + pi4[0] - 0.5)
    with pytest.raises(InconsistentMinorsError,
                       match=r"^4-set \(1, 2, 3, 4\): no sign pattern matches the traveling sum"):
        pma.solve_pma(spoiled)
    assert read_four_sets(spoiled) == {(1, 2, 3, 4)}


def test_unread_four_set_minor_changes_nothing():
    # the positive triangles of these kernels span the cycle rows of some
    # 4-sets, whose minors are never read: spoiling them or leaving them
    # out gives the same solution, and verify reports exactly the spoiled
    for n, seed in ((4, 3), (8, 2024)):
        k = kernel.generate_admissible(n, 0.3, seed)
        minors = moments.exact_minors(k, 4)
        sol = pma.solve_pma(minors)
        read = read_four_sets(minors)
        unread = sorted(set(itertools.combinations(range(1, n + 1), 4)) - read,
                        key=kernel.colex_key)
        assert unread
        values = dict(minors.items())
        spoiled = moments.MinorList(n, {j: v + 0.25 * (j in unread) for j, v in values.items()})
        missing = moments.MinorList(n, {j: v for j, v in values.items() if j not in unread})
        for other in (spoiled, missing):
            got = pma.solve_pma(other)
            assert got.kernel.mat.tobytes() == sol.kernel.mat.tobytes()
            assert (got.free_switches, got.sign_pattern(), got.pairs) == \
                (sol.free_switches, sol.sign_pattern(), sol.pairs)
            assert read_four_sets(other) == read
        assert [f[0] for f in pma.verify(sol.kernel, spoiled, 1e-9).failures] == unread
        assert pma.verify(sol.kernel, missing, 1e-9).passed


# ---------------------------------------------------------------------------
# sign system

def test_sign_system_single_triangle_row():
    mags = np.zeros((3, 3))
    em = np.zeros((3, 3), dtype=int)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        mags[i, j] = mags[j, i] = 0.2
    for (i, j), e in {(0, 1): -1, (0, 2): -1, (1, 2): 1}.items():
        em[i, j] = em[j, i] = e
    skel = pma.Skeleton(3, np.full(3, 0.5), mags, em)
    support, rhs = walk_rows(skel, np.array([[0, 1, 2]]), np.array([True]))
    assert sorted(support[0].tolist()) == [0, 1, 2]  # variables x_12, x_13, x_23
    # rhs = bit(sign) xor bit(eps_13) = 1 xor 1 = 0
    assert rhs.tolist() == [False]


def test_sign_system_satisfied_by_ground_truth():
    for seed in range(4):
        k = kernel.generate_admissible(6, 0.3, 60 + seed)
        skel, tri, pi3, quad, _, (cycles, negative, *_) = four_cycle_decisions(k)
        i, j, kk = tri.T
        eps = skel.epsilon
        positive = eps[i, j] * eps[j, kk] * eps[i, kk] == 1
        rows, cycle = np.nonzero(cycles)
        groups = [walk_rows(skel, tri[positive], ~(pi3[positive] > 0)),
                  walk_rows(skel, four_cycle_walks(quad[rows], cycle), negative[rows, cycle])]
        pairs = pma._pairs(6)
        truth = np.array([k.entry(a, b) < 0 for a, b in pairs])
        # vertex switches flip an even number of signs around any cycle
        switches = [np.array([v in p for p in pairs]) for v in range(1, 7)]
        for x in [truth] + [truth ^ switch for switch in switches]:
            for support, rhs in groups:
                assert np.array_equal(parities(support, x), rhs)


# ---------------------------------------------------------------------------
# end to end

def test_solve_pma_round_trip():
    for seed in range(6):
        n = 4 + seed % 5
        k = kernel.generate_admissible(n, 0.3, 70 + seed)
        sol = pma.solve_pma(moments.exact_minors(k, 4))
        assert pma.pma_equivalent(sol.kernel, k)


def test_solve_pma_transpose_same_solution():
    k = kernel.generate_admissible(6, 0.3, 81)
    kt = kernel.SignedKernel(k.mat.T.copy())
    sol = pma.solve_pma(moments.exact_minors(k, 4))
    sol_t = pma.solve_pma(moments.exact_minors(kt, 4))
    assert np.allclose(sol.kernel.mat, sol_t.kernel.mat, atol=1e-12)
    assert sol.free_switches == sol_t.free_switches


def test_solve_pma_hand_built_diagonally_dominant():
    upper = {(1, 2): 0.05, (1, 3): -0.07, (1, 4): 0.04,
             (2, 3): 0.06, (2, 4): -0.085, (3, 4): 0.055}
    eps = {(1, 2): -1, (1, 3): 1, (1, 4): -1,
           (2, 3): 1, (2, 4): -1, (3, 4): 1}
    k = signed_matrix([0.6, 0.5, 0.55, 0.45], upper, eps)
    assert kernel.is_admissible(k)
    minors = moments.exact_minors(k, 4)
    sol = pma.solve_pma(minors)
    report = pma.verify(sol.kernel, minors, 1e-9)
    assert report.passed


def test_solve_pma_reads_only_low_orders():
    k = kernel.generate_admissible(7, 0.3, 91)
    minors = moments.exact_minors(k, "all")
    pma.solve_pma(minors)
    orders = {len(j) for j in minors.queried}
    assert orders <= {1, 2, 3, 4}
    assert len(minors.queried) <= sum(math.comb(7, t) for t in (1, 2, 3, 4))


def test_solve_pma_missing_minor():
    # with every relating sign -1 every 4-set is read, so an absent one raises
    k = antisymmetric(5, 13)
    with pytest.raises(MissingMinorError):
        pma.solve_pma(moments.exact_minors(k, 3))


def test_solve_pma_generator_law_needs_no_four_sets():
    # on generator-law kernels the positive triangles already pin every
    # sign the 4-sets could, so orders 1-3 give the same solution
    for seed in (1, 2, 3):
        k = kernel.generate_admissible(16, 0.3, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AmbiguousSignWarning)
            low = pma.solve_pma(moments.exact_minors(k, 3))
            full = pma.solve_pma(moments.exact_minors(k, 4))
        assert low.kernel.mat.tobytes() == full.kernel.mat.tobytes()
        assert low.solution == full.solution and low.pairs == full.pairs
        assert low.null_dimension == 16


def test_solve_pma_not_dense():
    with pytest.raises(NotDenseError):
        pma.solve_pma(moments.exact_minors(
            kernel.SignedKernel(np.diag([0.3, 0.6, 0.4, 0.5])), "all"))


def _equal_magnitudes(k12):
    upper = {p: 0.1 for p in itertools.combinations(range(1, 5), 2)}
    upper[(1, 2)] = k12
    return signed_matrix([0.5, 0.5, 0.5, 0.5], upper, {p: 1 for p in upper})


def test_solve_pma_degenerate_magnitudes():
    # the three 4-cycles have equal magnitudes, but the all-positive
    # pattern is the only one summing to 6 m: the 4-set decides
    k = _equal_magnitudes(0.1)
    minors = moments.exact_minors(k, "all")
    with warnings.catch_warnings():
        warnings.simplefilter("error", AmbiguousSignWarning)
        sol = pma.solve_pma(minors)
    assert pma.verify(sol.kernel, minors, 1e-9).passed
    assert conjugation_distance(sol.kernel, k) <= 1e-9
    assert sol.null_dimension == 3


def test_solve_pma_ambiguous_four_set_enlarges_solution_set():
    # inside (1, 2, 3, 4) the magnitudes are equal and K_12 < 0, so its
    # cycle pattern ties with two others of the same sum; the 4-set is
    # read, since two of its cycles are outside the triangles' span.
    # Every member reproduces every minor solve_pma was given.
    inner = {p: 0.1 for p in itertools.combinations(range(1, 5), 2)}
    inner[(1, 2)] = -0.1
    k = partly_spanned(inner)
    assert kernel.is_admissible(k)
    minors = moments.exact_minors(k, 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = pma.solve_pma(minors)
    assert [w.category for w in caught] == [AmbiguousSignWarning]
    assert "(1, 2, 3, 4)" in str(caught[0].message)
    members = pma.describe_solution_set(sol)
    assert len(members) == 1 << sol.null_dimension
    for m in members:
        assert pma.verify(m, minors, 1e-9).passed


def test_solve_pma_reads_the_next_candidate_when_a_join_is_skipped():
    # every relating sign is -1, so every hub triangle {1, x, y} is
    # negative and only 4-sets join the pairs (x, y); the magnitudes of
    # (1, 2, 3, 5) are equal with K_12 < 0, so that 4-set ties.  Kruskal's
    # order picks (1, 2, 3, 4), (1, 2, 3, 5) and (1, 2, 4, 5); the tie
    # leaves (3, 5) unjoined, so its next candidate, (1, 3, 4, 5), is read,
    # and the coset is that of every decided row.
    upper = {(1, 2): -0.1, (1, 3): 0.1, (2, 3): 0.1, (1, 5): 0.1, (2, 5): 0.1, (3, 5): 0.1,
             (1, 4): 0.07, (2, 4): -0.09, (3, 4): 0.11, (4, 5): 0.13}
    k = signed_matrix([0.5, 0.45, 0.55, 0.6, 0.5], upper, {p: -1 for p in upper})
    assert kernel.is_admissible(k)
    minors = moments.exact_minors(k, 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = pma.solve_pma(minors)
    assert _warned_four_sets(caught) == [(1, 2, 3, 5)]
    assert read_four_sets(minors) == {(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5)}
    _same_solution(sol, solve_groups(*full_sign_system(minors), 10))
    assert sol.null_dimension == 5


def test_solve_pma_links_vertex_disjoint_negative_hub_pairs_by_a_four_set():
    # relative to the hub 1 only (2, 3) and (4, 5) are negative, so no
    # triangle and no 4-set with the hub joins them: (2, 3, 4, 5) does
    upper = {p: 0.08 + 0.01 * t for t, p in enumerate(itertools.combinations(range(1, 6), 2))}
    eps = {p: -1 if p in ((2, 3), (4, 5)) else 1 for p in upper}
    k = signed_matrix([0.5, 0.45, 0.55, 0.6, 0.5], upper, eps)
    assert kernel.is_admissible(k)
    minors = moments.exact_minors(k, 4)
    sol = pma.solve_pma(minors)
    assert read_four_sets(minors) == {(2, 3, 4, 5)}
    _same_solution(sol, solve_groups(*full_sign_system(minors), 10))
    assert conjugation_distance(sol.kernel, k) <= 1e-9 and sol.null_dimension == 5


def _negative_hub_pairs(shape, n):
    """The pairs (x, y) of {2..n} whose hub triangle {1, x, y} is to be
    negative, for each named shape of their graph."""
    v = list(range(2, n + 1))
    half = len(v) // 2
    matching = set(zip(v[::2], v[1::2]))
    return {"empty": set(),
            "matching": matching,
            "star": {(2, x) for x in v[1:]},
            "path": set(zip(v, v[1:])),
            "clique": set(itertools.combinations(v, 2)),
            "two cliques": set(itertools.combinations(v[:half], 2)) | set(itertools.combinations(v[half:], 2)),
            "matching complement": set(itertools.combinations(v, 2)) - matching}[shape]


@pytest.mark.parametrize("shape, n", [
    ("empty", 6), ("matching", 7), ("matching", 11), ("star", 8), ("path", 9), ("path", 12),
    ("clique", 6), ("clique", 10), ("two cliques", 8), ("two cliques", 11),
    ("matching complement", 9), ("matching complement", 11)])
def test_solve_pma_spans_each_shape_of_the_negative_hub_pairs(shape, n, monkeypatch):
    # every K_1x is positive with eps_1x = +1, so (x, y) is a negative hub
    # pair exactly when eps_xy = -1; the joins read beyond the hub
    # triangles form a spanning tree over those pairs, and 4-sets are read
    # only where triangles cannot join them
    negative = _negative_hub_pairs(shape, n)
    gen = np.random.default_rng(n)
    upper = {p: gen.uniform(0.05, 0.1) * (1 if p[0] == 1 or gen.random() < 0.5 else -1)
             for p in itertools.combinations(range(1, n + 1), 2)}
    k = signed_matrix(gen.uniform(0.4, 0.6, n), upper, {p: -1 if p in negative else 1 for p in upper})
    decided, decide = [], pma._decide

    def counted(minors, skel, sets, *rest):
        decided.append(len(sets))
        return decide(minors, skel, sets, *rest)

    monkeypatch.setattr(pma, "_decide", counted)
    minors = moments.exact_minors(k, 4)
    sol = pma.solve_pma(minors)
    assert sum(decided) - math.comb(n - 1, 2) <= max(len(negative) - 1, 0)
    assert sum(len(j) >= 3 for j in minors.queried) <= 3 * math.comb(n - 1, 2)
    four_sets = read_four_sets(minors)
    _same_solution(sol, solve_groups(*full_sign_system(minors), n * (n - 1) // 2))
    assert pma.is_conjugate(sol.kernel, k)
    # triangles join the pairs of an empty set, a star and a path, so an
    # order-3 list is enough; the other shapes need 4-sets
    if shape in ("empty", "star", "path"):
        low = pma.solve_pma(moments.exact_minors(k, 3))
        assert low.solution == sol.solution and four_sets == set()
    else:
        assert four_sets
        with pytest.raises(MissingMinorError):
            pma.solve_pma(moments.exact_minors(k, 3))


def test_solve_pma_skips_every_decision_of_noisy_minors_without_raising():
    # every decision of these noisy minors is skipped, the triangles' too:
    # the coset is every sign pattern, and each warning names a subset read
    k = kernel.generate_admissible(16, 0.3, 1679072675)
    est = moments.estimate_required_minors(
        sampler.sample_sequential_batch(k, 10_000, 1260265874), 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = pma.solve_pma(est, sign_tol=0.01)
    assert sol.null_dimension == 120
    named = [ast.literal_eval(m.group(1)) for w in caught
             if (m := re.match(r"(?:triangle|4-set) (\([0-9, ]+\)):? ", str(w.message)))]
    assert len(named) == len(caught) > 0 and set(named) <= set(est.queried)


def test_solve_pma_noisy_minors_never_raise_on_close_magnitudes():
    # noisy estimated minors: every 4-set whose sign patterns the noise
    # leaves within the tolerance is skipped, and none raises
    k = kernel.generate_admissible(16, 0.3, 1679072675)
    batch = sampler.sample_sequential_batch(k, 10_000, 1260265874)
    est = moments.estimate_required_minors(batch, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmbiguousSignWarning)
        sol = pma.solve_pma(est, sign_tol=0.01)
    assert in_coset(sol, k.mat)


def test_solve_pma_inconsistent_minors():
    k = kernel.generate_admissible(5, 0.3, 29)
    minors = moments.exact_minors(k, 4)
    spoiled = moments.MinorList(5, dict(minors.items()))
    victim = (1, 2, 3)
    spoiled.put(victim, minors.get(victim) + 0.25)
    with pytest.raises(InconsistentMinorsError):
        pma.solve_pma(spoiled)


def test_a_negative_triangle_off_by_a_hundred_rounding_bounds_raises():
    # the bound is not a loosening: a negative hub triangle's traveling sum
    # is 0, and one moved 100 times past its bound (below 1e-12) still raises
    k = kernel.generate_admissible(8, 0.3, 7)
    minors = moments.exact_minors(k, 4)
    skel = pma.recover_skeleton(minors)
    hub = lex_combinations(8, 3)[:21]       # the triangles {1, x, y}
    sign, m3 = pma._cycles(skel, hub, pma._TRIANGLE)[:2]
    t = int(np.argmax(sign[:, 0] == -1))
    assert sign[t, 0] == -1
    bump = 100 * pma._bound(skel, hub[t:t + 1], m3[t:t + 1])[0]
    assert 0 < bump < 1e-12
    victim = tuple(int(v) + 1 for v in hub[t])
    spoiled = moments.MinorList(8, dict(minors.items()))
    spoiled.put(victim, minors.get(victim) + bump)
    with pytest.raises(InconsistentMinorsError, match=re.escape(f"triangle {victim} is negative")):
        pma.solve_pma(spoiled)


def _small_entries(law, small):
    if law == "all-negative":      # 4-sets decide; pair (1, 2) enters two of a 4-set's cycles
        mat = antisymmetric(6, 0, mags=(0.2, 0.3)).mat.copy()
        pairs, eps = ((0, 1), (2, 4)), -1
    elif law == "two small edges":  # opposite in (1, 2, 3, 4): two of its cycles hold both
        mat = antisymmetric(6, 9, mags=(0.2, 0.3)).mat.copy()
        pairs, eps = ((0, 1), (2, 3)), -1
    else:
        mat = kernel.generate_admissible(7, 0.3, 7).mat.copy()
        pairs, eps = (((0, 2),), 1) if law == "one pair" else (((0, 1), (0, 2), (1, 2)), 1)
    for i, j in pairs:
        mat[i, j] = small * np.sign(mat[i, j])
        mat[j, i] = eps * mat[i, j]
    return kernel.SignedKernel(mat)


@pytest.mark.parametrize("law, small", [("one pair", 5e-5), ("positive hub triangle", 5e-5),
                                        ("all-negative", 1e-5), ("two small edges", 1e-6)])
def test_solve_pma_decides_small_entries_against_their_rounding_bounds(law, small):
    # |K_ij| = 5e-5 has a_i a_j - a_ij = 2.5e-9, far beyond its rounding
    # error; three of them make a positive triangle of 2 m3 = 2.5e-13, and
    # on the all-negative law the 4-cycles through 1e-5 edges carry their
    # magnitudes' larger relative error.  Two 1e-6 edges put 1.5 u |a_a a_b|
    # / m_ab^2 each, 1.7e-4 in all, on the cycles through both; weighed by
    # the 193 roundings of the rest of the bound, that error skipped a 4-set
    k = _small_entries(law, small)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = pma.solve_pma(moments.exact_minors(k, 4))
    assert sol.null_dimension == k.n and pma.is_conjugate(sol.kernel, k)


def test_solve_pma_reads_only_the_triangles_through_a_skipped_hub_triangle(monkeypatch):
    # sign_tol 1e-8 skips six positive hub triangles {1, x, y} of the
    # generator's law at N = 48: the N - 3 triangles {u, x, y} through each
    # give the pair's row back, and no table of all C(N, 3) triangles is
    # built.  5,547 minors are read, against 19,733 when every triangle was
    table = pma.colex_table

    def no_triangle_table(n, t):
        assert t != 3, "the C(N, 3) triangles were listed"
        return table(n, t)

    monkeypatch.setattr(pma, "colex_table", no_triangle_table)
    k = kernel.generate_admissible(48, 0.3, 7)
    minors = moments.KernelMinors(k)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = pma.solve_pma(minors, sign_tol=1e-8)
    lost = [ast.literal_eval(m.group(1)) for w in caught
            if (m := re.match(r"triangle (\(1, [0-9]+, [0-9]+\)):", str(w.message)))]
    assert len(lost) == 6
    for _, x, y in lost:
        assert {tuple(sorted((u, x, y))) for u in range(2, 49) if u not in (x, y)} <= minors.queried
    assert len(minors.queried) == 5547
    assert sol.null_dimension == 48 and pma.is_conjugate(sol.kernel, k)


def test_solve_pma_joins_two_clusters_through_one_four_set_per_component():
    # the negative hub pairs form two cliques, which only 4-sets {a, b, c, d}
    # of a pair from each join.  sign_tol 1e-11 skips seven hub 4-sets, and
    # round two joins each loose pair to one pair of each component in the
    # other clique: 12 such 4-sets in all (one from round one) and 2,435
    # minors, against 888 and 5,126 when every 4-set of two pairs across was
    # listed
    k = two_clusters(40, 3)
    minors = moments.KernelMinors(k)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = pma.solve_pma(minors, sign_tol=1e-11)
    assert len(caught) == 7
    assert sum(len(j) == 4 and j[0] > 1 for j in minors.queried) == 12
    assert len(minors.queried) == 2435
    assert sol.null_dimension == 40 and pma.is_conjugate(sol.kernel, k)


def test_solve_pma_redundant_inconsistent_row():
    # the 4-set (1, 2, 3, 4) is read, since its cycles join the three
    # pairs at vertex 4, which no triangle row joins.  Two of its cycles
    # are outside the span of the triangle rows.  Flipping its traveling
    # sum flips all three cycle signs, and the contradiction sits on the
    # third cycle, whose row already lies in that span: only its check
    # against the other rows sees it.
    inner = {(1, 2): 0.08, (1, 3): -0.1, (1, 4): 0.12, (2, 3): 0.09, (2, 4): -0.11, (3, 4): 0.13}
    k = partly_spanned(inner)
    assert kernel.is_admissible(k)
    minors = moments.exact_minors(k, 4)
    skel, tri, pi3, quad, pi4, (positive, before, *_) = four_cycle_decisions(k, minors)
    t = 0
    assert quad[t].tolist() == [0, 1, 2, 3] and positive[t].all()
    i, j, kk = tri.T
    eps = skel.epsilon
    used = eps[i, j] * eps[j, kk] * eps[i, kk] == 1
    triangles, _ = walk_rows(skel, tri[used], pi3[used] < 0)
    support, _ = walk_rows(skel, four_cycle_walks(quad[[t, t, t]], np.arange(3)), np.zeros(3, dtype=bool))

    def rank(*groups):
        return solve_groups(groups, [np.zeros(len(g), dtype=bool) for g in groups], 10).rank

    assert [rank(triangles, support[[c]]) > rank(triangles) for c in range(3)] == [True, False, True]
    s = tuple(int(v) + 1 for v in quad[t])
    spoiled = moments.MinorList(5, dict(minors.items()))
    # pi4 = fixed - a_S, so this flips the sign of the 4-set's traveling sum
    spoiled.put(s, minors.get(s) + 2 * pi4[t])
    *_, flipped, (_, after, *_) = four_cycle_decisions(k, spoiled)
    assert flipped[t] == pytest.approx(-pi4[t], rel=1e-9)
    assert np.array_equal(after[t, positive[t]], ~before[t, positive[t]])
    assert np.array_equal(np.delete(after, t, axis=0), np.delete(before, t, axis=0))
    with pytest.raises(InconsistentMinorsError, match="mutually inconsistent"):
        pma.solve_pma(spoiled)
    assert s in read_four_sets(spoiled)


def _generated_round_trip(n):
    k = kernel.generate_admissible(n, 0.3, 2024)
    minors = moments.exact_minors(k, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmbiguousSignWarning)
        sol = pma.solve_pma(minors)
    assert conjugation_distance(sol.kernel, k) <= 1e-9
    assert sol.null_dimension == n
    assert pma.verify(sol.kernel, minors, 1e-9).passed


def test_solve_pma_round_trip_n24():
    _generated_round_trip(24)


def test_solve_pma_round_trip_n32():
    _generated_round_trip(32)


def _same_solution(sol, want):
    assert want is not None
    got = sol.solution
    assert (got.particular, got.null_basis, got.free_cols) == \
        (want.particular, want.null_basis, want.free_cols)


@pytest.mark.parametrize("n", range(4, 13))
def test_solve_pma_equals_the_full_system(n):
    # every triangle row and every decided 4-cycle row, solved at once,
    # give the solution of the 4-sets solve_pma reads
    n_vars = n * (n - 1) // 2
    kernels = [kernel.generate_admissible(n, 0.3, 300 + seed) for seed in range(3)]
    kernels.append(antisymmetric(n, 310))
    if n <= 7:  # larger draws of these magnitudes are rarely admissible
        kernels.append(strong_admissible(n, n=n, require_triangle_rank=False))
    for k in kernels:
        minors = moments.exact_minors(k, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AmbiguousSignWarning)
            want = solve_groups(*full_sign_system(minors), n_vars)
            _same_solution(pma.solve_pma(minors), want)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_solve_pma_reads_the_same_from_the_kernel_as_from_its_list(n):
    # KernelMinors computes each minor read; solve_pma reads only through
    # n and get_many, so both sources give the same solution and reads
    for k in (kernel.generate_admissible(n, 0.3, 7), antisymmetric(n, 1)):
        listed, computed = moments.exact_minors(k, 4), moments.KernelMinors(k)
        want, got = pma.solve_pma(listed), pma.solve_pma(computed)
        assert got.solution == want.solution and got.pairs == want.pairs
        assert got.kernel.mat.tobytes() == want.kernel.mat.tobytes()
        assert computed.queried == listed.queried and len(computed.queried) == len(listed.queried)


@pytest.mark.parametrize("n", [128])
def test_solve_pma_on_computed_minors_reaches_the_floor_past_the_list_limit(n, monkeypatch):
    # with no minor list, ORDER_LIMIT bounds nothing: here it is below
    # C(N, 3), and the solve still reads O(N^2) minors
    monkeypatch.setattr(moments, "ORDER_LIMIT", math.comb(n, 2))
    with pytest.raises(CapabilityError):
        moments.exact_minors(kernel.generate_admissible(n, 0.3, 7), 3)
    for k in (kernel.generate_admissible(n, 0.3, 7), antisymmetric(n, 1)):
        minors = moments.KernelMinors(k)
        sol = pma.solve_pma(minors)
        assert sol.null_dimension == n and pma.is_conjugate(sol.kernel, k)
        reads = minors.queried
        assert sum(len(j) <= 2 for j in reads) == n + math.comb(n, 2)
        assert sum(len(j) >= 3 for j in reads) <= 3 * math.comb(n - 1, 2)


def test_solve_pma_equals_the_full_system_on_estimates():
    # noisy minors from 1e5 draws at N = 7, as in the learn benchmark; with
    # the hub's entries shrunk to 0.15 of the others', most hub triangles
    # are skipped, and the triangles read instead must give their rows
    for seed, hub_scale in itertools.product(range(4), (1.0, 0.15)):
        mat = strong_admissible(seed, n=7, require_triangle_rank=False).mat.copy()
        mat[0, 1:] *= hub_scale
        mat[1:, 0] *= hub_scale
        k = kernel.SignedKernel(mat)
        assert kernel.is_admissible(k)
        est = moments.estimate_required_minors(sampler.sample_enumerate(k, 100_000, seed), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AmbiguousSignWarning)
            want = solve_groups(*full_sign_system(est, 5e-3), 21)
            _same_solution(pma.solve_pma(est, sign_tol=5e-3), want)


def test_solve_pma_reads_no_four_set_on_the_generator_law():
    k = kernel.generate_admissible(32, 0.3, 2024)
    minors = moments.exact_minors(k, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmbiguousSignWarning)
        sol = pma.solve_pma(minors)
    # orders 1 and 2 whole, then the hub triangles {1, i, j} and at most
    # one triangle per negative hub pair but one
    reads = minors.queried
    hub = {j for j in reads if len(j) == 3 and j[0] == 1}
    assert read_four_sets(minors) == set()
    assert len(reads) - len(hub) <= 32 + math.comb(32, 2) + math.comb(31, 2) - 1
    assert hub == {(1, *p) for p in itertools.combinations(range(2, 33), 2)}
    assert sol.null_dimension == 32


@pytest.mark.parametrize("n", [9, 16, 32])
def test_solve_pma_reads_one_four_set_per_join_when_every_relating_sign_is_negative(n):
    # no triangle is positive, so at each vertex v = 4..N the v - 1 pairs
    # (u, v) take v - 2 joins by 4-cycles, C(N - 1, 2) - 1 in all, and on
    # exact minors each 4-set read makes one at least
    k = antisymmetric(n, 400 + n)
    minors = moments.exact_minors(k, 4)
    sol = pma.solve_pma(minors)
    assert 0 < len(read_four_sets(minors)) <= math.comb(n - 1, 2) - 1
    assert conjugation_distance(sol.kernel, k) <= 1e-9
    assert pma.verify(sol.kernel, minors, 1e-9).passed
    assert sol.null_dimension == n


def test_switches_and_transpose_stay_in_the_null_space():
    # every row is a positive cycle, so each vertex switch and the flips
    # of the pairs with eps = -1 (the transpose) solve it; solve_pma reads
    # no 4-set once the null space is no larger than their span
    for k, balanced in ((kernel.generate_admissible(8, 0.3, 2024), False),
                        (antisymmetric(7, 1), False),
                        (_equal_magnitudes(0.1), True),
                        (strong_admissible(2), False)):
        sol = pma.solve_pma(moments.exact_minors(k, 4))
        base = sol.sign_pattern()
        for v in range(1, k.n + 1):
            switch = sum(1 << t for t, pair in enumerate(sol.pairs) if v in pair)
            assert sol.solution.contains(base ^ switch)
        flips = sum(1 << t for t, (i, j) in enumerate(sol.pairs) if k.epsilon(i, j) == -1)
        assert sol.solution.contains(base ^ flips)
        assert sol.null_dimension == k.n - 1 + (not balanced)


def _warned_four_sets(caught):
    return [ast.literal_eval(m.group(1)) for w in caught
            if (m := re.match(r"4-set (\([0-9, ]+\)):", str(w.message)))]


def test_ambiguous_warnings_name_only_read_four_sets():
    # the 4-set of this N = 4 kernel ties, but the positive triangles span
    # its cycle rows: it is never read, and nothing is warned
    k = _equal_magnitudes(-0.1)
    minors = moments.exact_minors(k, "all")
    with warnings.catch_warnings():
        warnings.simplefilter("error", AmbiguousSignWarning)
        sol = pma.solve_pma(minors)
    assert read_four_sets(minors) == set()
    for m in pma.describe_solution_set(sol):
        assert pma.verify(m, minors, 1e-9).passed
    # on noisy estimates many 4-sets are warned about, each one read
    k = kernel.generate_admissible(16, 0.3, 1679072675)
    est = moments.estimate_required_minors(
        sampler.sample_sequential_batch(k, 10_000, 1260265874), 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pma.solve_pma(est, sign_tol=0.01)
    named = _warned_four_sets(caught)
    assert named and set(named) <= read_four_sets(est)


def test_solve_pma_warns_on_subthreshold_signs():
    k = strong_admissible(0)
    batch = sampler.sample_enumerate(k, 20000, 0)
    est = moments.estimate_required_minors(batch, 4)
    with pytest.warns(AmbiguousSignWarning):
        try:
            pma.solve_pma(est, sign_tol=0.02)
        except InconsistentMinorsError:
            pass


# ---------------------------------------------------------------------------
# solution set

def test_solution_set_size_and_equivalence():
    k = kernel.generate_admissible(5, 0.3, 97)
    sol = pma.solve_pma(moments.exact_minors(k, 4))
    members = pma.describe_solution_set(sol)
    assert len(members) == 1 << sol.null_dimension
    want = moments.exact_minors(k, "all")
    for m in members:
        assert pma.verify(m, want, 1e-9).passed


def test_solution_set_is_the_gf2_coset_in_order():
    # member c flips the base kernel's upper entries (and their mirror
    # images) where the sign bits of member c of gf2's coset of the
    # kernel's own upper sign bits differ from them
    for seed in range(6):
        n = 4 + seed % 5
        k = kernel.generate_admissible(n, 0.3, 70 + seed)
        sol = pma.solve_pma(moments.exact_minors(k, 4))
        h = sol.kernel.mat
        iu, ju = np.triu_indices(n, 1)
        negative = h[iu, ju] < 0
        signs = sum(1 << t for t in np.flatnonzero(negative).tolist())
        assert sol.sign_pattern() == signs
        want = []
        for bits in dataclasses.replace(sol.solution, particular=signs).members():
            flip = np.array(gf2.bits_of(bits, len(iu)), dtype=bool) != negative
            mat = h.copy()
            mat[iu[flip], ju[flip]] *= -1
            mat[ju[flip], iu[flip]] *= -1
            want.append(mat.tobytes())
        assert len(want) == 1 << n
        assert [m.mat.tobytes() for m in pma.describe_solution_set(sol)] == want


def test_solution_set_contains_switches_and_transpose():
    k = kernel.generate_admissible(5, 0.3, 101)
    sol = pma.solve_pma(moments.exact_minors(k, 4))
    members = pma.describe_solution_set(sol)

    def in_set(mat):
        return any(np.max(np.abs(mat - m.mat)) <= 1e-9 for m in members)

    for bits in range(1 << 5):
        d = np.diag([-1.0 if (bits >> i) & 1 else 1.0 for i in range(5)])
        assert in_set(d @ k.mat @ d)
    assert in_set(k.mat.T)


def test_solution_set_closure_under_switching():
    # feeding DKD's minors back in yields the same set of kernels
    k = kernel.generate_admissible(4, 0.3, 51)
    d = np.diag([1.0, -1.0, 1.0, -1.0])
    kd = kernel.SignedKernel(d @ k.mat @ d)
    set_a = pma.describe_solution_set(pma.solve_pma(moments.exact_minors(k, 4)))
    set_b = pma.describe_solution_set(pma.solve_pma(moments.exact_minors(kd, 4)))

    def canon(ms):
        return sorted(tuple(np.round(m.mat, 9).ravel()) for m in ms)

    assert canon(set_a) == canon(set_b)


def test_solution_set_cap():
    k = kernel.generate_admissible(14, 0.3, 7)
    sol = pma.solve_pma(moments.exact_minors(k, 4))
    assert sol.null_dimension > pma.SOLUTION_SET_CAP
    with pytest.raises(CapabilityError):
        pma.describe_solution_set(sol)


def test_reconstruction_structure_matches_ground_truth():
    k = kernel.generate_admissible(6, 0.3, 111)
    sol = pma.solve_pma(moments.exact_minors(k, 4))
    h = sol.kernel
    assert np.max(np.abs(np.diag(h.mat) - np.diag(k.mat))) <= 1e-10
    assert np.max(np.abs(np.abs(h.mat) - np.abs(k.mat))) <= 1e-10
    for i, j in sol.pairs:
        assert h.epsilon(i, j) == k.epsilon(i, j)
    for m in (3, 4):
        for s in itertools.combinations(range(1, 7), m):
            assert cyclic_sum(h, s) == pytest.approx(cyclic_sum(k, s), abs=1e-9)


def test_solve_pma_rejects_bad_sign_tol():
    minors = moments.exact_minors(kernel.generate_admissible(5, 0.3, 1), 4)
    for tol in (math.nan, -1.0, math.inf):
        with pytest.raises(DimensionError, match="sign_tol must be finite"):
            pma.solve_pma(minors, sign_tol=tol)
    assert pma.solve_pma(minors, sign_tol=0.0).null_dimension == 5


# ---------------------------------------------------------------------------
# verification

def test_verify_rejects_bad_tol():
    k = kernel.generate_admissible(5, 0.3, 1)
    minors = moments.exact_minors(k, "all")
    for tol in (math.nan, -1.0, math.inf):
        for listed in (minors, moments.MinorList(5)):
            with pytest.raises(DimensionError, match="tol must be finite"):
                pma.verify(k, listed, tol)
    assert pma.verify(k, minors, 0.0).checked == 31


def test_verify_rejects_a_kernel_of_another_size():
    # the leading 4x4 block's minors hold for a 5x5 kernel, and the other way
    k = kernel.generate_admissible(5, 0.3, 1)
    block = kernel.SignedKernel(k.mat[:4, :4])
    with pytest.raises(DimensionError, match="kernel N = 5, minor list N = 4"):
        pma.verify(k, moments.exact_minors(block, "all"))
    with pytest.raises(DimensionError, match="kernel N = 4, minor list N = 5"):
        pma.verify(block, moments.exact_minors(k, "all"))


def test_verify_round_trip_passes():
    k = kernel.generate_admissible(5, 0.3, 121)
    sol = pma.solve_pma(moments.exact_minors(k, 4))
    assert pma.verify(sol.kernel, moments.exact_minors(sol.kernel, "all"), 1e-9).passed


def test_verify_flags_flipped_triangle():
    k = kernel.generate_admissible(6, 0.3, 131)
    tri = positive_triangles(pma.recover_skeleton(moments.exact_minors(k, 2)))[0]
    i, j = tri[0], tri[1]
    mat = np.array(k.mat)
    mat[i - 1, j - 1] *= -1
    mat[j - 1, i - 1] *= -1
    flipped = kernel.SignedKernel(mat)
    report = pma.verify(flipped, moments.exact_minors(k, "all"), 1e-9)
    assert not report.passed
    assert tri in [f[0] for f in report.failures]


def test_verify_report_is_in_colex_order_whatever_the_insertion_order():
    # every minor of the identity is exactly 1, so the two minors spoiled
    # by 0.25 tie exactly for the largest error
    k = kernel.SignedKernel(np.eye(5))
    exact = moments.exact_minors(k, "all")
    spoil = {(2, 4): 0.25, (1, 2, 3): 0.25, (5,): 0.125, (1, 3): 0.0625}
    colex = moments.MinorList(5)
    for j in exact.subsets():
        colex.put(j, exact.get(j) + spoil.get(j, 0.0))
    reverse = moments.MinorList(5)
    for j in reversed(exact.subsets()):
        reverse.put(j, exact.get(j) + spoil.get(j, 0.0))
    report = pma.verify(k, reverse, 1e-9)
    assert [f[0] for f in report.failures] == [(1, 3), (1, 2, 3), (2, 4), (5,)]
    assert report.worst_subset == (1, 2, 3)
    assert report.max_abs_error == 0.25
    assert report == pma.verify(k, colex, 1e-9)


@pytest.mark.parametrize("n", [9, 20])
def test_verify_reports_the_same_values_on_a_whole_list_and_a_partial_one(n):
    # At tol 0 every minor with any error fails, so the failures list the
    # values verify computed: on the whole list orders 3 and 4 come from one
    # whole-order pass, and with some 4-sets dropped row by row.
    k = kernel.generate_admissible(n, 0.3, n)
    h = kernel.SignedKernel(k.mat + 1e-6 * np.random.default_rng(n).normal(size=(n, n)))
    values = dict(moments.exact_minors(k, 4).items())
    gen = np.random.default_rng(2 * n)
    dropped = {j for j in values if len(j) == 4 and gen.random() < 0.3}
    whole = pma.verify(h, moments.MinorList(n, values), 0.0)
    part = pma.verify(h, moments.MinorList(n, {j: v for j, v in values.items() if j not in dropped}), 0.0)
    kept = tuple(f for f in whole.failures if f[0] not in dropped)
    assert len(whole.failures) > len(kept) > 0.9 * (len(values) - len(dropped))
    assert part.failures == kept
    assert part.checked == whole.checked - len(dropped)
    worst = max(abs(got - want) for _, got, want in kept)
    assert part.max_abs_error == worst
    assert part.worst_subset == min((j for j, got, want in kept if abs(got - want) == worst),
                                    key=kernel.colex_key)


@pytest.mark.parametrize("orders", [3, 4])
def test_verify_compares_across_its_slice_boundaries(orders):
    # Every minor of the identity is exactly 1.  At N = 75 order 3 holds
    # 67,525 subsets and at N = 40 order 4 91,390, so the two largest
    # errors, at ranks 2^16 - 1 and 2^16 of the top order, sit in two
    # slices.  The top order 4 comes from the whole-order pass, a top
    # order 3 from principal_minors.
    n, cut = {3: 75, 4: 40}[orders], pma._VERIFY_SLICE
    k = kernel.SignedKernel(np.eye(n))
    minors = moments.exact_minors(k, orders)
    top = math.comb(n, orders) - 1
    spoil = {(2, 7): 0.125, (orders, 5): 0.125, (orders, cut - 1): 0.25, (orders, cut): -0.25,
             (orders, cut + 1): 1e-3, (orders, top): 0.0625}
    for (t, rank), delta in spoil.items():
        j = tuple(kernel.colex_table(n, t)[rank].tolist())
        minors.put(j, minors.get(j) + delta)
    errors = {tuple(kernel.colex_table(n, t)[rank].tolist()): abs(delta)
              for (t, rank), delta in spoil.items()}
    report = pma.verify(k, minors, 1e-9)
    assert report.failures == tuple((j, 1.0, minors.get(j)) for j in sorted(errors, key=kernel.colex_key))
    assert report.max_abs_error == 0.25
    assert report.worst_subset == min((j for j, e in errors.items() if e == 0.25), key=kernel.colex_key)
    assert report.checked == sum(math.comb(n, t) for t in range(1, orders + 1))


def test_verify_empty_list_vacuous():
    k = kernel.generate_admissible(4, 0.3, 141)
    report = pma.verify(k, moments.MinorList(4), 1e-9)
    assert report.passed
    assert report.warning is not None
    assert "PASS" in str(report)


def test_solution_set_sidecar_json():
    import json

    k = kernel.generate_admissible(4, 0.3, 151)
    sol = pma.solve_pma(moments.exact_minors(k, 4))
    payload = json.loads(pma.solution_set_json(sol))
    assert payload["pairs"] == ["1,2", "1,3", "1,4", "2,3", "2,4", "3,4"]
    assert len(payload["null_basis"]) == sol.null_dimension
    assert all(len(row) == 6 and set(row) <= {0, 1}
               for row in payload["null_basis"])


# sha256 of a solve_pma result, for generate_admissible(n, 0.3, 7) at
# order 3, antisymmetric(48, 448) at order 4, and the noisy solve that
# decides nothing (1e4 sequential draws of generate_admissible(16, 0.3, 1),
# seed 1, sign_tol 1e-2, nullity 120): of its GF2Solution fields and its
# kernel's bytes, and of the subsets it read
SOLVE_BYTES = {
    "admissible 32": ("fc2773d7958f166d4fb9ba7bbcb7652a995a056351685fe779386bcd68522ba4",
                      "894ed654baabdde85c340026de178a01b5307191f40567972bbca5e1ad4ce595"),
    "admissible 64": ("e3da1e8a2aaaab39710dbacf815d26938890d331c021d7692f0faf3d1df83aca",
                      "976c9e15c3b62a57cd19f8a76b66b6cbe6e20f276ed77642ea0d605ac04d69d9"),
    "admissible 128": ("c2b4ccbb075dc3e9abcfca93761df3c751845bf77363329f4b1e97262dbc313b",
                       "1eef77badd7ab5b080cb2397c479074abde8fdcf0eb026240181ba0610826e58"),
    "antisymmetric 48": ("30c94087cc981c6460f30926e09f6e37b994447352785b361bb4e72df9ae131f",
                         "21608e6e71744ad290a8ccae12d837c3b6b2ed5998d8e8c69b1d0470d9b68d21"),
    "noisy 16": ("eef77a42861c97ea28899e03e7592c4460d2bf7a5e1d8a25e3d12686e7c3db52",
                 "79625166af37ad8a386304f9f6fb554080016ee838935aee0895dbd6d2e5cee2"),
}


@pytest.mark.parametrize("case", sorted(SOLVE_BYTES))
def test_solve_pma_keeps_its_bytes(case):
    law, n = case.split()
    n, tol = int(n), 0.0
    if law == "admissible":
        minors = moments.exact_minors(kernel.generate_admissible(n, 0.3, 7), 3)
    elif law == "antisymmetric":
        minors = moments.exact_minors(antisymmetric(n, 448), 4)
    else:
        batch = sampler.sample_sequential_batch(kernel.generate_admissible(n, 0.3, 1), 10_000, 1)
        minors, tol = moments.estimate_required_minors(batch, 4), 1e-2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmbiguousSignWarning)
        sol = pma.solve_pma(minors, sign_tol=tol)
    s = sol.solution
    digest = hashlib.sha256(repr((hex(s.particular), [hex(v) for v in s.null_basis],
                                  s.free_cols, s.rank)).encode())
    digest.update(np.ascontiguousarray(sol.kernel.mat).tobytes())
    reads = hashlib.sha256(repr(sorted(minors.queried)).encode())
    assert (digest.hexdigest(), reads.hexdigest()) == SOLVE_BYTES[case]
