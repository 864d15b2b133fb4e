import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from helpers import conjugation_distance, in_coset, signed_matrix, strong_admissible
from signed_dpp import gf2, graph, kernel, moments, pma, sampler
from signed_dpp.errors import (
    AmbiguousSignWarning,
    CapabilityError,
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
    tri, pi3, quad, pi4 = pma.traveling_sums(minors, pma.recover_skeleton(minors))
    assert tri.tolist() == [[0, 1, 2]] and quad.shape == (0, 4) and pi4.shape == (0,)
    assert pi3[0] == pytest.approx(0.0, abs=1e-12)
    assert graph.pi_of_subset(k, (1, 2, 3)) == pytest.approx(0.0, abs=1e-15)


def test_traveling_sums_positive_triangle_product():
    upper = {(1, 2): 0.2, (1, 3): 0.25, (2, 3): 0.3}
    eps = {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    k = signed_matrix([0.5, 0.4, 0.6], upper, eps)
    minors = moments.exact_minors(k, 3)
    _, pi3, _, _ = pma.traveling_sums(minors, pma.recover_skeleton(minors))
    want = 2 * k.entry(1, 2) * k.entry(2, 3) * k.entry(3, 1)
    assert pi3[0] == pytest.approx(want, rel=1e-12)


def test_traveling_sums_figure_four_set():
    gen = np.random.default_rng(2)
    eps = {(1, 2): -1, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1, (3, 4): 1}
    upper = {p: gen.uniform(0.1, 0.3) * gen.choice([-1.0, 1.0]) for p in eps}
    k = signed_matrix([0.5, 0.45, 0.55, 0.6], upper, eps)
    minors = moments.exact_minors(k, 4)
    _, _, quad, pi4 = pma.traveling_sums(minors, pma.recover_skeleton(minors))
    assert quad.tolist() == [[0, 1, 2, 3]]
    want = 2 * k.entry(1, 3) * k.entry(3, 2) * k.entry(2, 4) * k.entry(4, 1)
    assert pi4[0] == pytest.approx(want, rel=1e-10)


def test_extract_pi_matches_direct_sums():
    # every 3- and 4-set's traveling sum equals the sum over its positive cycles
    k = kernel.generate_admissible(6, 0.3, 23)
    minors = moments.exact_minors(k, 4)
    tri, pi3, quad, pi4 = pma.traveling_sums(minors, pma.recover_skeleton(minors))
    for subsets, got in ((tri, pi3), (quad, pi4)):
        for s, value in zip(subsets, got):
            want = graph.pi_of_subset(k, tuple(s + 1))
            assert value == pytest.approx(want, abs=1e-12)


def test_batched_traveling_sums_match_direct_sums():
    for n, seed in ((6, 201), (7, 202), (8, 203)):
        k = kernel.generate_admissible(n, 0.3, seed)
        minors = moments.exact_minors(k, 4)
        skel = pma.recover_skeleton(minors)
        tri, pi3, quad, pi4 = pma.traveling_sums(minors, skel)
        assert tri.tolist() == kernel.index_combinations(n, 3).tolist()
        assert quad.tolist() == kernel.index_combinations(n, 4).tolist()
        for subsets, got in ((tri, pi3), (quad, pi4)):
            want = [graph.pi_of_subset(k, s + 1) for s in subsets]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        # the face lookup equals computing each face's pi3 again
        pt = pma._pair_terms(skel)
        faces = np.array([pma._pi3(minors, skel, pt, q[pma._FACES]) for q in quad])
        assert pma._pi4(minors, skel, pt, quad, faces).tolist() == pi4.tolist()


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
        eps, _ = pma._four_cycle_signs(skel, np.array([[0, 1, 2, 3]]))
        assert np.count_nonzero(eps == 1) in (1, 3)


def cycle_edges(quad_row, c):
    """1-based sorted edges of cycle column ``c`` of a 0-based 4-set."""
    return [(int(quad_row[a]) + 1, int(quad_row[b]) + 1) for a, b in pma._CYCLE_EDGES[c]]


def four_cycle_decisions(k, minors=None):
    minors = moments.exact_minors(k, 4) if minors is None else minors
    skel = pma.recover_skeleton(minors)
    tri, pi3, quad, pi4 = pma.traveling_sums(minors, skel)
    return skel, tri, pi3, quad, pi4, pma.match_four_cycles(skel, quad, pi4, pma.SIGN_TOL)


def test_disambiguate_single_positive_cycle():
    gen = np.random.default_rng(5)
    # eps_12 = -1 leaves exactly one positive pairing (through 1-3, 2-4)
    eps = {(1, 2): -1, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1, (3, 4): 1}
    upper = {p: gen.uniform(0.1, 0.3) * gen.choice([-1.0, 1.0]) for p in eps}
    k = signed_matrix([0.5, 0.45, 0.55, 0.6], upper, eps)
    *_, quad, pi4, (positive, negative, best, second, tol) = four_cycle_decisions(k)
    assert positive.tolist() == [[False, False, True]]
    assert cycle_edges(quad[0], 2) == sorted(graph.as_cycle([(1, 3), (2, 3), (2, 4), (1, 4)]))
    assert best[0] <= tol[0] < second[0] - best[0]
    sigma = -1 if negative[0, 2] else 1
    assert sigma == (1 if pi4[0] > 0 else -1)
    assert sigma == oriented_sign(k, cycle_edges(quad[0], 2))


def test_disambiguate_recovers_ground_truth_signs():
    for seed in range(4):
        k = kernel.generate_admissible(5, 0.3, 40 + seed)
        *_, quad, _, (positive, negative, best, second, tol) = four_cycle_decisions(k)
        assert np.all(best <= tol) and np.all(second - best > tol)
        for t, c in zip(*np.nonzero(positive)):
            assert (-1 if negative[t, c] else 1) == oriented_sign(k, cycle_edges(quad[t], c))


def test_disambiguate_rejects_unmatchable_sum():
    k = kernel.generate_admissible(4, 0.3, 3)
    minors = moments.exact_minors(k, 4)
    skel, *_, quad, pi4, _ = four_cycle_decisions(k, minors)
    _, _, best, _, tol = pma.match_four_cycles(skel, quad, np.array([0.5]), pma.SIGN_TOL)
    assert best[0] > tol[0]
    # pi4 = fixed - a_S, so this moves the 4-set's traveling sum to 0.5
    spoiled = moments.MinorList(4, dict(minors.items()))
    spoiled.put((1, 2, 3, 4), minors.get((1, 2, 3, 4)) + pi4[0] - 0.5)
    with pytest.raises(InconsistentMinorsError,
                       match=r"^4-set \(1, 2, 3, 4\): no sign pattern matches the traveling sum"):
        pma.solve_pma(spoiled)


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
    support, rhs = pma._triangle_rows(skel, np.array([[0, 1, 2]]), np.array([True]))
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
        groups = [pma._triangle_rows(skel, tri[positive], ~(pi3[positive] > 0)),
                  pma._four_cycle_rows(skel, quad[rows], cycle, negative[rows, cycle])]
        pairs = pma._pairs(6)
        truth = np.array([k.entry(a, b) < 0 for a, b in pairs])
        # vertex switches flip an even number of signs around any cycle
        switches = [np.array([v in p for p in pairs]) for v in range(1, 7)]
        for x in [truth] + [truth ^ switch for switch in switches]:
            for support, rhs in groups:
                assert np.array_equal(gf2.parities(support, x), rhs)


# ---------------------------------------------------------------------------
# end to end

def test_solve_pma_round_trip():
    for seed in range(6):
        n = 4 + seed % 5
        k = kernel.generate_admissible(n, 0.3, 70 + seed)
        sol = pma.solve_pma(moments.exact_minors(k, 4))
        assert graph.pma_equivalent(sol.kernel, k)


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
    k = kernel.generate_admissible(5, 0.3, 13)
    with pytest.raises(MissingMinorError):
        pma.solve_pma(moments.exact_minors(k, 3))


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
    # with K_12 < 0 the pattern (-, -, +) ties with the other two of sum -2 m
    k = _equal_magnitudes(-0.1)
    minors = moments.exact_minors(k, "all")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = pma.solve_pma(minors)
    assert [w.category for w in caught] == [AmbiguousSignWarning]
    assert "(1, 2, 3, 4)" in str(caught[0].message)
    members = pma.describe_solution_set(sol)
    assert len(members) == 1 << sol.null_dimension
    for m in members:
        assert pma.verify(m, minors, 1e-9).passed


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


def test_solve_pma_redundant_inconsistent_row():
    # triangles pin the signs, so every 4-cycle row lies in their span and
    # is dropped before elimination; only the final parity check sees it
    k = strong_admissible(3)
    minors = moments.exact_minors(k, 4)
    skel, *_, quad, pi4, (positive, before, *_) = four_cycle_decisions(k, minors)
    t = int(np.flatnonzero(positive.sum(axis=1) == 1)[0])
    s = tuple(int(v) + 1 for v in quad[t])
    spoiled = moments.MinorList(6, dict(minors.items()))
    # pi4 = fixed - a_S, so this flips the lone positive cycle's sign
    spoiled.put(s, minors.get(s) + 2 * pi4[t])
    *_, flipped, (_, after, *_) = four_cycle_decisions(k, spoiled)
    assert flipped[t] == pytest.approx(-pi4[t], rel=1e-9)
    assert np.array_equal(after[t, positive[t]], ~before[t, positive[t]])
    assert np.array_equal(np.delete(after, t, axis=0), np.delete(before, t, axis=0))
    with pytest.raises(InconsistentMinorsError):
        pma.solve_pma(spoiled)


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


def test_solve_pma_same_solution_in_small_span_chunks(monkeypatch):
    # later chunks start from the reduced rows of the earlier ones
    k = kernel.generate_admissible(12, 0.3, 2024)
    minors = moments.exact_minors(k, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmbiguousSignWarning)
        whole = pma.solve_pma(minors)
        monkeypatch.setattr(gf2, "SPAN_CHUNK", 16)
        chunked = pma.solve_pma(minors)
    assert conjugation_distance(whole.kernel, k) <= 1e-9
    assert chunked.kernel.mat.tobytes() == whole.kernel.mat.tobytes()
    assert chunked.free_switches == whole.free_switches


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
            assert graph.pi_of_subset(h, s) == pytest.approx(
                graph.pi_of_subset(k, s), abs=1e-9)


# ---------------------------------------------------------------------------
# verification

def test_verify_round_trip_passes():
    k = kernel.generate_admissible(5, 0.3, 121)
    sol = pma.solve_pma(moments.exact_minors(k, 4))
    assert pma.verify(sol.kernel, moments.exact_minors(sol.kernel, "all"), 1e-9).passed


def test_verify_flags_flipped_triangle():
    k = kernel.generate_admissible(6, 0.3, 131)
    g = graph.signed_adjacency(k)
    tri = graph.positive_triangles(g)[0]
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
